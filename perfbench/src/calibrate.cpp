// Host-speed calibration kernel: a fixed, benchmark-owned stand-in for
// an event-driven simulator. A binary heap of pending events drives
// random reads and writes over an object pool larger than a core's
// private caches, so the kernel slows down with the same neighbour
// memory traffic and clock changes as the simulator does. It never
// calls program code, so a change to the program cannot move it.
#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {

double calibration_s() {
  constexpr std::uint32_t kObjects = 1u << 16;  // 64 Ki x 64 B = 4 MiB
  constexpr int kPending = 8192;
  constexpr int kSteps = 1 << 20;
  struct Obj {
    std::uint64_t w[8];
  };
  static std::vector<Obj> pool(kObjects);
  using Ev = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Ev, std::vector<Ev>, std::greater<>> heap;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < kPending; ++i) {
    heap.emplace(next() % 1024, static_cast<std::uint32_t>(next() % kObjects));
  }
  const std::int64_t t0 = host_ns();
  std::uint64_t acc = 0;
  for (int i = 0; i < kSteps; ++i) {
    const Ev e = heap.top();
    heap.pop();
    Obj& o = pool[e.second];
    for (std::uint64_t& w : o.w) {
      w = w * 6364136223846793005ULL + e.first;
      acc += w >> 60;
    }
    heap.emplace(e.first + 1 + next() % 1024,
                 static_cast<std::uint32_t>((next() ^ acc) % kObjects));
  }
  const double s = static_cast<double>(host_ns() - t0) * 1e-9;
  pool[0].w[0] += acc;  // keep the work observable
  return s;
}

}  // namespace perfbench
