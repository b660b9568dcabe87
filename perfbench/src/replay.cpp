// Timed replays of the layers whose work happens inside sim.step(),
// where the benchmark cannot put a span: the OsScheduler (node), the
// node-state plane (net), and the MM's buddy allocator and Ousterhout
// matrix (storm). Each replay drives the layer's public API with the
// machine size, MPL and job widths of the op it follows, and with the
// op's own operation count, raised to a floor so that a workload that
// barely uses the layer still gets a stable per-operation figure.
#include <algorithm>
#include <deque>
#include <optional>

#include "bench.hpp"
#include "net/node_state_plane.hpp"
#include "node/os_scheduler.hpp"
#include "storm/buddy_allocator.hpp"
#include "storm/ousterhout_matrix.hpp"

namespace perfbench {

namespace {

using namespace storm;
using sim::SimTime;

// Keeps the replayed reads observable to the optimiser.
volatile std::int64_t g_sink = 0;

constexpr std::int64_t kMinOps = 2000;
constexpr std::int64_t kMaxOps = 100000;

std::int64_t clamp_ops(double n) {
  return std::clamp(static_cast<std::int64_t>(n), kMinOps, kMaxOps);
}

sim::Task<> busy_loop(node::Proc& p, const bool& stop) {
  while (!stop) co_await p.compute(SimTime::ms(1));
}

/// Gang switches on one node: `mpl` rows of one process per CPU, a
/// strobe every quantum suspending the active row and resuming the
/// next (what the NM does per strobe, through Proc::set_suspended),
/// with every process computing in Proc::compute bursts.
double node_switch_ns(int cpus, int mpl, std::int64_t switches) {
  sim::Simulator sim(1);
  node::OsParams params;
  params.cpus = cpus;
  node::OsScheduler os(sim, params, sim::Rng(2));
  std::vector<std::vector<node::Proc*>> rows(mpl);
  bool stop = false;
  for (int r = 0; r < mpl; ++r) {
    for (int cpu = 0; cpu < cpus; ++cpu) {
      node::Proc& p = os.create("pe" + std::to_string(r), cpu);
      p.set_suspended(r != 0);
      rows[r].push_back(&p);
      sim.spawn(busy_loop(p, stop));
    }
  }
  const SimTime quantum = SimTime::ms(1);
  const std::int64_t t0 = host_ns();
  for (std::int64_t k = 0; k < switches; ++k) {
    sim.run(sim.now() + quantum);
    for (node::Proc* p : rows[k % mpl]) p->set_suspended(true);
    for (node::Proc* p : rows[(k + 1) % mpl]) p->set_suspended(false);
  }
  const double ns = static_cast<double>(host_ns() - t0) / switches;
  // Let every loop observe `stop` and return, so no frame outlives
  // the scheduler.
  stop = true;
  for (auto& row : rows) {
    for (node::Proc* p : row) p->set_suspended(false);
  }
  sim.run();
  return ns;
}

/// Job widths cycled by the allocator replays (at least one entry).
std::vector<int> widths(const OpResult& op) {
  std::vector<int> w;
  for (const int n : op.job_nodes) {
    if (n > 0) w.push_back(std::min(n, op.nodes));
  }
  if (w.empty()) w.push_back(op.nodes);
  return w;
}

/// Range writes and network conditionals over the job ranges, on a
/// well-known slot and on a job word (dense bank), as strobes and
/// launch/termination reports issue them.
double plane_range_ns(const OpResult& op, std::int64_t ops) {
  net::NodeStatePlane plane(op.nodes);
  const std::vector<int> w = widths(op);
  std::int64_t hits = 0;
  const std::int64_t t0 = host_ns();
  for (std::int64_t k = 0; k < ops; k += 2) {
    const int width = w[static_cast<std::size_t>(k / 2) % w.size()];
    const int first = static_cast<int>((k / 2 * width) % op.nodes);
    const net::NodeRange r{std::min(first, op.nodes - width), width};
    const net::GlobalAddr addr = (k / 2) % 2 == 0 ? 1 : 16 + (k / 2) % 64;
    plane.fill_words(r, addr, k);
    hits += plane.compare_all(r, addr, net::Compare::EQ, k) ? 1 : 0;
  }
  const double ns = static_cast<double>(host_ns() - t0) / ops;
  g_sink = g_sink + hits;
  return ns;
}

/// Allocate the op's job widths in order, releasing the oldest live
/// allocation whenever the next one does not fit.
double buddy_ns(const OpResult& op, std::int64_t ops) {
  core::BuddyAllocator buddy(op.nodes);
  const std::vector<int> w = widths(op);
  std::deque<net::NodeRange> live;
  const std::int64_t t0 = host_ns();
  std::int64_t done = 0;
  for (std::size_t k = 0; done < ops; ++k) {
    const int width = w[k % w.size()];
    std::optional<net::NodeRange> r = buddy.allocate(width);
    while (!r.has_value() && !live.empty()) {
      buddy.release(live.front());
      live.pop_front();
      ++done;
      r = buddy.allocate(width);
    }
    if (r.has_value()) live.push_back(*r);
    ++done;
  }
  return static_cast<double>(host_ns() - t0) / done;
}

/// Same stream through the Ousterhout matrix's place/remove.
double matrix_ns(const OpResult& op, std::int64_t ops) {
  core::OusterhoutMatrix matrix(op.nodes, std::max(1, op.mpl));
  const std::vector<int> w = widths(op);
  std::deque<core::JobId> live;
  core::JobId next = 0;
  const std::int64_t t0 = host_ns();
  std::int64_t done = 0;
  for (std::size_t k = 0; done < ops; ++k) {
    const int width = w[k % w.size()];
    auto placed = matrix.place(next, width);
    while (!placed.has_value() && !live.empty()) {
      matrix.remove(live.front());
      live.pop_front();
      ++done;
      placed = matrix.place(next, width);
    }
    if (placed.has_value()) live.push_back(next++);
    ++done;
  }
  return static_cast<double>(host_ns() - t0) / done;
}

}  // namespace

ReplayResult replay_layers(const OpResult& op) {
  ReplayResult r;
  const double nodes = std::max(1, op.nodes);
  r.switches = clamp_ops(count(op, "node.gang_switches") / nodes);
  r.node_switch_ns =
      node_switch_ns(std::max(1, op.cpus_per_node), std::max(1, op.mpl),
                     r.switches);
  r.range_ops = clamp_ops(count(op, "storm.mm_strobes") +
                          2 * count(op, "storm.launches"));
  r.plane_range_ns = plane_range_ns(op, r.range_ops);
  r.buddy_ops = clamp_ops(2 * count(op, "storm.launches"));
  r.buddy_ns = buddy_ns(op, r.buddy_ops);
  r.matrix_ops = r.buddy_ops;
  r.matrix_ns = matrix_ns(op, r.matrix_ops);
  return r;
}

}  // namespace perfbench
