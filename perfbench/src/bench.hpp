// Shared pieces of the end-to-end benchmark: host-time spans, the
// passive fabric counter, the simulated-output digest and the per-op
// result record. See ../README.md for what is measured and why.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "fabric/fabric.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- spans -----------------------------------------------------------------

/// One host-time span around a benchmark→layer call. The layer is the
/// name's prefix up to the first '.'; root spans ("setup", "run",
/// "check") belong to the benchmark itself.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;
  int parent = -1;  // index into the log, -1 for a root
  int run = 0;      // op index: spans of one simulated run share it
};

/// In-memory span log. When disabled, Scope records nothing and reads
/// no clock, so untraced ops pay only for the phase timers.
class SpanLog {
 public:
  bool enabled = false;
  int run = 0;

  int open(std::string_view name) {
    if (!enabled) return -1;
    spans_.push_back(Span{std::string(name), host_ns(), -1, current_, run});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[id].end_ns = host_ns();
    current_ = spans_[id].parent;
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every closed span: duration minus the part covered
  /// by its direct children.
  std::vector<std::int64_t> self_times() const;
  /// Sum of self times per (layer, run), for spans whose root is named
  /// `root` ("setup" or "run"; "" = every root).
  std::map<std::string, std::int64_t> layer_self_ns(int run,
                                                    std::string_view root)
      const;
  /// Total duration of spans named `name` in `run`.
  std::int64_t total_ns(int run, std::string_view name) const;
  /// Number of spans named `name` in `run`.
  int count(int run, std::string_view name) const;
  /// JSON array of every span (name, start, end, parent, run).
  std::string to_json() const;

 private:
  int root_of(int i) const {
    while (spans_[i].parent >= 0) i = spans_[i].parent;
    return i;
  }

  std::vector<Span> spans_;
  int current_ = -1;
};

class Scope {
 public:
  Scope(SpanLog& log, std::string_view name)
      : log_(log), id_(log.open(name)) {}
  ~Scope() { log_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

// --- fabric counter ----------------------------------------------------------

/// Passive middleware the traced ops push onto the fabric: counts
/// operations by kind, drop verdicts, COMPARE-AND-WRITE retries and
/// payload vs control bytes. Never touches the Action, so the
/// simulation is unchanged — the traced/untraced digest comparison
/// checks exactly that.
class OpCounter final : public storm::fabric::Middleware {
 public:
  std::int64_t xfer = 0, caw = 0, cmd_deliver = 0, local = 0;
  std::int64_t dropped = 0, caw_retries = 0;
  std::int64_t payload_bytes = 0, control_bytes = 0;

  std::string_view name() const override { return "perfbench-counter"; }
  void apply(const storm::fabric::Envelope&, storm::fabric::Action&) override {
  }
  void observe(const storm::fabric::Envelope& e,
               const storm::fabric::Action& a) override;

 private:
  std::int64_t last_a_[storm::fabric::kMsgClassCount] = {};
  std::int64_t last_b_[storm::fabric::kMsgClassCount] = {};
  bool caw_seen_[storm::fabric::kMsgClassCount] = {};
};

// --- digest ------------------------------------------------------------------

/// FNV-1a 64 over everything the correctness check covers.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= c[i];
      h_ *= 0x100000001B3ULL;
    }
  }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void str(std::string_view s) { bytes(s.data(), s.size()); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

std::string hex(std::uint64_t v);

/// Stable 64-bit mix of the workload seed with a per-use salt.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

// --- ops ---------------------------------------------------------------------

/// Everything one op (one simulated run of a workload) reports.
struct OpResult {
  bool ok = true;              // every job completed, no violation
  std::string failure;         // first reason when !ok
  std::string probe_note;      // first mid-run invariant violation
  std::uint64_t digest = 0;
  double setup_s = 0, wall_s = 0, sim_s = 0;  // raw host / simulated s
  // Host-speed factor: kCalibrationRef over the calibration kernel's
  // time around this op. Multiplying a host time by it gives the time
  // on a host where the kernel takes kCalibrationRef.
  double speed = 1;
  std::vector<double> slice_ms;  // host ms per simulated slice
  // Per-layer counts (read after the run).
  std::map<std::string, double> counts;
  // Simulated results the paper anchors compare against.
  std::map<std::string, double> sim_values;
  // Sizes the replays use.
  int nodes = 0;
  int cpus_per_node = 0;
  int mpl = 0;
  std::vector<int> job_nodes;  // node width of every allocation
};

/// A per-layer count of `op`, 0 when the op never set it.
inline double count(const OpResult& op, const char* key) {
  const auto it = op.counts.find(key);
  return it == op.counts.end() ? 0.0 : it->second;
}

struct OpOptions {
  std::uint64_t seed = 0;
  bool shortened = false;  // self-test mode: a fraction of the work
  bool traced = false;
  SpanLog* spans = nullptr;
};

/// A workload: one op per call, plus its paper anchors (printed once
/// per process; deterministic, not gated).
struct Workload {
  std::string name;
  std::string why;
  std::function<OpResult(const OpOptions&)> op;
  std::function<void(const OpOptions&, const OpResult& first)> anchors;
};

const std::vector<Workload>& workloads();

// --- replays -----------------------------------------------------------------

/// Host ns per operation of each layer's public API, replayed outside
/// the simulation with operation counts and sizes from `op`.
struct ReplayResult {
  double node_switch_ns = 0;
  double plane_range_ns = 0;
  double buddy_ns = 0;
  double matrix_ns = 0;
  std::int64_t switches = 0, range_ops = 0, buddy_ops = 0, matrix_ops = 0;
};

ReplayResult replay_layers(const OpResult& op);

/// Host seconds the fixed calibration kernel takes right now.
double calibration_s();
/// The calibration kernel's time on the reference host state.
inline constexpr double kCalibrationRef = 0.2;

}  // namespace perfbench
