// perfbench: run one workload for a fixed host-time budget, check the
// simulated outputs, and print every metric by name with its unit.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--short] [--expect FILE] [--spans-out FILE] [--min-ops N]
//
// --trace 0 prints the end-to-end metrics (untraced ops only); --trace
// 1 alternates untraced and traced ops and prints the per-layer
// metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

// --- SpanLog -----------------------------------------------------------------

std::vector<std::int64_t> SpanLog::self_times() const {
  std::vector<std::int64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[i] += s.end_ns - s.start_ns;
    if (s.parent >= 0) self[s.parent] -= s.end_ns - s.start_ns;
  }
  return self;
}

std::map<std::string, std::int64_t> SpanLog::layer_self_ns(
    int run_id, std::string_view root) const {
  const std::vector<std::int64_t> self = self_times();
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.run != run_id) continue;
    const std::string& r = spans_[root_of(static_cast<int>(i))].name;
    if (!root.empty() && r != root) continue;
    const std::size_t dot = s.name.find('.');
    out[dot == std::string::npos ? "bench" : s.name.substr(0, dot)] += self[i];
  }
  return out;
}

std::int64_t SpanLog::total_ns(int run_id, std::string_view name) const {
  std::int64_t t = 0;
  for (const Span& s : spans_) {
    if (s.run == run_id && s.name == name) t += s.end_ns - s.start_ns;
  }
  return t;
}

int SpanLog::count(int run_id, std::string_view name) const {
  int n = 0;
  for (const Span& s : spans_) n += s.run == run_id && s.name == name;
  return n;
}

std::string SpanLog::to_json() const {
  std::string out = "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                  "\"end_ns\":%lld,\"parent\":%d,\"run\":%d}%s\n",
                  i, s.name.c_str(), static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns), s.parent, s.run,
                  i + 1 < spans_.size() ? "," : "");
    out += buf;
  }
  return out + "]\n";
}

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool shortened = false;
  int min_ops = 3;
  std::string expect_file;
  std::string spans_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--short] [--expect FILE] "
               "[--spans-out FILE] [--min-ops N]\nworkloads:",
               why);
  for (const Workload& w : workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + f).c_str());
      return argv[++i];
    };
    if (f == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (f == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (f == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (f == "--trace") {
      a.trace = value() == "1";
    } else if (f == "--short") {
      a.shortened = true;
    } else if (f == "--min-ops") {
      a.min_ops = std::max(1, std::atoi(value().c_str()));
    } else if (f == "--expect") {
      a.expect_file = value();
    } else if (f == "--spans-out") {
      a.spans_out = value();
    } else {
      usage(("unknown argument " + f).c_str());
    }
  }
  if (!have_workload || !have_seed) usage("--workload and --seed are required");
  return a;
}

/// Committed digest for (workload, mode, seed), or "" when none.
std::string expected_digest(const Args& a) {
  if (a.expect_file.empty()) return {};
  std::ifstream in(a.expect_file);
  std::string line;
  const std::string mode = a.shortened ? "short" : "full";
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string w, m, digest;
    std::uint64_t seed = 0;
    if (!(ls >> w >> m >> seed >> digest) || w[0] == '#') continue;
    if (w == a.workload && m == mode && seed == a.seed) return digest;
  }
  return {};
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of sorted `v`.
double percentile(const std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  const auto k = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(k, 1, v.size()) - 1];
}

double peak_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Every metric goes to stdout as a readable line; the ones in `json`
/// also land in the final JSON object.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           bool json = true, const char* note = "") {
    std::printf("metric %-28s %.17g %s%s%s\n", name.c_str(), value,
                unit.c_str(), *note ? "  # " : "", note);
    if (json) json_.push_back({name, value, unit});
  }
  void finish(bool correct, int attempted, int failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < json_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", json_[i].name.c_str(), json_[i].value,
                  json_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> json_;
};

/// Median over traced ops of a per-op value computed from the spans.
template <class F>
double traced_median(const std::vector<int>& runs, F per_run) {
  std::vector<double> v;
  for (const int r : runs) v.push_back(per_run(r));
  return median(v);
}

}  // namespace

int run(int argc, char** argv) {
  const Args a = parse(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& x : workloads()) {
    if (x.name == a.workload) w = &x;
  }
  if (w == nullptr) usage(("unknown workload " + a.workload).c_str());
  const std::string expect = expected_digest(a);

  std::printf("workload %s seed %llu seconds %g trace %d%s\n",
              w->name.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, a.shortened ? " short" : "");
  std::printf("why: %s\n", w->why.c_str());

  SpanLog spans;
  std::vector<OpResult> plain, traced;
  std::vector<int> traced_runs;
  int attempted = 0, failed = 0;
  bool digests_agree = true, traced_matches = true;
  std::uint64_t first_digest = 0;
  const std::int64_t t_start = host_ns();
  // Calibrations bracket every op; consecutive ops share one.
  double cal_before = calibration_s();
  std::vector<double> cals{cal_before};
  while (attempted < a.min_ops * (a.trace ? 2 : 1) ||
         (host_ns() - t_start) * 1e-9 < a.seconds) {
    OpOptions o;
    o.seed = a.seed;
    o.shortened = a.shortened;
    o.traced = a.trace && attempted % 2 == 1;
    o.spans = &spans;
    spans.enabled = o.traced;
    spans.run = attempted;
    OpResult r = w->op(o);
    const double cal_after = calibration_s();
    cals.push_back(cal_after);
    r.speed = kCalibrationRef / (0.5 * (cal_before + cal_after));
    cal_before = cal_after;
    ++attempted;
    if (attempted == 1) first_digest = r.digest;
    bool op_failed = !r.ok;
    if (r.digest != first_digest) {
      op_failed = true;
      digests_agree = false;
      if (o.traced) traced_matches = false;
      r.failure = "digest " + hex(r.digest) + " differs from first op " +
                  hex(first_digest);
    }
    if (!expect.empty() && hex(r.digest) != expect) {
      op_failed = true;
      r.failure = "digest " + hex(r.digest) + " != committed " + expect;
    }
    std::printf("op %d %s setup %.6f s run %.6f s sim %.6f s speed %.4f "
                "digest %s%s%s\n",
                attempted - 1, o.traced ? "traced" : "plain", r.setup_s,
                r.wall_s, r.sim_s, r.speed, hex(r.digest).c_str(),
                op_failed ? " FAILED: " : "", op_failed ? r.failure.c_str() : "");
    if (!r.probe_note.empty()) {
      std::printf("op %d mid-run invariant probe: %s\n", attempted - 1,
                  r.probe_note.c_str());
    }
    failed += op_failed ? 1 : 0;
    if (o.traced) {
      traced_runs.push_back(attempted - 1);
      traced.push_back(std::move(r));
    } else {
      plain.push_back(std::move(r));
    }
  }
  std::printf("digest %s%s\n", hex(first_digest).c_str(),
              expect.empty() ? " (no committed digest for this seed)"
              : hex(first_digest) == expect ? " matches committed"
                                             : " DOES NOT match committed");
  if (a.trace) {
    std::printf("traced digests %s untraced\n",
                traced_matches ? "equal" : "DIFFER FROM");
  }
  {
    OpOptions o;
    o.seed = a.seed;
    o.shortened = a.shortened;
    o.spans = &spans;
    spans.enabled = false;
    w->anchors(o, plain.front());
  }

  Report rep;
  // End-to-end host times are calibrated: raw time x the op's speed
  // factor (see README.md, "Calibration").
  // Slice percentiles are taken per op, at p50 and at the highest
  // percentile up to p99 with at least 10 samples beyond it; the run
  // reports their medians over ops.
  std::vector<double> wall, wall_raw, setup, speed, p50, p99;
  std::size_t samples = 0;
  double q_hi = 0.99;
  for (const OpResult& r : plain) {
    wall.push_back(r.wall_s * r.speed);
    wall_raw.push_back(r.wall_s);
    setup.push_back(r.setup_s * r.speed);
    speed.push_back(r.sim_s / (r.wall_s * r.speed));
    std::vector<double> slices;
    for (const double ms : r.slice_ms) slices.push_back(ms * r.speed);
    std::sort(slices.begin(), slices.end());
    const double n = static_cast<double>(slices.size());
    const double q = std::min(0.99, n > 0 ? 1.0 - 10.0 / n : 0.0);
    q_hi = std::min(q_hi, q);
    samples += slices.size();
    p50.push_back(percentile(slices, 0.5));
    p99.push_back(percentile(slices, q));
  }
  std::printf("slices %zu samples over %zu ops; slice_ms_p99 is the median "
              "of per-op p%.4g or higher\n",
              samples, plain.size(), q_hi * 100);
  const bool e2e = !a.trace;
  rep.add("wall_s", median(wall), "s", e2e);
  rep.add("setup_s", median(setup), "s", e2e);
  rep.add("sim_speed", median(speed), "sim_s/s", e2e);
  rep.add("slice_ms_p50", median(p50), "ms", e2e);
  rep.add("slice_ms_p99", median(p99), "ms", e2e);
  rep.add("peak_rss_mb", peak_rss_mb(), "MB", e2e);
  rep.add("wall_s_raw", median(wall_raw), "s", false, "uncalibrated");
  rep.add("calibration_s", median(cals), "s", false,
          "calibration kernel time; wall_s etc. assume kCalibrationRef");
  rep.add("ops_failed_frac", static_cast<double>(failed) / attempted, "ratio",
          false, "also the JSON's failed/attempted");
  rep.add("slice_samples", static_cast<double>(samples), "count", false);

  if (a.trace) {
    const OpResult& t = traced.back();
    const double wall_plain = median(wall);
    const double wall_traced = median([&] {
      std::vector<double> v;
      for (const OpResult& r : traced) v.push_back(r.wall_s * r.speed);
      return v;
    }());
    std::printf("tracing overhead: traced wall_s %.6f vs untraced %.6f "
                "(%+.2f%%)\n",
                wall_traced, wall_plain,
                (wall_traced - wall_plain) / wall_plain * 100.0);
    // Self times of the setup and run trees add up to setup_s + wall_s.
    for (std::size_t i = 0; i < traced_runs.size(); ++i) {
      std::int64_t sum = 0;
      for (const char* root : {"setup", "run"}) {
        for (const auto& [layer, ns] :
             spans.layer_self_ns(traced_runs[i], root)) {
          sum += ns;
        }
      }
      std::printf("op %d span self-time sum %.6f s, setup_s + wall_s %.6f s\n",
                  traced_runs[i], sum * 1e-9,
                  traced[i].setup_s + traced[i].wall_s);
    }
    auto ms = [&](const char* name) {
      return traced_median(traced_runs, [&](int r) {
        return spans.total_ns(r, name) * 1e-6;
      });
    };
    auto self_ms = [&](const char* layer) {
      return traced_median(traced_runs, [&](int r) {
        std::int64_t ns = 0;
        for (const char* root : {"setup", "run"}) {
          const auto m = spans.layer_self_ns(r, root);
          if (const auto it = m.find(layer); it != m.end()) ns += it->second;
        }
        return ns * 1e-6;
      });
    };
    // Every layer's self time is printed; sim and storm, the two that
    // work on every workload, also go into the JSON.
    for (const char* layer :
         {"sim", "storm", "apps", "fabric", "telemetry", "query", "bench"}) {
      const bool json =
          std::strcmp(layer, "sim") == 0 || std::strcmp(layer, "storm") == 0;
      rep.add(std::string("self.") + layer + "_ms", self_ms(layer), "ms",
              json, "self time in setup + run spans");
    }
    // sim: the untraced ops' run phase per engine event, so the
    // counting middleware's cost stays out of it.
    std::vector<double> ns_ev;
    for (const OpResult& r : plain) {
      ns_ev.push_back(r.wall_s * r.speed * 1e9 /
                      std::max(1.0, count(r, "sim.events")));
    }
    rep.add("sim.events", count(t, "sim.events"), "count");
    rep.add("sim.ns_per_event", median(ns_ev), "ns");
    rep.add("sim.pending_peak", count(t, "sim.pending_peak"), "count");
    rep.add("sim.periodic_saved", count(t, "sim.periodic_saved"), "count");
    rep.add("node.gang_switches", count(t, "node.gang_switches"), "count");
    rep.add("storm.mm_strobes", count(t, "storm.mm_strobes"), "count");
    rep.add("storm.nm_cmds", count(t, "storm.nm_cmds"), "count");
    rep.add("storm.launches", count(t, "storm.launches"), "count");
    rep.add("storm.ft_chunks", count(t, "storm.ft_chunks"), "count");
    rep.add("storm.ft_polls_per_chunk",
            count(t, "storm.ft_flow_polls") /
                std::max(1.0, count(t, "storm.ft_chunks")),
            "ratio");
    rep.add("storm.submit_ns", traced_median(traced_runs, [&](int r) {
              return static_cast<double>(spans.total_ns(r, "storm.submit")) /
                     std::max(1, spans.count(r, "storm.submit"));
            }),
            "ns");
    rep.add("storm.cluster_ctor_ms", ms("storm.cluster_ctor"), "ms");
    rep.add("fabric.ops.xfer", count(t, "fabric.ops.xfer"), "count");
    rep.add("fabric.ops.caw", count(t, "fabric.ops.caw"), "count");
    rep.add("fabric.ops.cmd_deliver", count(t, "fabric.ops.cmd_deliver"),
            "count");
    rep.add("fabric.ops.local", count(t, "fabric.ops.local"), "count");
    rep.add("fabric.caw_retry_ratio",
            count(t, "fabric.caw_retries") /
                std::max(1.0, count(t, "fabric.ops.caw")),
            "ratio");
    rep.add("fabric.dropped", count(t, "fabric.dropped"), "count");
    const double payload = count(t, "net.payload_bytes");
    const double control = count(t, "net.control_bytes");
    rep.add("net.payload_bytes", payload, "bytes");
    rep.add("net.control_ratio", control / std::max(1.0, payload + control),
            "ratio");
    rep.add("telemetry.enable_ms", ms("telemetry.enable"), "ms", false,
            "recovery_observed only");
    rep.add("telemetry.export_ms",
            traced_median(traced_runs, [&](int r) {
              return (spans.total_ns(r, "telemetry.export") +
                      spans.total_ns(r, "telemetry.read")) * 1e-6;
            }),
            "ms");
    rep.add("telemetry.spans", count(t, "telemetry.spans"), "count");
    rep.add("telemetry.spans_dropped", count(t, "telemetry.spans_dropped"),
            "count");
    rep.add("telemetry.windows", count(t, "telemetry.windows"), "count");
    rep.add("query.capture_ms", ms("query.capture"), "ms");
    rep.add("query.invariants_ms", ms("query.invariants"), "ms");
    rep.add("query.violations", count(t, "query.violations"), "count");
    rep.add("apps.generate_ms", ms("apps.generate"), "ms");

    // Replays run after the ops, outside every span.
    const ReplayResult rp = replay_layers(t);
    std::printf("replay: %lld gang switches, %lld range ops, %lld buddy ops, "
                "%lld matrix ops over %d nodes\n",
                static_cast<long long>(rp.switches),
                static_cast<long long>(rp.range_ops),
                static_cast<long long>(rp.buddy_ops),
                static_cast<long long>(rp.matrix_ops), t.nodes);
    rep.add("node.switch_ns", rp.node_switch_ns, "ns");
    rep.add("net.plane_range_ns", rp.plane_range_ns, "ns");
    rep.add("storm.buddy_ns", rp.buddy_ns, "ns");
    rep.add("storm.matrix_ns", rp.matrix_ns, "ns");
  }

  if (!a.spans_out.empty()) {
    std::ofstream out(a.spans_out);
    out << spans.to_json();
  }
  const bool correct = failed == 0 && digests_agree && traced_matches;
  rep.finish(correct, attempted, failed);
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
