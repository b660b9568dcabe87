// The artifact outputs every paper harness shares (DESIGN.md §3.2,
// §3.4, §3.5, §3.7; flag table in EXPERIMENTS.md):
//
//   --metrics <out.json>         merged telemetry (storm.metrics.v1)
//   --timeseries <out.json>      merged windowed series
//                                (storm.timeseries.v1)
//   --timeseries-window <ms>     recorder window (default 10 simulated ms)
//   --watchdog "<spec>"          SLO rule, repeatable (parse_watchdog)
//   --watchdog-fail              exit nonzero if any watchdog fired
//   --trace <out.json>           Perfetto timeline of the last traced
//                                run + critical-path report on stdout
//   --state <out.json|->         storm.state.v1 snapshot of the last run
//   --bench-json <out.json>      storm.bench.v1 health record of the
//                                harness run itself
//   --min-node-events-per-s <N>  fail below this simulation throughput
//   --max-rss-mb <MB>            fail above this peak RSS
//   --max-wall-s <s>             fail above this wall time
//
// With no flag given every call is a no-op, so harness code stays
// unconditional:
//
//   bench::Artifacts art(argc, argv, "fig02");
//   ...per run:   art.attach(cluster);  ...run...  art.collect(cluster);
//   ...at exit:   return art.write();
//
// Sweeps split collect() in two: capture() is a pure read of one
// cluster, so SweepRunner workers call it while their cluster lives,
// and adopt() folds the snapshots in on the serial commit path in
// point order — which keeps every artifact byte-identical across
// --jobs values.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench/common.hpp"
#include "query/snapshot.hpp"
#include "storm/cluster.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/timeseries.hpp"
#include "telemetry/tracing.hpp"

namespace storm::bench {

/// Peak resident-set size of this process in MB (0 when the platform
/// has no getrusage). Reported on stderr and in the bench-json record
/// so stdout stays golden.
inline double peak_rss_mb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(ru.ru_maxrss) / (1024.0 * 1024.0);  // bytes
#else
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kilobytes
#endif
#else
  return 0.0;
#endif
}

class Artifacts {
 public:
  /// One run's Perfetto timeline and critical-path report.
  struct Trace {
    std::string json;
    std::string report;
    std::size_t spans = 0;
    std::size_t dropped = 0;
  };

  /// Everything one or more runs contribute to the artifacts. Parts
  /// whose flag is absent stay empty.
  struct Snapshot {
    telemetry::MetricsRegistry metrics;
    telemetry::TimeSeriesStore series;
    Trace trace;        // last traced run
    std::string state;  // last run's storm.state.v1 document
    std::uint64_t runs = 0;
    std::uint64_t events = 0;       // engine events executed
    std::uint64_t node_events = 0;  // Σ run nodes × run events
    std::uint64_t nodes_max = 0;

    /// Count `cluster`'s run toward the bench-json totals only.
    void count(core::Cluster& cluster) {
      const auto nodes = static_cast<std::uint64_t>(cluster.config().nodes);
      const std::uint64_t ev = cluster.sim().events_executed();
      ++runs;
      events += ev;
      node_events += nodes * ev;
      nodes_max = std::max(nodes_max, nodes);
    }

    /// Fold `o` in as the later run(s): metrics and series merge, the
    /// later trace and state win.
    Snapshot& operator+=(Snapshot o) {
      metrics.merge(o.metrics);
      series.merge(o.series);
      if (!o.trace.json.empty()) trace = std::move(o.trace);
      if (!o.state.empty()) state = std::move(o.state);
      runs += o.runs;
      events += o.events;
      node_events += o.node_events;
      nodes_max = std::max(nodes_max, o.nodes_max);
      return *this;
    }
  };

  /// Parse the artifact flags; a malformed one exits 2 with a usage
  /// line. `bench` names the harness in the bench-json record.
  Artifacts(int argc, char** argv, const char* bench)
      : metrics_path_(parse_out_path(argc, argv, "--metrics")),
        ts_path_(parse_out_path(argc, argv, "--timeseries")),
        trace_path_(parse_out_path(argc, argv, "--trace")),
        state_path_(parse_out_path(argc, argv, "--state")),
        bench_path_(parse_out_path(argc, argv, "--bench-json")),
        bench_(bench),
        fast_(fast_mode(argc, argv)),
        min_node_events_per_s_(
            number_flag(argc, argv, "--min-node-events-per-s")),
        max_rss_mb_(number_flag(argc, argv, "--max-rss-mb")),
        max_wall_s_(number_flag(argc, argv, "--max-wall-s")),
        t0_(std::chrono::steady_clock::now()) {
    if (const double win_ms =
            number_flag(argc, argv, "--timeseries-window", 3.6e6);
        win_ms > 0) {
      ts_opts_.window = sim::SimTime::millis(win_ms);
    }
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--watchdog-fail") == 0) watchdog_fail_ = true;
      if (std::strcmp(argv[i], "--watchdog") != 0) continue;
      if (i + 1 >= argc || argv[i + 1][0] == '\0') {
        std::fprintf(stderr, "%s: --watchdog requires a rule "
                     "(usage: --watchdog \"<metric> [sel] <cmp> <thresh>"
                     " [for N]\")\n", argv[0]);
        std::exit(2);
      }
      telemetry::WatchdogRule rule;
      std::string err;
      if (!telemetry::parse_watchdog(argv[++i], rule, &err)) {
        std::fprintf(stderr, "%s: --watchdog '%s': %s\n", argv[0], argv[i],
                     err.c_str());
        std::exit(2);
      }
      ts_opts_.watchdogs.push_back(std::move(rule));
    }
  }
  Artifacts(const Artifacts&) = delete;
  Artifacts& operator=(const Artifacts&) = delete;

  /// Arm what the flags ask for on a fresh cluster, in fabric push
  /// order: metrics aggregator, time-series recorder, causal tracer.
  void attach(core::Cluster& cluster) const {
    if (metrics_path_ != nullptr) cluster.enable_fabric_metrics();
    if (ts_enabled()) cluster.enable_timeseries(ts_opts_);
    if (trace_path_ != nullptr) cluster.enable_tracing();
  }

  /// Everything `cluster`'s finished run contributes. A pure read;
  /// safe to call from several threads on distinct clusters.
  Snapshot capture(core::Cluster& cluster) const {
    Snapshot s;
    s.count(cluster);
    if (metrics_path_ != nullptr) s.metrics.merge(cluster.metrics());
    if (ts_enabled() && cluster.timeseries() != nullptr) {
      s.series = cluster.timeseries()->snapshot();
    }
    if (trace_path_ != nullptr && cluster.tracer() != nullptr) {
      s.trace = render_trace(cluster.tracer()->buffer());
    }
    if (state_path_ != nullptr) {
      s.state = query::to_json(query::capture(cluster));
    }
    return s;
  }

  /// Fold a snapshot in. Call on the serial commit path, in point
  /// order.
  void adopt(Snapshot&& s) { all_ += std::move(s); }

  void collect(core::Cluster& cluster) { adopt(capture(cluster)); }

  /// A named scalar for the bench-json "values" block, sorted by name;
  /// the last record of a name wins.
  void record_value(const std::string& name, double value) {
    values_[name] = value;
  }

  /// Write every requested artifact: metrics, time series and
  /// watchdogs, trace, bench-json with its budgets, and the state
  /// snapshot last (with `--state -` it is appended to stdout, where
  /// statectl finds it). Returns the exit-code contribution: nonzero
  /// when an artifact could not be written, a watchdog fired under
  /// --watchdog-fail, or a budget was missed.
  int write() const {
    int rc = write_metrics();
    rc |= write_series();
    rc |= write_trace();
    rc |= write_bench();
    rc |= write_state();
    return rc;
  }

 private:
  static constexpr std::size_t kMaxReports = 8;

  /// Arm the windowed recorder when series are exported or watched.
  bool ts_enabled() const {
    return ts_path_ != nullptr || !ts_opts_.watchdogs.empty();
  }

  /// Render `buf` to Perfetto JSON plus a critical-path report on up
  /// to kMaxReports job traces.
  static Trace render_trace(const telemetry::TraceBuffer& buf) {
    Trace t;
    t.json = telemetry::to_perfetto_json(buf);
    t.spans = buf.spans().size();
    t.dropped = buf.dropped();
    std::vector<std::uint64_t> traces;
    for (const auto& sp : buf.spans()) {
      if (sp.trace >= 2 && !sp.open()) traces.push_back(sp.trace);
    }
    std::sort(traces.begin(), traces.end());
    traces.erase(std::unique(traces.begin(), traces.end()), traces.end());
    const std::size_t shown = std::min(traces.size(), kMaxReports);
    for (std::size_t i = 0; i < shown; ++i) {
      const std::uint64_t id = traces[i] - 2;
      char head[96];
      std::snprintf(head, sizeof head,
                    "trace: job %llu incarnation %llu critical path:\n",
                    static_cast<unsigned long long>(
                        id / telemetry::kIncarnationsPerJob),
                    static_cast<unsigned long long>(
                        id % telemetry::kIncarnationsPerJob));
      t.report += head;
      t.report += telemetry::format_critical_path(
          telemetry::analyze_launch(buf, traces[i]));
    }
    if (traces.size() > shown) {
      char tail[64];
      std::snprintf(tail, sizeof tail, "trace: ... and %zu more job traces\n",
                    traces.size() - shown);
      t.report += tail;
    }
    return t;
  }

  /// printf-append to `out`.
  __attribute__((format(printf, 2, 3))) static void appendf(
      std::string& out, const char* fmt, ...) {
    std::va_list ap;
    va_start(ap, fmt);
    std::va_list again;
    va_copy(again, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1, fmt,
                   again);
    va_end(again);
    out.resize(at + static_cast<std::size_t>(n));
  }

  /// Write `data` to `path`; false, with a message on stderr, when the
  /// file cannot be opened, written or closed.
  static bool write_file(const char* flag, const char* path,
                         std::string_view data) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "%s: cannot open %s\n", flag, path);
      return false;
    }
    const bool written = std::fwrite(data.data(), 1, data.size(), f) ==
                         data.size();
    const bool closed = std::fclose(f) == 0;
    if (!written || !closed) {
      std::fprintf(stderr, "%s: cannot write %s\n", flag, path);
      return false;
    }
    return true;
  }

  int write_metrics() const {
    if (metrics_path_ == nullptr) return 0;
    telemetry::MetricsRegistry merged = all_.metrics;
    telemetry::update_overhead_ratio(merged);
    std::string json = merged.to_json();
    // Splice the process record in right after the schema line so the
    // series themselves stay byte-identical. Golden and parallel-sweep
    // comparisons strip this one line (RSS is the only
    // nondeterministic field in the file).
    static constexpr std::string_view kSchemaLine =
        "  \"schema\": \"storm.metrics.v1\",\n";
    if (const auto pos = json.find(kSchemaLine); pos != std::string::npos) {
      char proc[64];
      std::snprintf(proc, sizeof proc,
                    "  \"proc\": {\"peak_rss_mb\": %.1f},\n", peak_rss_mb());
      json.insert(pos + kSchemaLine.size(), proc);
    }
    const bool ok = write_file("--metrics", metrics_path_, json);
    if (ok) {
      std::printf("\nmetrics: wrote %zu series to %s\n", merged.size(),
                  metrics_path_);
      if (const auto* g = merged.find_gauge(telemetry::kOverheadRatioGauge);
          g != nullptr && g->ever_set()) {
        std::printf("metrics: control-plane overhead %.3f%% of fabric "
                    "bytes\n", g->value() * 100.0);
      }
    }
    // stderr, not stdout: golden comparisons cover stdout + the JSON.
    std::fprintf(stderr, "metrics: peak RSS %.1f MB\n", peak_rss_mb());
    return ok ? 0 : 1;
  }

  int write_series() const {
    if (!ts_enabled()) return 0;
    const telemetry::TimeSeriesStore& ts = all_.series;
    int rc = 0;
    if (ts_path_ != nullptr) {
      if (write_file("--timeseries", ts_path_, ts.to_json())) {
        std::printf("\ntimeseries: wrote %zu points across %zu series to "
                    "%s\n", ts.total_points(), ts.series.size(), ts_path_);
      } else {
        rc = 1;
      }
    }
    if (!ts_opts_.watchdogs.empty()) {
      std::printf("watchdog: %zu breach%s\n", ts.breaches.size(),
                  ts.breaches.size() == 1 ? "" : "es");
      for (const auto& b : ts.breaches) {
        std::printf("watchdog: BREACH [%s] window %lld value %.6g "
                    "(threshold %.6g)\n", b.rule.c_str(),
                    static_cast<long long>(b.window), b.value, b.threshold);
      }
    }
    if (watchdog_fail_ && !ts.breaches.empty()) {
      std::fprintf(stderr, "watchdog: FAIL %zu breach(es) with "
                   "--watchdog-fail\n", ts.breaches.size());
      rc = 1;
    }
    return rc;
  }

  int write_trace() const {
    const Trace& t = all_.trace;
    if (trace_path_ == nullptr || t.json.empty()) return 0;
    if (!write_file("--trace", trace_path_, t.json)) return 1;
    std::printf("\ntrace: wrote %zu spans to %s (load in ui.perfetto.dev)\n",
                t.spans, trace_path_);
    if (t.dropped > 0) {
      std::printf("trace: buffer full, %zu spans dropped\n", t.dropped);
    }
    std::fputs(t.report.c_str(), stdout);
    return 0;
  }

  /// The storm.bench.v1 record: wall time, peak RSS, engine-event
  /// totals and the nodes×events/s throughput the budgets gate.
  int write_bench() const {
    if (bench_path_ == nullptr && min_node_events_per_s_ <= 0 &&
        max_rss_mb_ <= 0 && max_wall_s_ <= 0) {
      return 0;
    }
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
            .count();
    const double rss_mb = peak_rss_mb();
    const double per_s =
        wall_s > 0 ? static_cast<double>(all_.node_events) / wall_s : 0.0;
    int rc = 0;
    if (bench_path_ != nullptr) {
      std::string j;
      appendf(j, "{\n  \"schema\": \"storm.bench.v1\",\n"
              "  \"bench\": \"%s\",\n  \"fast\": %s,\n", bench_,
              fast_ ? "true" : "false");
      appendf(j, "  \"runs\": %llu,\n  \"events\": %llu,\n"
              "  \"nodes_max\": %llu,\n  \"node_events\": %llu,\n"
              "  \"node_events_per_s\": %.1f,\n",
              static_cast<unsigned long long>(all_.runs),
              static_cast<unsigned long long>(all_.events),
              static_cast<unsigned long long>(all_.nodes_max),
              static_cast<unsigned long long>(all_.node_events), per_s);
      if (!values_.empty()) {
        j += "  \"values\": {\n";
        std::size_t i = 0;
        for (const auto& [name, v] : values_) {
          appendf(j, "    \"%s\": %.3f%s\n", name.c_str(), v,
                  ++i < values_.size() ? "," : "");
        }
        j += "  },\n";
      }
      appendf(j, "  \"wall_s\": %.3f,\n  \"peak_rss_mb\": %.1f\n}\n",
              wall_s, rss_mb);
      if (write_file("--bench-json", bench_path_, j)) {
        std::fprintf(stderr, "bench-json: wrote %s (%.3g node-events/s)\n",
                     bench_path_, per_s);
      } else {
        rc = 1;
      }
    }
    if (min_node_events_per_s_ > 0 && per_s < min_node_events_per_s_) {
      std::fprintf(stderr,
                   "bench-json: FAIL %.3g node-events/s < budget %.3g\n",
                   per_s, min_node_events_per_s_);
      rc = 1;
    }
    if (max_rss_mb_ > 0 && rss_mb > max_rss_mb_) {
      std::fprintf(stderr, "bench-json: FAIL peak RSS %.1f MB > budget "
                   "%.1f MB\n", rss_mb, max_rss_mb_);
      rc = 1;
    }
    if (max_wall_s_ > 0 && wall_s > max_wall_s_) {
      std::fprintf(stderr, "bench-json: FAIL wall %.1f s > budget %.1f s\n",
                   wall_s, max_wall_s_);
      rc = 1;
    }
    return rc;
  }

  int write_state() const {
    if (state_path_ == nullptr || all_.state.empty()) return 0;
    if (std::strcmp(state_path_, "-") == 0) {
      return std::fwrite(all_.state.data(), 1, all_.state.size(), stdout) ==
                     all_.state.size()
                 ? 0
                 : 1;
    }
    if (!write_file("--state", state_path_, all_.state)) return 1;
    // stderr, not stdout: golden comparisons cover stdout.
    std::fprintf(stderr, "state: wrote %s snapshot to %s\n",
                 std::string(query::kStateSchema).c_str(), state_path_);
    return 0;
  }

  const char* metrics_path_;
  const char* ts_path_;
  const char* trace_path_;
  const char* state_path_;
  const char* bench_path_;
  const char* bench_;
  bool fast_;
  double min_node_events_per_s_;
  double max_rss_mb_;
  double max_wall_s_;
  std::chrono::steady_clock::time_point t0_;
  telemetry::TimeSeriesOptions ts_opts_;
  bool watchdog_fail_ = false;
  Snapshot all_;
  std::map<std::string, double> values_;
};

}  // namespace storm::bench
