#include "query/views.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>

#include "telemetry/tracing.hpp"

namespace storm::query {
namespace {

/// Minimal aligned text table (left-justified columns, two-space gap).
class Text {
 public:
  explicit Text(std::vector<std::string> header)
      : header_(std::move(header)) {}

  void add(std::vector<std::string> row) { rows_.push_back(std::move(row)); }
  bool empty() const { return rows_.empty(); }

  std::string str() const {
    std::vector<std::size_t> width(header_.size());
    for (std::size_t i = 0; i < header_.size(); ++i) {
      width[i] = header_[i].size();
    }
    for (const auto& r : rows_) {
      for (std::size_t i = 0; i < r.size() && i < width.size(); ++i) {
        width[i] = std::max(width[i], r[i].size());
      }
    }
    std::string out;
    const auto emit = [&](const std::vector<std::string>& r) {
      for (std::size_t i = 0; i < r.size(); ++i) {
        out += r[i];
        if (i + 1 < r.size()) {
          out.append(width[i] - r[i].size() + 2, ' ');
        }
      }
      out += '\n';
    };
    emit(header_);
    for (const auto& r : rows_) emit(r);
    return out;
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

std::string ms(std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e6);
  return buf;
}

std::string us(std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e3);
  return buf;
}

std::string node_range(int first, int count) {
  if (count <= 0) return "-";
  if (count == 1) return std::to_string(first);
  return std::to_string(first) + "-" + std::to_string(first + count - 1);
}

std::string node_state(const NodeRow& n) {
  // Most severe first; "up" when nothing is wrong.
  if (n.failed && n.evicted) return "failed+evicted";
  if (n.failed && n.mm_failed) return "failed+declared";
  if (n.failed) return "failed";
  if (n.crashed) return "crashed";
  if (n.evicted) return "evicted";
  if (n.mm_failed) return "declared-dead";
  return "up";
}

std::string view_summary(const TableSet& t) {
  const ClusterMeta& m = t.meta;
  std::string out;
  out += "cluster:   " + std::to_string(m.nodes) + " nodes, " +
         std::to_string(m.pls_per_node) + " PLs/node, scheduler " +
         m.scheduler + (m.plane_mode ? ", plane mode" : "") + "\n";
  out += "sim time:  " + ms(m.sim_ns) + " ms (quantum " + ms(m.quantum_ns) +
         " ms, seed " + std::to_string(m.seed) + ")\n";
  out += "mm:        node " + std::to_string(m.mm_node) + " (primary), " +
         std::to_string(m.strobes) + " strobes, heartbeat epoch " +
         std::to_string(m.hb_epoch) + "\n";
  const auto by_state = t.jobs.group_by<std::string, int>(
      [](const JobRow& j) { return core::to_string(j.state); }, 0,
      [](int& acc, const JobRow&) { ++acc; });
  out += "jobs:      " + std::to_string(t.jobs.count());
  for (const auto& [state, n] : by_state) {
    out += ", " + std::to_string(n) + " " + state;
  }
  out += "\n";
  out += "queue:     " + std::to_string(m.queued) + " waiting, " +
         std::to_string(m.completed) + " completed\n";
  const std::size_t down =
      t.nodes.count([](const NodeRow& n) { return n.failed || n.crashed; });
  out += "health:    " + std::to_string(down) + " node(s) down, " +
         std::to_string(t.nodes.count(
             [](const NodeRow& n) { return n.evicted; })) +
         " evicted\n";
  // Batched periodic paths (DESIGN §2.3). The counters register
  // lazily on first use, so the line only appears once a sweep,
  // absorbed heartbeat, or coalesced timer fire has happened.
  const auto counter = [&t](const char* name) -> std::int64_t {
    const auto row = t.metrics
                         .where([name](const MetricRow& r) {
                           return r.name == name;
                         })
                         .first();
    return row ? row->count : 0;
  };
  const std::int64_t hb_batched = counter("nm.heartbeat.batched");
  const std::int64_t hb_sweeps = counter("mm.heartbeat.sweeps");
  const std::int64_t coalesced = counter("sim.timer.coalesced");
  if (hb_batched > 0 || hb_sweeps > 0 || coalesced > 0) {
    out += "periodic:  " + std::to_string(hb_sweeps) + " mm sweep(s), " +
           std::to_string(hb_batched) + " heartbeat(s) absorbed, " +
           std::to_string(coalesced) + " timer event(s) coalesced\n";
  }
  return out;
}

std::string view_nodes(const TableSet& t) {
  // sinfo-style: collapse consecutive nodes with identical display
  // state into one range line.
  struct Key {
    std::string state;
    int pl_busy;
    int cells;
    std::int64_t heartbeat;
    std::int64_t strobe_row;
    bool operator==(const Key&) const = default;
  };
  Text table({"NODES", "COUNT", "STATE", "PLBUSY", "CELLS", "HB", "ROW"});
  int run_first = -1;
  int run_last = -1;
  Key run_key;
  const auto flush = [&] {
    if (run_first < 0) return;
    table.add({node_range(run_first, run_last - run_first + 1),
               std::to_string(run_last - run_first + 1), run_key.state,
               std::to_string(run_key.pl_busy), std::to_string(run_key.cells),
               std::to_string(run_key.heartbeat),
               std::to_string(run_key.strobe_row)});
  };
  t.nodes.for_each([&](const NodeRow& n) {
    const Key key{node_state(n), n.pl_busy, n.matrix_cells, n.heartbeat,
                  n.strobe_row};
    if (run_first >= 0 && key == run_key && n.node == run_last + 1) {
      run_last = n.node;
      return;
    }
    flush();
    run_first = run_last = n.node;
    run_key = key;
  });
  flush();
  return table.str();
}

std::string view_queue(const TableSet& t) {
  Text table({"JOBID", "NAME", "STATE", "NPES", "NODES", "ROW", "INC",
              "SUBMIT_MS", "START_MS", "FINISH_MS"});
  t.jobs.for_each([&](const JobRow& j) {
    const bool allocated = j.placed || occupies_resources(j.state) ||
                           j.terminal();
    table.add({std::to_string(j.id), j.name, core::to_string(j.state),
               std::to_string(j.npes),
               allocated && j.node_count > 0
                   ? node_range(j.first_node, j.node_count)
                   : "-",
               j.placed ? std::to_string(j.placement_row) : "-",
               std::to_string(j.incarnation), ms(j.submit_ns),
               j.started_ns > 0 ? ms(j.started_ns) : "-",
               j.finished_ns > 0 ? ms(j.finished_ns) : "-"});
  });
  return table.str();
}

std::string view_matrix(const TableSet& t) {
  // One line per timeslot: which jobs occupy it and how full it is.
  struct RowAgg {
    std::map<core::JobId, std::pair<int, int>> jobs;  // job -> (min, max)
    int cells = 0;
  };
  const auto rows = t.matrix_slots.group_by<int, RowAgg>(
      [](const MatrixSlotRow& s) { return s.row; }, RowAgg{},
      [](RowAgg& acc, const MatrixSlotRow& s) {
        auto [it, fresh] = acc.jobs.try_emplace(
            s.job, std::pair<int, int>{s.node, s.node});
        if (!fresh) {
          it->second.first = std::min(it->second.first, s.node);
          it->second.second = std::max(it->second.second, s.node);
        }
        ++acc.cells;
      });
  Text table({"ROW", "JOBS", "CELLS", "OCC%"});
  for (int row = 0; row < t.meta.matrix_rows; ++row) {
    const auto it = rows.find(row);
    std::string jobs = "-";
    int cells = 0;
    if (it != rows.end()) {
      jobs.clear();
      for (const auto& [job, range] : it->second.jobs) {
        if (!jobs.empty()) jobs += " ";
        jobs += std::to_string(job) + "@" +
                node_range(range.first, range.second - range.first + 1);
      }
      cells = it->second.cells;
    }
    char occ[16];
    std::snprintf(occ, sizeof(occ), "%.1f",
                  t.meta.nodes > 0
                      ? 100.0 * static_cast<double>(cells) / t.meta.nodes
                      : 0.0);
    table.add({std::to_string(row), jobs, std::to_string(cells), occ});
  }
  return table.str();
}

std::string view_failures(const TableSet& t) {
  std::string out;
  Text nodes({"NODE", "STATE", "EPOCH", "HB", "PLBUSY"});
  t.nodes
      .where([](const NodeRow& n) {
        return n.failed || n.crashed || n.evicted || n.mm_failed ||
               n.epoch > 0;
      })
      .for_each([&](const NodeRow& n) {
        nodes.add({std::to_string(n.node), node_state(n),
                   std::to_string(n.epoch), std::to_string(n.heartbeat),
                   std::to_string(n.pl_busy)});
      });
  out += nodes.empty() ? std::string("no node failures\n") : nodes.str();

  Text jobs({"JOBID", "NAME", "STATE", "RESTARTS", "LAST_REQUEUE_MS"});
  t.jobs
      .where([](const JobRow& j) {
        return j.restarts > 0 || j.state == core::JobState::Aborted;
      })
      .for_each([&](const JobRow& j) {
        jobs.add({std::to_string(j.id), j.name, core::to_string(j.state),
                  std::to_string(j.restarts),
                  j.last_requeue_ns > 0 ? ms(j.last_requeue_ns) : "-"});
      });
  if (!jobs.empty()) {
    out += "\n";
    out += jobs.str();
  }
  return out;
}

std::string view_replication(const TableSet& t) {
  // Fixed line when the table is empty so the view renders identically
  // on a live replication-disabled cluster and on a snapshot that
  // omits the table.
  if (t.replicas.count() == 0) return "replication disabled\n";
  Text table({"RANK", "NODE", "ROLE", "TERM", "COMMIT", "APPLIED", "LOG",
              "LEASE_MS"});
  t.replicas.for_each([&](const ReplicaRow& r) {
    table.add({std::to_string(r.rank), std::to_string(r.node), r.role,
               std::to_string(r.term), std::to_string(r.commit),
               std::to_string(r.applied), std::to_string(r.log_size),
               r.lease_ns > 0 ? ms(r.lease_ns) : "-"});
  });
  return table.str();
}

std::string view_spans(const TableSet& t, const ViewOptions& opt) {
  Relation<SpanRow> spans = t.spans;
  if (opt.job >= 0) {
    const std::uint64_t lo = telemetry::job_trace_id(opt.job, 0);
    const std::uint64_t hi =
        telemetry::job_trace_id(opt.job, 0) + telemetry::kIncarnationsPerJob;
    spans = spans.where(
        [lo, hi](const SpanRow& s) { return s.trace >= lo && s.trace < hi; });
  }
  Text table({"T_START_US", "DUR_US", "NODE", "KIND", "TRACE", "SPAN",
              "PARENT", "A", "B"});
  spans
      .order_by<std::pair<std::int64_t, std::uint64_t>>(
          [](const SpanRow& s) { return std::pair(s.t_start_ns, s.span); })
      .for_each([&](const SpanRow& s) {
        table.add(
            {us(s.t_start_ns),
             s.open() ? std::string("open") : us(s.t_end_ns - s.t_start_ns),
             s.node < 0 ? std::string("-") : std::to_string(s.node),
             std::string(telemetry::to_string(
                 static_cast<telemetry::SpanKind>(s.kind))),
             std::to_string(s.trace), std::to_string(s.span),
             std::to_string(s.parent), std::to_string(s.a),
             std::to_string(s.b)});
      });
  if (table.empty()) {
    return opt.job >= 0 ? "no spans for job " + std::to_string(opt.job) +
                              " (was tracing enabled?)\n"
                        : "no spans (was tracing enabled?)\n";
  }
  return table.str();
}

std::string fmt_g(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

bool has_prefix(const std::string& name, const std::string& prefix) {
  return prefix.empty() || name.compare(0, prefix.size(), prefix) == 0;
}

/// ASCII sparkline: one glyph per window, '.' = no data, '_' = zero,
/// then a 8-level ramp scaled to the series maximum.
std::string sparkline(const std::vector<double>& vals) {
  static constexpr char kRamp[] = "_:-=+*#%@";
  double mx = 0.0;
  for (const double v : vals) {
    if (v == v && v > mx) mx = v;
  }
  std::string out;
  out.reserve(vals.size());
  for (const double v : vals) {
    if (v != v) {  // NaN: window absent from this series
      out += '.';
      continue;
    }
    int lvl = 0;
    if (mx > 0.0 && v > 0.0) {
      lvl = 1 + std::min(7, static_cast<int>(v / mx * 8.0));
    }
    out += kRamp[lvl];
  }
  return out;
}

/// Per-series rollup of the timeseries table, plus the window span.
struct SeriesAgg {
  std::string kind;
  std::int64_t total = 0;     // counter Σdelta / histogram Σcount
  double last = 0.0;          // counter rate / gauge value / hist p99
  std::map<std::int64_t, double> trend;  // window -> plotted value
  std::map<std::int64_t, double> cell;   // window -> watch-view value
};

struct TsRollup {
  std::map<std::string, SeriesAgg> series;
  std::int64_t w_min = 0;
  std::int64_t w_max = -1;
  std::int64_t window_ns = 0;  // longest observed span (tail is shorter)
};

TsRollup rollup_timeseries(const TableSet& t, const std::string& prefix) {
  TsRollup r;
  t.timeseries.for_each([&](const SeriesPointRow& p) {
    if (r.w_max < 0) {
      r.w_min = r.w_max = p.window;
    } else {
      r.w_min = std::min(r.w_min, p.window);
      r.w_max = std::max(r.w_max, p.window);
    }
    r.window_ns = std::max(r.window_ns, p.t_end_ns - p.t_start_ns);
    if (!has_prefix(p.name, prefix)) return;
    SeriesAgg& a = r.series[p.name];
    a.kind = p.kind;
    if (p.kind == "counter") {
      a.total += p.delta;
      a.last = p.value;  // rate/s
      a.trend[p.window] = static_cast<double>(p.delta);
      a.cell[p.window] = static_cast<double>(p.delta);
    } else if (p.kind == "gauge") {
      a.last = p.value;
      a.trend[p.window] = p.value;
      a.cell[p.window] = p.value;
    } else {  // histogram: plot the per-window p99
      a.total += p.count;
      a.last = p.p99;
      a.trend[p.window] = p.p99;
      a.cell[p.window] = static_cast<double>(p.count);
    }
  });
  return r;
}

/// Activity orders series in top/watch: how much happened, not how
/// large the values are (gauges rank by how often they moved).
double activity(const SeriesAgg& a) {
  if (a.kind == "gauge") return static_cast<double>(a.trend.size());
  return static_cast<double>(a.total);
}

std::vector<std::pair<std::string, const SeriesAgg*>> ranked(
    const TsRollup& r, int top) {
  std::vector<std::pair<std::string, const SeriesAgg*>> v;
  v.reserve(r.series.size());
  for (const auto& [name, a] : r.series) v.emplace_back(name, &a);
  std::stable_sort(v.begin(), v.end(), [](const auto& x, const auto& y) {
    const double ax = activity(*x.second);
    const double ay = activity(*y.second);
    if (ax != ay) return ax > ay;
    return x.first < y.first;
  });
  if (top > 0 && static_cast<int>(v.size()) > top) {
    v.resize(static_cast<std::size_t>(top));
  }
  return v;
}

constexpr const char* kNoTimeseries =
    "no timeseries (arm the recorder with --timeseries/--watchdog on the "
    "bench run)\n";

std::string breach_section(const TableSet& t) {
  if (t.breaches.count() == 0) return {};
  Text table({"RULE", "METRIC", "WINDOW", "T_MS", "VALUE", "THRESHOLD"});
  t.breaches.for_each([&](const BreachRow& b) {
    table.add({b.rule, b.metric, std::to_string(b.window), ms(b.t_ns),
               fmt_g(b.value), fmt_g(b.threshold)});
  });
  return "\nwatchdog breaches:\n" + table.str();
}

std::string view_top(const TableSet& t, const ViewOptions& opt) {
  const TsRollup r = rollup_timeseries(t, opt.prefix);
  if (r.w_max < 0) return kNoTimeseries;
  const int span = opt.windows > 0 ? opt.windows : 20;
  const std::int64_t w_lo = std::max(r.w_min, r.w_max - span + 1);
  std::string out = "timeseries: windows " + std::to_string(r.w_min) + ".." +
                    std::to_string(r.w_max) + " of " + ms(r.window_ns) +
                    " ms, " + std::to_string(r.series.size()) + " series" +
                    (opt.prefix.empty() ? "" : " (prefix " + opt.prefix + ")") +
                    ", trend " + std::to_string(w_lo) + ".." +
                    std::to_string(r.w_max) + "\n";
  Text table({"SERIES", "KIND", "TOTAL", "LAST", "TREND"});
  for (const auto& [name, a] : ranked(r, opt.top)) {
    std::vector<double> vals;
    vals.reserve(static_cast<std::size_t>(r.w_max - w_lo + 1));
    for (std::int64_t w = w_lo; w <= r.w_max; ++w) {
      const auto it = a->trend.find(w);
      vals.push_back(it != a->trend.end()
                         ? it->second
                         : std::numeric_limits<double>::quiet_NaN());
    }
    table.add({name, a->kind,
               a->kind == "gauge" ? fmt_g(a->last) : std::to_string(a->total),
               fmt_g(a->last), sparkline(vals)});
  }
  if (table.empty()) {
    return out + "no series match prefix '" + opt.prefix + "'\n" +
           breach_section(t);
  }
  return out + table.str() + breach_section(t);
}

std::string view_watch(const TableSet& t, const ViewOptions& opt) {
  const TsRollup r = rollup_timeseries(t, opt.prefix);
  if (r.w_max < 0) return kNoTimeseries;
  const int span = opt.windows > 0 ? opt.windows : 20;
  const std::int64_t w_lo = std::max(r.w_min, r.w_max - span + 1);
  // Time-major: one row per window, a column for each of the most
  // active series (counters/histograms show per-window counts, gauges
  // their sampled value).
  constexpr int kColumns = 4;
  const auto cols = ranked(r, kColumns);
  std::vector<std::string> header = {"WINDOW", "T_MS"};
  for (const auto& [name, a] : cols) header.push_back(name);
  header.emplace_back("BREACHES");
  // Breach marks by window.
  std::map<std::int64_t, int> breaches;
  t.breaches.for_each(
      [&](const BreachRow& b) { ++breaches[b.window]; });
  Text table(std::move(header));
  for (std::int64_t w = w_lo; w <= r.w_max; ++w) {
    std::vector<std::string> row = {std::to_string(w),
                                    ms(w * r.window_ns)};
    for (const auto& [name, a] : cols) {
      const auto it = a->cell.find(w);
      row.push_back(it != a->cell.end() ? fmt_g(it->second) : "-");
    }
    const auto bit = breaches.find(w);
    row.push_back(bit != breaches.end()
                      ? "!" + std::to_string(bit->second)
                      : "-");
    table.add(std::move(row));
  }
  return table.str() + breach_section(t);
}

std::string view_metrics(const TableSet& t, const ViewOptions& opt) {
  // Top-k cumulative counters/gauges by value — the quick "what did
  // this run do" ranking (the time-resolved story lives in top/watch).
  struct Entry {
    std::string name;
    std::string kind;
    double value;
  };
  std::vector<Entry> entries;
  t.metrics.for_each([&](const MetricRow& m) {
    if (!has_prefix(m.name, opt.prefix)) return;
    if (m.kind == "counter") {
      entries.push_back({m.name, m.kind, static_cast<double>(m.count)});
    } else if (m.kind == "gauge") {
      entries.push_back({m.name, m.kind, m.value});
    }
  });
  if (entries.empty()) {
    return opt.prefix.empty()
               ? "no counters or gauges recorded\n"
               : "no counters or gauges match prefix '" + opt.prefix + "'\n";
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     if (a.value != b.value) return a.value > b.value;
                     return a.name < b.name;
                   });
  if (opt.top > 0 && static_cast<int>(entries.size()) > opt.top) {
    entries.resize(static_cast<std::size_t>(opt.top));
  }
  Text table({"NAME", "KIND", "VALUE"});
  for (const Entry& e : entries) {
    table.add({e.name, e.kind,
               e.kind == "counter"
                   ? std::to_string(static_cast<std::int64_t>(e.value))
                   : fmt_g(e.value)});
  }
  return table.str();
}

}  // namespace

const std::vector<std::string>& view_names() {
  static const std::vector<std::string> names = {
      "summary", "nodes", "queue", "matrix", "failures", "replication",
      "spans", "metrics", "top", "watch"};
  return names;
}

std::string render_view(std::string_view name, const TableSet& t,
                        const ViewOptions& opt, std::string* err) {
  if (name == "summary") return view_summary(t);
  if (name == "nodes") return view_nodes(t);
  if (name == "queue") return view_queue(t);
  if (name == "matrix") return view_matrix(t);
  if (name == "failures") return view_failures(t);
  if (name == "replication") return view_replication(t);
  if (name == "spans") return view_spans(t, opt);
  if (name == "metrics") return view_metrics(t, opt);
  if (name == "top") return view_top(t, opt);
  if (name == "watch") return view_watch(t, opt);
  if (err != nullptr) {
    *err = "unknown view '" + std::string(name) + "'";
  }
  return {};
}

}  // namespace storm::query
