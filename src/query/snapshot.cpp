#include "query/snapshot.hpp"

#include <cstdio>

#include "query/json.hpp"
#include "query/tables.hpp"
#include "storm/cluster.hpp"

namespace storm::query {
namespace {

// --- writing ---------------------------------------------------------------

void esc(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void put(std::string& out, std::int64_t v) { out += std::to_string(v); }
void put(std::string& out, std::uint64_t v) { out += std::to_string(v); }
void put(std::string& out, int v) { out += std::to_string(v); }
void put(std::string& out, bool v) { out += v ? "true" : "false"; }
void put(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  out += buf;
}
void put(std::string& out, const std::string& v) { esc(out, v); }

template <typename... Cells>
void row(std::string& out, bool& first, const Cells&... cells) {
  out += first ? "\n      [" : ",\n      [";
  first = false;
  bool inner = true;
  (((inner ? void() : void(out += ',')), put(out, cells), inner = false), ...);
  out += ']';
}

void table_head(std::string& out, bool& first_table, std::string_view name,
                std::initializer_list<std::string_view> columns) {
  out += first_table ? "\n    " : ",\n    ";
  first_table = false;
  esc(out, name);
  out += ": {\"columns\": [";
  bool first = true;
  for (const std::string_view c : columns) {
    if (!first) out += ", ";
    first = false;
    esc(out, c);
  }
  out += "], \"rows\": [";
}

void table_tail(std::string& out, bool rows_empty) {
  out += rows_empty ? "]}" : "\n    ]}";
}

// --- reading ---------------------------------------------------------------

/// Verifies a table object's "columns" matches the writer's layout and
/// hands each row's cell array to `load`.
bool load_table(const json::Value& tables, std::string_view name,
                std::initializer_list<std::string_view> columns,
                const std::function<bool(const json::Array&)>& load,
                std::string* err) {
  const auto set_err = [&](const std::string& what) {
    if (err != nullptr) *err = "table '" + std::string(name) + "': " + what;
    return false;
  };
  const json::Value* t = tables.find(name);
  if (t == nullptr || !t->is_object()) return set_err("missing");
  const json::Value* cols = t->find("columns");
  const json::Value* rows = t->find("rows");
  if (cols == nullptr || !cols->is_array() || rows == nullptr ||
      !rows->is_array()) {
    return set_err("malformed");
  }
  if (cols->array.size() != columns.size()) return set_err("column mismatch");
  std::size_t i = 0;
  for (const std::string_view want : columns) {
    if (!cols->array[i].is_string() || cols->array[i].string != want) {
      return set_err("column mismatch");
    }
    ++i;
  }
  for (const json::Value& r : rows->array) {
    if (!r.is_array() || r.array.size() != columns.size()) {
      return set_err("row arity mismatch");
    }
    if (!load(r.array)) return set_err("bad cell value");
  }
  return true;
}

bool cell_int(const json::Value& v, std::int64_t& out) {
  if (!v.is_number()) return false;
  out = v.as_int();
  return true;
}
bool cell_int(const json::Value& v, int& out) {
  std::int64_t wide = 0;
  if (!cell_int(v, wide)) return false;
  out = static_cast<int>(wide);
  return true;
}
bool cell_uint(const json::Value& v, std::uint64_t& out) {
  if (!v.is_number()) return false;
  out = v.as_uint();
  return true;
}
bool cell_bool(const json::Value& v, bool& out) {
  if (!v.is_bool()) return false;
  out = v.boolean;
  return true;
}
bool cell_str(const json::Value& v, std::string& out) {
  if (!v.is_string()) return false;
  out = v.string;
  return true;
}

bool job_state_from_string(std::string_view s, core::JobState& out) {
  using core::JobState;
  for (const JobState st :
       {JobState::Queued, JobState::Transferring, JobState::Ready,
        JobState::Launching, JobState::Running, JobState::Completed,
        JobState::Aborted}) {
    if (core::to_string(st) == s) {
      out = st;
      return true;
    }
  }
  return false;
}

}  // namespace

TableSet StateSnapshot::tables() const {
  TableSet t;
  t.meta = meta;
  t.nodes = Relation<NodeRow>::of(nodes);
  t.jobs = Relation<JobRow>::of(jobs);
  t.incarnations = Relation<IncarnationRow>::of(incarnations);
  t.matrix_slots = Relation<MatrixSlotRow>::of(matrix_slots);
  t.metrics = Relation<MetricRow>::of(metrics);
  t.spans = Relation<SpanRow>::of(spans);
  t.replicas = Relation<ReplicaRow>::of(replicas);
  t.timeseries = Relation<SeriesPointRow>::of(timeseries);
  t.breaches = Relation<BreachRow>::of(breaches);
  return t;
}

StateSnapshot capture(core::Cluster& cluster) {
  const TableSet live = live_tables(cluster);
  StateSnapshot s;
  s.meta = live.meta;
  s.nodes = live.nodes.rows();
  s.jobs = live.jobs.rows();
  s.incarnations = live.incarnations.rows();
  s.matrix_slots = live.matrix_slots.rows();
  s.metrics = live.metrics.rows();
  s.spans = live.spans.rows();
  s.replicas = live.replicas.rows();
  s.timeseries = live.timeseries.rows();
  s.breaches = live.breaches.rows();
  return s;
}

std::string to_json(const StateSnapshot& s) {
  std::string out;
  out.reserve(4096 + 64 * (s.nodes.size() + s.jobs.size() + s.spans.size() +
                           s.matrix_slots.size() + s.metrics.size()));
  out += "{\n  \"schema\": \"";
  out += kStateSchema;
  out += "\",\n  \"meta\": {";
  const ClusterMeta& m = s.meta;
  out += "\"nodes\": " + std::to_string(m.nodes);
  out += ", \"pls_per_node\": " + std::to_string(m.pls_per_node);
  out += ", \"plane_mode\": ";
  put(out, m.plane_mode);
  out += ", \"scheduler\": ";
  esc(out, m.scheduler);
  out += ", \"quantum_ns\": " + std::to_string(m.quantum_ns);
  out += ", \"heartbeat_enabled\": ";
  put(out, m.heartbeat_enabled);
  out += ", \"heartbeat_miss_periods\": " +
         std::to_string(m.heartbeat_miss_periods);
  out += ", \"max_job_restarts\": " + std::to_string(m.max_job_restarts);
  out += ", \"seed\": " + std::to_string(m.seed);
  out += ", \"sim_ns\": " + std::to_string(m.sim_ns);
  out += ", \"mm_node\": " + std::to_string(m.mm_node);
  // Retired key, still written so storm.state.v1 stays byte-stable;
  // readers ignore it.
  out += ", \"standby_active\": false";
  out += ", \"hb_epoch\": " + std::to_string(m.hb_epoch);
  out += ", \"queued\": " + std::to_string(m.queued);
  out += ", \"completed\": " + std::to_string(m.completed);
  out += ", \"strobes\": " + std::to_string(m.strobes);
  out += ", \"matrix_rows\": " + std::to_string(m.matrix_rows);
  out += "},\n  \"tables\": {";

  bool first_table = true;
  {
    table_head(out, first_table, "nodes",
               {"node", "failed", "crashed", "evicted", "mm_failed", "epoch",
                "heartbeat", "strobe_row", "pl_mask", "pl_busy",
                "matrix_cells"});
    bool first = true;
    for (const NodeRow& r : s.nodes) {
      row(out, first, r.node, r.failed, r.crashed, r.evicted, r.mm_failed,
          r.epoch, r.heartbeat, r.strobe_row, r.pl_mask, r.pl_busy,
          r.matrix_cells);
    }
    table_tail(out, s.nodes.empty());
  }
  {
    table_head(out, first_table, "jobs",
               {"id", "name", "state", "npes", "binary_bytes", "pes_per_node",
                "row", "first_node", "node_count", "placed", "placement_row",
                "placement_first", "placement_count", "incarnation",
                "restarts", "submit_ns", "transfer_start_ns",
                "transfer_done_ns", "launch_issued_ns", "started_ns",
                "finished_ns", "last_requeue_ns", "first_proc_started_ns",
                "last_proc_exited_ns"});
    bool first = true;
    for (const JobRow& r : s.jobs) {
      row(out, first, r.id, r.name, core::to_string(r.state), r.npes,
          r.binary_bytes, r.pes_per_node, r.row, r.first_node, r.node_count,
          r.placed, r.placement_row, r.placement_first, r.placement_count,
          r.incarnation, r.restarts, r.submit_ns, r.transfer_start_ns,
          r.transfer_done_ns, r.launch_issued_ns, r.started_ns, r.finished_ns,
          r.last_requeue_ns, r.first_proc_started_ns, r.last_proc_exited_ns);
    }
    table_tail(out, s.jobs.empty());
  }
  {
    table_head(out, first_table, "incarnations",
               {"job", "inc", "current", "live", "trace"});
    bool first = true;
    for (const IncarnationRow& r : s.incarnations) {
      row(out, first, r.job, r.inc, r.current, r.live, r.trace);
    }
    table_tail(out, s.incarnations.empty());
  }
  {
    table_head(out, first_table, "matrix_slots", {"row", "node", "job"});
    bool first = true;
    for (const MatrixSlotRow& r : s.matrix_slots) {
      row(out, first, r.row, r.node, r.job);
    }
    table_tail(out, s.matrix_slots.empty());
  }
  {
    table_head(out, first_table, "metrics",
               {"name", "kind", "count", "value", "sum", "min", "max"});
    bool first = true;
    for (const MetricRow& r : s.metrics) {
      row(out, first, r.name, r.kind, r.count, r.value, r.sum, r.min, r.max);
    }
    table_tail(out, s.metrics.empty());
  }
  if (!s.replicas.empty()) {
    // Conditional on purpose: see the StateSnapshot field comment.
    table_head(out, first_table, "replicas",
               {"rank", "node", "role", "term", "commit", "applied",
                "log_size", "lease_ns", "floor_index", "floor_digest"});
    bool first = true;
    for (const ReplicaRow& r : s.replicas) {
      row(out, first, r.rank, r.node, r.role, r.term, r.commit, r.applied,
          r.log_size, r.lease_ns, r.floor_index, r.floor_digest);
    }
    table_tail(out, s.replicas.empty());
  }
  if (!s.timeseries.empty()) {
    // Conditional like `replicas`: only recorder-armed runs write it.
    table_head(out, first_table, "timeseries",
               {"window", "t_start_ns", "t_end_ns", "name", "kind", "delta",
                "value", "count", "sum", "p50", "p90", "p99"});
    bool first = true;
    for (const SeriesPointRow& r : s.timeseries) {
      row(out, first, r.window, r.t_start_ns, r.t_end_ns, r.name, r.kind,
          r.delta, r.value, r.count, r.sum, r.p50, r.p90, r.p99);
    }
    table_tail(out, s.timeseries.empty());
  }
  if (!s.breaches.empty()) {
    table_head(out, first_table, "breaches",
               {"rule", "metric", "window", "t_ns", "value", "threshold"});
    bool first = true;
    for (const BreachRow& r : s.breaches) {
      row(out, first, r.rule, r.metric, r.window, r.t_ns, r.value,
          r.threshold);
    }
    table_tail(out, s.breaches.empty());
  }
  {
    table_head(out, first_table, "spans",
               {"trace", "span", "parent", "t_start_ns", "t_end_ns", "node",
                "kind", "a", "b"});
    bool first = true;
    for (const SpanRow& r : s.spans) {
      row(out, first, r.trace, r.span, r.parent, r.t_start_ns, r.t_end_ns,
          r.node, r.kind, r.a, r.b);
    }
    table_tail(out, s.spans.empty());
  }

  out += "\n  }\n}\n";
  return out;
}

bool from_json(std::string_view text, StateSnapshot& out, std::string* err) {
  out = StateSnapshot{};
  json::Value doc;
  if (!json::parse(text, doc, err)) return false;
  const auto set_err = [&](const char* what) {
    if (err != nullptr) *err = what;
    return false;
  };
  if (!doc.is_object()) return set_err("not an object");
  const json::Value* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != kStateSchema) {
    return set_err("schema is not storm.state.v1");
  }
  const json::Value* meta = doc.find("meta");
  if (meta == nullptr || !meta->is_object()) return set_err("missing meta");
  {
    ClusterMeta& m = out.meta;
    const auto geti = [&](std::string_view k, auto& dst) {
      const json::Value* v = meta->find(k);
      return v != nullptr && cell_int(*v, dst);
    };
    const auto getb = [&](std::string_view k, bool& dst) {
      const json::Value* v = meta->find(k);
      return v != nullptr && cell_bool(*v, dst);
    };
    std::int64_t queued = 0;
    const json::Value* sched = meta->find("scheduler");
    const json::Value* seed = meta->find("seed");
    if (!geti("nodes", m.nodes) || !geti("pls_per_node", m.pls_per_node) ||
        !getb("plane_mode", m.plane_mode) || sched == nullptr ||
        !sched->is_string() || !geti("quantum_ns", m.quantum_ns) ||
        !getb("heartbeat_enabled", m.heartbeat_enabled) ||
        !geti("heartbeat_miss_periods", m.heartbeat_miss_periods) ||
        !geti("max_job_restarts", m.max_job_restarts) || seed == nullptr ||
        !seed->is_number() || !geti("sim_ns", m.sim_ns) ||
        !geti("mm_node", m.mm_node) ||
        !geti("hb_epoch", m.hb_epoch) || !geti("queued", queued) ||
        !geti("completed", m.completed) || !geti("strobes", m.strobes) ||
        !geti("matrix_rows", m.matrix_rows)) {
      return set_err("malformed meta");
    }
    m.scheduler = sched->string;
    m.seed = seed->as_uint();
    m.queued = queued;
  }
  const json::Value* tables = doc.find("tables");
  if (tables == nullptr || !tables->is_object()) {
    return set_err("missing tables");
  }

  bool ok = load_table(
      *tables, "nodes",
      {"node", "failed", "crashed", "evicted", "mm_failed", "epoch",
       "heartbeat", "strobe_row", "pl_mask", "pl_busy", "matrix_cells"},
      [&](const json::Array& c) {
        NodeRow r;
        if (!cell_int(c[0], r.node) || !cell_bool(c[1], r.failed) ||
            !cell_bool(c[2], r.crashed) || !cell_bool(c[3], r.evicted) ||
            !cell_bool(c[4], r.mm_failed) || !cell_int(c[5], r.epoch) ||
            !cell_int(c[6], r.heartbeat) || !cell_int(c[7], r.strobe_row) ||
            !cell_uint(c[8], r.pl_mask) || !cell_int(c[9], r.pl_busy) ||
            !cell_int(c[10], r.matrix_cells)) {
          return false;
        }
        out.nodes.push_back(std::move(r));
        return true;
      },
      err);
  ok = ok && load_table(
                 *tables, "jobs",
                 {"id", "name", "state", "npes", "binary_bytes",
                  "pes_per_node", "row", "first_node", "node_count", "placed",
                  "placement_row", "placement_first", "placement_count",
                  "incarnation", "restarts", "submit_ns", "transfer_start_ns",
                  "transfer_done_ns", "launch_issued_ns", "started_ns",
                  "finished_ns", "last_requeue_ns", "first_proc_started_ns",
                  "last_proc_exited_ns"},
                 [&](const json::Array& c) {
                   JobRow r;
                   std::string state;
                   if (!cell_int(c[0], r.id) || !cell_str(c[1], r.name) ||
                       !cell_str(c[2], state) ||
                       !job_state_from_string(state, r.state) ||
                       !cell_int(c[3], r.npes) ||
                       !cell_int(c[4], r.binary_bytes) ||
                       !cell_int(c[5], r.pes_per_node) ||
                       !cell_int(c[6], r.row) ||
                       !cell_int(c[7], r.first_node) ||
                       !cell_int(c[8], r.node_count) ||
                       !cell_bool(c[9], r.placed) ||
                       !cell_int(c[10], r.placement_row) ||
                       !cell_int(c[11], r.placement_first) ||
                       !cell_int(c[12], r.placement_count) ||
                       !cell_int(c[13], r.incarnation) ||
                       !cell_int(c[14], r.restarts) ||
                       !cell_int(c[15], r.submit_ns) ||
                       !cell_int(c[16], r.transfer_start_ns) ||
                       !cell_int(c[17], r.transfer_done_ns) ||
                       !cell_int(c[18], r.launch_issued_ns) ||
                       !cell_int(c[19], r.started_ns) ||
                       !cell_int(c[20], r.finished_ns) ||
                       !cell_int(c[21], r.last_requeue_ns) ||
                       !cell_int(c[22], r.first_proc_started_ns) ||
                       !cell_int(c[23], r.last_proc_exited_ns)) {
                     return false;
                   }
                   out.jobs.push_back(std::move(r));
                   return true;
                 },
                 err);
  ok = ok && load_table(*tables, "incarnations",
                        {"job", "inc", "current", "live", "trace"},
                        [&](const json::Array& c) {
                          IncarnationRow r;
                          if (!cell_int(c[0], r.job) ||
                              !cell_int(c[1], r.inc) ||
                              !cell_bool(c[2], r.current) ||
                              !cell_bool(c[3], r.live) ||
                              !cell_uint(c[4], r.trace)) {
                            return false;
                          }
                          out.incarnations.push_back(r);
                          return true;
                        },
                        err);
  ok = ok && load_table(*tables, "matrix_slots", {"row", "node", "job"},
                        [&](const json::Array& c) {
                          MatrixSlotRow r;
                          if (!cell_int(c[0], r.row) ||
                              !cell_int(c[1], r.node) ||
                              !cell_int(c[2], r.job)) {
                            return false;
                          }
                          out.matrix_slots.push_back(r);
                          return true;
                        },
                        err);
  ok = ok &&
       load_table(*tables, "metrics",
                  {"name", "kind", "count", "value", "sum", "min", "max"},
                  [&](const json::Array& c) {
                    MetricRow r;
                    if (!cell_str(c[0], r.name) || !cell_str(c[1], r.kind) ||
                        !cell_int(c[2], r.count) || !c[3].is_number() ||
                        !cell_int(c[4], r.sum) || !cell_int(c[5], r.min) ||
                        !cell_int(c[6], r.max)) {
                      return false;
                    }
                    r.value = c[3].as_double();
                    out.metrics.push_back(std::move(r));
                    return true;
                  },
                  err);
  // Optional table: written only by replication-enabled runs.
  if (ok && tables->find("replicas") != nullptr) {
    ok = load_table(*tables, "replicas",
                    {"rank", "node", "role", "term", "commit", "applied",
                     "log_size", "lease_ns", "floor_index", "floor_digest"},
                    [&](const json::Array& c) {
                      ReplicaRow r;
                      if (!cell_int(c[0], r.rank) ||
                          !cell_int(c[1], r.node) ||
                          !cell_str(c[2], r.role) ||
                          !cell_int(c[3], r.term) ||
                          !cell_int(c[4], r.commit) ||
                          !cell_int(c[5], r.applied) ||
                          !cell_int(c[6], r.log_size) ||
                          !cell_int(c[7], r.lease_ns) ||
                          !cell_int(c[8], r.floor_index) ||
                          !cell_uint(c[9], r.floor_digest)) {
                        return false;
                      }
                      out.replicas.push_back(std::move(r));
                      return true;
                    },
                    err);
  }
  // Optional tables: written only by recorder-armed runs (§3.7).
  if (ok && tables->find("timeseries") != nullptr) {
    ok = load_table(*tables, "timeseries",
                    {"window", "t_start_ns", "t_end_ns", "name", "kind",
                     "delta", "value", "count", "sum", "p50", "p90", "p99"},
                    [&](const json::Array& c) {
                      SeriesPointRow r;
                      if (!cell_int(c[0], r.window) ||
                          !cell_int(c[1], r.t_start_ns) ||
                          !cell_int(c[2], r.t_end_ns) ||
                          !cell_str(c[3], r.name) ||
                          !cell_str(c[4], r.kind) ||
                          !cell_int(c[5], r.delta) || !c[6].is_number() ||
                          !cell_int(c[7], r.count) ||
                          !cell_int(c[8], r.sum) || !c[9].is_number() ||
                          !c[10].is_number() || !c[11].is_number()) {
                        return false;
                      }
                      r.value = c[6].as_double();
                      r.p50 = c[9].as_double();
                      r.p90 = c[10].as_double();
                      r.p99 = c[11].as_double();
                      out.timeseries.push_back(std::move(r));
                      return true;
                    },
                    err);
  }
  if (ok && tables->find("breaches") != nullptr) {
    ok = load_table(*tables, "breaches",
                    {"rule", "metric", "window", "t_ns", "value", "threshold"},
                    [&](const json::Array& c) {
                      BreachRow r;
                      if (!cell_str(c[0], r.rule) ||
                          !cell_str(c[1], r.metric) ||
                          !cell_int(c[2], r.window) ||
                          !cell_int(c[3], r.t_ns) || !c[4].is_number() ||
                          !c[5].is_number()) {
                        return false;
                      }
                      r.value = c[4].as_double();
                      r.threshold = c[5].as_double();
                      out.breaches.push_back(std::move(r));
                      return true;
                    },
                    err);
  }
  ok = ok && load_table(*tables, "spans",
                        {"trace", "span", "parent", "t_start_ns", "t_end_ns",
                         "node", "kind", "a", "b"},
                        [&](const json::Array& c) {
                          SpanRow r;
                          if (!cell_uint(c[0], r.trace) ||
                              !cell_uint(c[1], r.span) ||
                              !cell_uint(c[2], r.parent) ||
                              !cell_int(c[3], r.t_start_ns) ||
                              !cell_int(c[4], r.t_end_ns) ||
                              !cell_int(c[5], r.node) ||
                              !cell_int(c[6], r.kind) ||
                              !cell_int(c[7], r.a) || !cell_int(c[8], r.b)) {
                            return false;
                          }
                          out.spans.push_back(r);
                          return true;
                        },
                        err);
  return ok;
}

std::string_view find_state_json(std::string_view text) {
  const std::string marker =
      "{\n  \"schema\": \"" + std::string(kStateSchema) + "\"";
  const std::size_t pos = text.rfind(marker);
  if (pos == std::string_view::npos) return {};
  return text.substr(pos);
}

}  // namespace storm::query
