#include "query/tables.hpp"

#include <algorithm>

#include "net/qsnet.hpp"
#include "storm/cluster.hpp"
#include "storm/machine_manager.hpp"
#include "storm/protocol.hpp"
#include "storm/replication/replication.hpp"
#include "telemetry/timeseries.hpp"
#include "telemetry/tracing.hpp"

namespace storm::query {
namespace {

NodeRow node_row(core::Cluster& c, int n) {
  const net::NodeStatePlane& plane = c.network().plane();
  core::MachineManager& mm = c.mm();
  const core::OusterhoutMatrix& matrix = mm.matrix();
  NodeRow r;
  r.node = n;
  r.failed = plane.failed(n);
  r.crashed = c.node_crashed(n);
  r.evicted = matrix.evicted(n);
  const auto& dead = mm.failed_nodes();  // sorted ascending
  r.mm_failed = std::binary_search(dead.begin(), dead.end(), n);
  r.epoch = c.node_epoch(n);
  r.heartbeat = plane.word(n, core::kHeartbeatAddr);
  r.strobe_row = plane.word(n, core::kStrobeRowAddr);
  r.pl_mask = plane.pl_mask(n);
  r.pl_busy = __builtin_popcountll(r.pl_mask);
  int cells = 0;
  for (int row = 0; row < matrix.rows(); ++row) {
    if (matrix.cell_job(row, n) != core::kInvalidJob) ++cells;
  }
  r.matrix_cells = cells;
  return r;
}

JobRow job_row(core::Cluster& c, core::JobId id) {
  const core::Job& j = c.job(id);
  JobRow r;
  r.id = id;
  r.name = j.spec().name;
  r.state = j.state();
  r.npes = j.spec().npes;
  r.binary_bytes = static_cast<std::int64_t>(j.spec().binary_size);
  r.pes_per_node = j.pes_per_node();
  r.row = j.row();
  r.first_node = j.nodes().first;
  r.node_count = j.nodes().count;
  if (const auto p = c.mm().matrix().placement(id)) {
    r.placed = true;
    r.placement_row = p->first;
    r.placement_first = p->second.first;
    r.placement_count = p->second.count;
  }
  r.incarnation = j.incarnation();
  r.restarts = j.restarts();
  const core::JobTimes& t = j.times();
  r.submit_ns = t.submit.raw_ns();
  r.transfer_start_ns = t.transfer_start.raw_ns();
  r.transfer_done_ns = t.transfer_done.raw_ns();
  r.launch_issued_ns = t.launch_issued.raw_ns();
  r.started_ns = t.started.raw_ns();
  r.finished_ns = t.finished.raw_ns();
  r.last_requeue_ns = t.last_requeue.raw_ns();
  r.first_proc_started_ns = t.first_proc_started.raw_ns();
  r.last_proc_exited_ns = t.last_proc_exited.raw_ns();
  return r;
}

}  // namespace

ClusterMeta live_meta(core::Cluster& cluster) {
  const core::ClusterConfig& cfg = cluster.config();
  core::MachineManager& mm = cluster.mm();
  ClusterMeta m;
  m.nodes = cfg.nodes;
  m.pls_per_node = cluster.pls_per_node();
  m.plane_mode = cfg.plane_mode;
  m.scheduler = std::string(core::to_string(cfg.storm.scheduler));
  m.quantum_ns = cfg.storm.quantum.raw_ns();
  m.heartbeat_enabled = cfg.storm.heartbeat_enabled;
  m.heartbeat_miss_periods = cfg.storm.heartbeat_miss_periods;
  m.max_job_restarts = cfg.storm.max_job_restarts;
  m.seed = cfg.seed;
  m.sim_ns = cluster.sim().now().raw_ns();
  m.mm_node = mm.node();
  m.hb_epoch = mm.heartbeat_epoch();
  m.queued = static_cast<std::int64_t>(mm.queued_count());
  m.completed = mm.completed_count();
  m.strobes = mm.strobes_issued();
  m.matrix_rows = mm.matrix().rows();
  return m;
}

TableSet live_tables(core::Cluster& cluster) {
  core::Cluster* c = &cluster;
  TableSet t;
  t.meta = live_meta(cluster);

  t.nodes = Relation<NodeRow>([c](const Relation<NodeRow>::Visit& v) {
    const int n = c->config().nodes;
    for (int i = 0; i < n; ++i) {
      if (!v(node_row(*c, i))) return;
    }
  });

  t.jobs = Relation<JobRow>([c](const Relation<JobRow>::Visit& v) {
    const int n = static_cast<int>(c->job_count());
    for (core::JobId id = 0; id < n; ++id) {
      if (!v(job_row(*c, id))) return;
    }
  });

  t.incarnations =
      Relation<IncarnationRow>([c](const Relation<IncarnationRow>::Visit& v) {
        const int n = static_cast<int>(c->job_count());
        for (core::JobId id = 0; id < n; ++id) {
          const core::Job& j = c->job(id);
          for (int inc = 0; inc <= j.incarnation(); ++inc) {
            IncarnationRow r;
            r.job = id;
            r.inc = inc;
            r.current = inc == j.incarnation();
            r.live = r.current && occupies_resources(j.state());
            r.trace = telemetry::job_trace_id(id, inc);
            if (!v(r)) return;
          }
        }
      });

  t.matrix_slots =
      Relation<MatrixSlotRow>([c](const Relation<MatrixSlotRow>::Visit& v) {
        const core::OusterhoutMatrix& m = c->mm().matrix();
        for (int row = 0; row < m.rows(); ++row) {
          for (int node = 0; node < m.nodes(); ++node) {
            const core::JobId j = m.cell_job(row, node);
            if (j == core::kInvalidJob) continue;
            if (!v(MatrixSlotRow{row, node, j})) return;
          }
        }
      });

  t.metrics = Relation<MetricRow>([c](const Relation<MetricRow>::Visit& v) {
    const telemetry::MetricsRegistry& reg = c->metrics();
    bool go = true;
    reg.for_each_counter(
        [&](const std::string& name, const telemetry::Counter& m) {
          if (!go) return;
          MetricRow r;
          r.name = name;
          r.kind = "counter";
          r.count = m.value();
          go = v(r);
        });
    if (!go) return;
    reg.for_each_gauge([&](const std::string& name,
                           const telemetry::Gauge& m) {
      if (!go) return;
      MetricRow r;
      r.name = name;
      r.kind = "gauge";
      r.value = m.value();
      go = v(r);
    });
    if (!go) return;
    reg.for_each_histogram(
        [&](const std::string& name, const telemetry::Histogram& m) {
          if (!go) return;
          MetricRow r;
          r.name = name;
          r.kind = "histogram";
          r.count = m.count();
          r.sum = m.sum();
          r.min = m.min();
          r.max = m.max();
          go = v(r);
        });
  });

  t.replicas =
      Relation<ReplicaRow>([c](const Relation<ReplicaRow>::Visit& v) {
        const core::ReplicationGroup* g = c->replication();
        if (g == nullptr) return;  // replication disabled: empty table
        for (const core::ReplicaStatus& s : g->status()) {
          ReplicaRow r;
          r.rank = s.rank;
          r.node = s.node;
          r.role = std::string(core::to_string(s.role));
          r.term = s.term;
          r.commit = s.commit;
          r.applied = s.applied;
          r.log_size = s.log_size;
          r.lease_ns = s.lease_ns;
          r.floor_index = s.floor_index;
          r.floor_digest = s.floor_digest;
          if (!v(r)) return;
        }
      });

  t.timeseries =
      Relation<SeriesPointRow>([c](const Relation<SeriesPointRow>::Visit& v) {
        const telemetry::TimeSeriesRecorder* rec = c->timeseries();
        if (rec == nullptr) return;  // recorder off: empty table
        const telemetry::TimeSeriesStore s = rec->snapshot();
        s.visit_points([&](const telemetry::TimeSeriesStore::PointView& pv) {
          SeriesPointRow r;
          r.window = pv.window;
          r.t_start_ns = pv.t_start_ns;
          r.t_end_ns = pv.t_end_ns;
          r.name = *pv.name;
          r.kind = std::string(telemetry::to_string(pv.kind));
          switch (pv.kind) {
            case telemetry::SeriesKind::Counter:
              r.delta = pv.point->delta;
              r.value = pv.rate();
              break;
            case telemetry::SeriesKind::Gauge:
              r.value = pv.point->value;
              break;
            case telemetry::SeriesKind::Histogram:
              r.count = pv.point->count;
              r.sum = pv.point->sum;
              r.p50 = pv.point->quantile(0.50);
              r.p90 = pv.point->quantile(0.90);
              r.p99 = pv.point->quantile(0.99);
              break;
          }
          return v(r);
        });
      });

  t.breaches = Relation<BreachRow>([c](const Relation<BreachRow>::Visit& v) {
    const telemetry::TimeSeriesRecorder* rec = c->timeseries();
    if (rec == nullptr) return;
    const telemetry::TimeSeriesStore s = rec->snapshot();
    for (const telemetry::WatchdogBreach& b : s.breaches) {
      if (!v(BreachRow{b.rule, b.metric, b.window, b.t_ns, b.value,
                       b.threshold})) {
        return;
      }
    }
  });

  t.spans = Relation<SpanRow>([c](const Relation<SpanRow>::Visit& v) {
    const telemetry::CausalTracer* tracer = c->tracer();
    if (tracer == nullptr) return;
    for (const telemetry::SpanRecord& s : tracer->buffer().spans()) {
      SpanRow r;
      r.trace = s.trace;
      r.span = s.span;
      r.parent = s.parent;
      r.t_start_ns = s.t_start_ns;
      r.t_end_ns = s.t_end_ns;
      r.node = s.node;
      r.kind = s.kind;
      r.a = s.a;
      r.b = s.b;
      if (!v(r)) return;
    }
  });

  return t;
}

}  // namespace storm::query
