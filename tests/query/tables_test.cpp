// Live tables against cluster ground truth, and the zero-copy
// contract: a Relation built once keeps seeing the cluster's current
// state on every re-scan.
#include <gtest/gtest.h>

#include <vector>

#include "query/tables.hpp"
#include "sim/simulator.hpp"
#include "storm/cluster.hpp"
#include "storm/machine_manager.hpp"
#include "telemetry/tracing.hpp"

namespace storm::query {
namespace {

using namespace storm::sim::time_literals;
using namespace storm::sim::byte_literals;
using sim::SimTime;
using sim::Task;

core::AppProgram compute_program(SimTime work) {
  return [work](core::AppContext& ctx) -> Task<> {
    co_await ctx.compute(work);
  };
}

TEST(Tables, MetaMatchesConfig) {
  sim::Simulator sim;
  core::ClusterConfig cfg = core::ClusterConfig::es40(16);
  cfg.storm.quantum = 10_ms;
  core::Cluster cluster(sim, cfg);
  const ClusterMeta m = live_meta(cluster);
  EXPECT_EQ(m.nodes, 16);
  EXPECT_EQ(m.pls_per_node, cluster.pls_per_node());
  EXPECT_FALSE(m.plane_mode);
  EXPECT_EQ(m.scheduler, "gang");
  EXPECT_EQ(m.quantum_ns, (10_ms).raw_ns());
  EXPECT_EQ(m.seed, cfg.seed);
  EXPECT_EQ(m.mm_node, 0);
  EXPECT_EQ(m.queued, 0);
  EXPECT_EQ(m.completed, 0);
}

TEST(Tables, NodeTableCoversEveryNode) {
  sim::Simulator sim;
  core::Cluster cluster(sim, core::ClusterConfig::es40(8));
  const TableSet t = live_tables(cluster);
  EXPECT_EQ(t.nodes.count(), 8u);
  int expect = 0;
  t.nodes.for_each([&](const NodeRow& n) {
    EXPECT_EQ(n.node, expect++);  // scan order: node id
    EXPECT_FALSE(n.failed);
    EXPECT_EQ(n.pl_busy, 0);
    EXPECT_EQ(n.matrix_cells, 0);
  });
}

TEST(Tables, JobLifecycleAndMatrixPlacement) {
  sim::Simulator sim;
  core::ClusterConfig cfg = core::ClusterConfig::es40(8);
  cfg.storm.quantum = 10_ms;
  core::Cluster cluster(sim, cfg);
  const core::JobId id = cluster.submit({.name = "work",
                                         .binary_size = 1_MB,
                                         .npes = 16,  // 4 nodes
                                         .program = compute_program(1_sec)});
  sim.run(500_ms);  // mid-run: transferring done, job on CPUs

  const TableSet t = live_tables(cluster);
  const auto jrow = t.jobs.first();
  ASSERT_TRUE(jrow.has_value());
  EXPECT_EQ(jrow->id, id);
  EXPECT_EQ(jrow->name, "work");
  EXPECT_TRUE(occupies_resources(jrow->state));
  ASSERT_TRUE(jrow->placed);
  EXPECT_EQ(jrow->node_count, 4);
  // Job-recorded allocation and matrix placement agree.
  EXPECT_EQ(jrow->placement_row, jrow->row);
  EXPECT_EQ(jrow->placement_first, jrow->first_node);
  EXPECT_EQ(jrow->placement_count, jrow->node_count);
  // The matrix_slots table holds exactly the placement's cells.
  EXPECT_EQ(t.matrix_slots.count(), 4u);
  t.matrix_slots.for_each([&](const MatrixSlotRow& s) {
    EXPECT_EQ(s.job, id);
    EXPECT_EQ(s.row, jrow->placement_row);
    EXPECT_GE(s.node, jrow->placement_first);
    EXPECT_LT(s.node, jrow->placement_first + jrow->placement_count);
  });
  // Node rows see the same occupancy from the plane side.
  const std::size_t owning = t.nodes.count(
      [](const NodeRow& n) { return n.matrix_cells > 0; });
  EXPECT_EQ(owning, 4u);

  ASSERT_TRUE(cluster.run_until_all_complete(60_sec));
  // Same TableSet, rescanned: the relations are zero-copy views, so
  // the completed state is visible without rebuilding them.
  const auto done = t.jobs.first();
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->state, core::JobState::Completed);
  EXPECT_FALSE(done->placed);
  EXPECT_EQ(t.matrix_slots.count(), 0u);
  EXPECT_GT(done->finished_ns, done->started_ns);
  // meta is a value snapshot, NOT live — rebuild to refresh.
  EXPECT_EQ(t.meta.completed, 0);
  EXPECT_EQ(live_meta(cluster).completed, 1);
}

TEST(Tables, CrashedNodeShowsAllFlags) {
  sim::Simulator sim;
  core::ClusterConfig cfg = core::ClusterConfig::es40(16);
  cfg.storm.quantum = 10_ms;
  cfg.storm.heartbeat_enabled = true;
  cfg.storm.heartbeat_period_quanta = 5;
  core::Cluster cluster(sim, cfg);
  sim.run(200_ms);
  cluster.crash_node(9);
  sim.run(1_sec);  // heartbeat slack passes; MM declares the death

  const TableSet t = live_tables(cluster);
  const auto nine = t.nodes
                        .where([](const NodeRow& n) { return n.node == 9; })
                        .first();
  ASSERT_TRUE(nine.has_value());
  EXPECT_TRUE(nine->failed);     // plane ground truth
  EXPECT_TRUE(nine->crashed);    // crash model
  EXPECT_TRUE(nine->mm_failed);  // declared by the MM
  EXPECT_TRUE(nine->evicted);    // removed from the buddy trees
  EXPECT_EQ(nine->pl_busy, 0);
  EXPECT_EQ(t.nodes.count([](const NodeRow& n) { return n.failed; }), 1u);
}

TEST(Tables, IncarnationsTrackRequeues) {
  sim::Simulator sim;
  core::ClusterConfig cfg = core::ClusterConfig::es40(16);
  cfg.storm.quantum = 10_ms;
  cfg.storm.heartbeat_enabled = true;
  cfg.storm.heartbeat_period_quanta = 5;
  core::Cluster cluster(sim, cfg);
  const core::JobId id = cluster.submit({.name = "victim",
                                         .binary_size = 1_MB,
                                         .npes = 32,  // 8 nodes: 0-7
                                         .program = compute_program(2_sec)});
  sim.run(500_ms);
  ASSERT_TRUE(cluster.job(id).state() == core::JobState::Running);
  // Crash inside the allocation, but never the MM's own node.
  const net::NodeRange alloc = cluster.job(id).nodes();
  const int victim = alloc.contains(0) ? alloc.last() : alloc.first;
  cluster.crash_node(victim);
  ASSERT_TRUE(cluster.run_until_all_complete(600_sec));

  const TableSet t = live_tables(cluster);
  const auto j = t.jobs.first();
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->restarts, 1);
  EXPECT_EQ(j->incarnation, 1);
  // One row per incarnation; only the last is current, none live
  // (the job is terminal).
  EXPECT_EQ(t.incarnations.count(), 2u);
  t.incarnations.for_each([&](const IncarnationRow& i) {
    EXPECT_EQ(i.job, id);
    EXPECT_EQ(i.current, i.inc == 1);
    EXPECT_FALSE(i.live);
    EXPECT_EQ(i.trace, telemetry::job_trace_id(static_cast<int>(i.job),
                                               i.inc));
  });
}

TEST(Tables, MetricsAndSpansTables) {
  sim::Simulator sim;
  core::ClusterConfig cfg = core::ClusterConfig::es40(8);
  core::Cluster cluster(sim, cfg);
  cluster.enable_fabric_metrics();
  cluster.enable_tracing();
  cluster.submit({.name = "noop", .binary_size = 1_MB, .npes = 8});
  ASSERT_TRUE(cluster.run_until_all_complete(60_sec));

  const TableSet t = live_tables(cluster);
  EXPECT_GT(t.metrics.count(), 0u);
  // Registry scan order: name-sorted within each kind; all kinds typed.
  t.metrics.for_each([&](const MetricRow& m) {
    EXPECT_TRUE(m.kind == "counter" || m.kind == "gauge" ||
                m.kind == "histogram")
        << m.name;
  });
  EXPECT_TRUE(t.metrics.any([](const MetricRow& m) {
    return m.kind == "counter" && m.name == "fabric.launch.wire_ops" &&
           m.count > 0;
  }));
  EXPECT_GT(t.spans.count(), 0u);
  // Spans scan in buffer (id) order; closed spans have an end.
  t.spans.for_each([&](const SpanRow& s) {
    if (!s.open()) {
      EXPECT_GE(s.t_end_ns, s.t_start_ns);
    }
  });
}

TEST(Tables, SpansEmptyWithoutTracer) {
  sim::Simulator sim;
  core::Cluster cluster(sim, core::ClusterConfig::es40(4));
  const TableSet t = live_tables(cluster);
  EXPECT_EQ(t.spans.count(), 0u);
}

}  // namespace
}  // namespace storm::query
