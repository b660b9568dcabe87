// The Machine Manager (MM): one per cluster, on the management node.
//
// Owns resource allocation (buddy tree / Ousterhout matrix), global
// scheduling decisions (gang strobes or batch queue + backfilling),
// binary distribution, heartbeat-based fault detection, and — since
// the robustness work — the failure *recovery* policy: on a declared
// node death the MM evicts the node from every buddy tree, kills and
// (per policy) requeues the jobs spanning it, and re-strobes the
// surviving partition. Exactly as the paper describes, the MM "can
// issue commands and receive the notification of events only at the
// beginning of a timeslice": its main loop wakes once per quantum and
// performs all observation through COMPARE-AND-WRITE over the
// partitions' NIC-resident state.
//
// Under quorum replication (DESIGN §3.6) further MM instances run as
// passive replicas on other nodes. A replica adopts when its rank wins
// an election: it rebuilds its allocation state from the cluster-owned
// job table and resumes time-slicing.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "fabric/message.hpp"
#include "storm/ousterhout_matrix.hpp"
#include "storm/protocol.hpp"
#include "storm/replication/replication.hpp"

namespace storm::telemetry {
class Counter;
class Gauge;
class Histogram;
}

namespace storm::core {

class Cluster;

class MachineManager {
 public:
  /// `node` hosts the MM dæmon and its helper process; `standby`
  /// instances start passive and only begin scheduling after failover.
  MachineManager(Cluster& cluster, int node, bool standby = false);
  MachineManager(const MachineManager&) = delete;
  MachineManager& operator=(const MachineManager&) = delete;

  void start();

  /// Admit a freshly created job (the Cluster owns the job table).
  void enqueue(JobId id);

  Job& job(JobId id);
  const Job& job(JobId id) const;
  std::size_t job_count() const;

  /// True once every submitted job is terminal (Completed or Aborted).
  bool all_done() const;
  /// Jobs this MM has observed reaching a terminal state.
  int completed_count() const { return completed_; }
  std::size_t queued_count() const { return queue_.size(); }

  OusterhoutMatrix& matrix() { return *matrix_; }

  int node() const { return node_; }
  node::Proc& helper() { return *helper_; }

  /// Strobes issued so far (gang-scheduling diagnostics).
  std::int64_t strobes_issued() const { return strobes_; }

  /// Heartbeat epochs multicast so far — the reference value the query
  /// layer's heartbeat-lag invariant compares plane words against.
  std::int64_t heartbeat_epoch() const { return hb_epoch_; }

  // --- crash / failover --------------------------------------------------
  /// Kill the MM dæmon (its node may survive): in-flight boundary work
  /// is cancelled and the loop never wakes again.
  void crash();
  bool crashed() const { return crashed_; }

  /// Join a quorum-replication group as `rank` (called by the Cluster
  /// before start()). Every state-changing command then commits
  /// through the group before its effects are enacted, the boundary
  /// loop only runs while this rank holds the lease, and a standby
  /// instance adopts on the group's takeover trigger.
  void attach_replication(ReplicationGroup* group, int rank) {
    repl_ = group;
    repl_rank_ = rank;
  }

  /// Called by the Cluster when a crashed node comes back: restore it
  /// to the allocator if its death had been detected, or kill the
  /// suspect jobs spanning it after an undetected outage.
  void handle_node_recovered(int node);

  // --- fault detection ---------------------------------------------------
  using FailureCallback = std::function<void(int node, sim::SimTime when)>;
  void set_failure_callback(FailureCallback cb) { on_failure_ = std::move(cb); }
  /// Nodes declared dead, ascending. FileTransfer consults this to
  /// shrink a stalled multicast set to the survivors.
  const std::vector<int>& failed_nodes() const { return failed_; }

 private:
  // The TraceContext parameters carry the enclosing boundary/failover
  // span when tracing is enabled (invalid otherwise — zero cost).
  sim::Task<> run();
  sim::Task<> boundary_work();
  sim::Task<> transfer_binary(Job& job);
  sim::Task<> observe_jobs(fabric::TraceContext ctx);
  sim::Task<> issue_launches(fabric::TraceContext ctx);
  sim::Task<> allocate_queued();
  sim::Task<> strobe(fabric::TraceContext ctx = {});
  /// Commit one command through the replication group. Only called
  /// when replication is attached; false means this replica lost the
  /// lease and the caller must not enact the command.
  sim::Task<bool> commit_command(EntryKind kind, JobId job,
                                 std::int64_t args);
  sim::Task<> heartbeat_round(fabric::TraceContext ctx);
  /// Probe `range` with one GE-floor COMPARE-AND-WRITE; on failure
  /// bisect down to the failing node(s) and declare them, ascending.
  sim::Task<> verify_alive(net::NodeRange range, std::int64_t floor_epoch,
                           fabric::TraceContext ctx, std::vector<int>& fresh);
  net::NodeRange compute_nodes() const;

  // Recovery internals.
  sim::Task<> kill_job(Job& job);
  sim::Task<> handle_node_failures(const std::vector<int>& fresh);
  sim::Task<> node_rejoin(int node);
  void mark_terminal(Job& job, JobState st);

  // Replica adoption after an election win.
  sim::Task<> failover();

  Cluster& cluster_;
  int node_;
  bool standby_;
  bool crashed_ = false;
  ReplicationGroup* repl_ = nullptr;
  int repl_rank_ = 0;
  node::Proc* proc_ = nullptr;
  node::Proc* helper_ = nullptr;
  std::unique_ptr<OusterhoutMatrix> matrix_;

  std::deque<JobId> queue_;            // awaiting allocation
  std::vector<JobId> transferring_;    // binary en route
  std::vector<JobId> ready_;           // awaiting launch slot
  std::vector<JobId> launching_;       // waiting for all-forked
  std::vector<JobId> running_;         // waiting for all-exited
  std::vector<bool> transfer_flag_;    // transfer task -> MM loop

  int completed_ = 0;
  std::int64_t slice_ = 0;
  std::int64_t strobes_ = 0;

  std::int64_t hb_epoch_ = 0;
  std::vector<int> failed_;  // kept sorted ascending
  FailureCallback on_failure_;

  // Telemetry instruments (owned by the cluster registry; resolved
  // once in the constructor so the per-boundary path never does a
  // name lookup).
  telemetry::Histogram* mt_boundary_ = nullptr;  // mm.boundary_ns
  telemetry::Counter* mt_strobes_ = nullptr;     // mm.strobes
  telemetry::Counter* mt_launches_ = nullptr;    // mm.launches
  telemetry::Counter* mt_completed_ = nullptr;   // mm.jobs.completed
  telemetry::Counter* mt_heartbeats_ = nullptr;  // mm.heartbeat.rounds
  // Lazily resolved on the first vectorized suspect sweep: heartbeats
  // are off in the pinned figures, and the registry serialises every
  // registered series (eager registration would change --metrics).
  telemetry::Counter* mt_hb_sweeps_ = nullptr;   // mm.heartbeat.sweeps
  telemetry::Gauge* mt_occupancy_ = nullptr;     // mm.matrix.occupancy
  telemetry::Gauge* mt_free_slots_ = nullptr;    // mm.matrix.free_node_slots

  // Recovery / failover instruments.
  telemetry::Counter* mt_kills_ = nullptr;       // mm.recovery.kills
  telemetry::Counter* mt_requeues_ = nullptr;    // mm.recovery.requeues
  telemetry::Counter* mt_aborts_ = nullptr;      // mm.recovery.aborts
  telemetry::Counter* mt_evictions_ = nullptr;   // mm.recovery.evictions
  telemetry::Counter* mt_rejoins_ = nullptr;     // mm.recovery.rejoins
  telemetry::Histogram* mt_requeue_run_ = nullptr;  // mm.recovery.requeue_to_run_ns
  telemetry::Counter* mt_fo_count_ = nullptr;    // mm.failover.count
  telemetry::Histogram* mt_fo_gap_ = nullptr;    // mm.failover.gap_ns
  telemetry::Histogram* mt_fo_resume_ = nullptr; // mm.failover.resume_ns
};

}  // namespace storm::core
