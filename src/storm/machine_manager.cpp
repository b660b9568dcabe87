#include "storm/machine_manager.hpp"

#include <algorithm>
#include <cassert>

#include "storm/batch_scheduler.hpp"
#include "storm/cluster.hpp"
#include "storm/file_transfer.hpp"
#include "storm/node_manager.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/tracing.hpp"

namespace storm::core {

using fabric::Component;
using fabric::ControlMessage;
using mech::kNoWrite;
using net::Compare;
using net::NodeRange;
using sim::SimTime;
using sim::Task;
using telemetry::SpanKind;
using telemetry::TraceSpan;

MachineManager::MachineManager(Cluster& cluster, int node, bool standby)
    : cluster_(cluster), node_(node), standby_(standby) {
  const auto& cfg = cluster_.config();
  assert(node >= 0 && node < cfg.nodes);
  assert(BuddyAllocator::is_pow2(cfg.nodes) &&
         "the buddy allocator requires a power-of-two node count");
  const bool time_shared = cfg.storm.scheduler == SchedulerKind::Gang ||
                           is_locally_scheduled(cfg.storm.scheduler);
  const int rows = time_shared ? cfg.storm.max_mpl : 1;
  matrix_ = std::make_unique<OusterhoutMatrix>(cfg.nodes, rows);

  // The MM's host helper: the "lightweight process running on the
  // host, which services TLB misses and performs file accesses on
  // behalf of the NIC" (Section 3.3.1). It gets its own CPU where the
  // node has more than one, so that under normal conditions it only
  // contends with co-located application PEs (the NM on the last CPU
  // is busy writing fragments during a transfer).
  const int helper_cpu = cfg.cpus_per_node >= 2 ? cfg.cpus_per_node - 2 : 0;
  auto& os = cluster_.machine(node_).os();
  helper_ = &os.create(standby ? "mm-helper.standby" : "mm-helper", helper_cpu);
  proc_ = &os.create(standby ? "mm.standby" : "mm", cfg.cpus_per_node - 1);

  telemetry::MetricsRegistry& m = cluster_.metrics();
  mt_boundary_ = &m.histogram("mm.boundary_ns");
  mt_strobes_ = &m.counter("mm.strobes");
  mt_launches_ = &m.counter("mm.launches");
  mt_completed_ = &m.counter("mm.jobs.completed");
  mt_heartbeats_ = &m.counter("mm.heartbeat.rounds");
  mt_occupancy_ = &m.gauge("mm.matrix.occupancy");
  mt_free_slots_ = &m.gauge("mm.matrix.free_node_slots");
  mt_kills_ = &m.counter("mm.recovery.kills");
  mt_requeues_ = &m.counter("mm.recovery.requeues");
  mt_aborts_ = &m.counter("mm.recovery.aborts");
  mt_evictions_ = &m.counter("mm.recovery.evictions");
  mt_rejoins_ = &m.counter("mm.recovery.rejoins");
  mt_requeue_run_ = &m.histogram("mm.recovery.requeue_to_run_ns");
  mt_fo_count_ = &m.counter("mm.failover.count");
  mt_fo_gap_ = &m.histogram("mm.failover.gap_ns");
  mt_fo_resume_ = &m.histogram("mm.failover.resume_ns");
}

void MachineManager::start() { cluster_.sim().spawn(run()); }

void MachineManager::enqueue(JobId id) {
  if (static_cast<std::size_t>(id) >= transfer_flag_.size()) {
    transfer_flag_.resize(static_cast<std::size_t>(id) + 1, false);
  }
  queue_.push_back(id);
}

Job& MachineManager::job(JobId id) { return cluster_.job(id); }
const Job& MachineManager::job(JobId id) const { return cluster_.job(id); }
std::size_t MachineManager::job_count() const { return cluster_.job_count(); }

bool MachineManager::all_done() const { return cluster_.all_jobs_terminal(); }

void MachineManager::crash() {
  if (crashed_) return;
  crashed_ = true;
  proc_->cancel_work();
  helper_->cancel_work();
}

NodeRange MachineManager::compute_nodes() const {
  return NodeRange{0, cluster_.config().nodes};
}

Task<> MachineManager::run() {
  const SimTime q = cluster_.config().storm.quantum;
  if (standby_) {
    // Adopt the instant this rank wins its term-bumped election.
    co_await repl_->takeover(repl_rank_).wait();
    if (crashed_) co_return;
    co_await failover();
  }
  for (;;) {
    if (crashed_) co_return;
    // A replica without the lease issues nothing: a deposed or
    // partitioned leader falls silent here while the quorum side
    // carries on.
    if (repl_ == nullptr || repl_->may_lead(repl_rank_)) {
      co_await boundary_work();
      if (crashed_) co_return;
    }
    // Sleep to the next boundary on the absolute quantum grid (the
    // boundary work itself takes time; never drift).
    const SimTime now = cluster_.sim().now();
    const std::int64_t k = now / q + 1;
    co_await cluster_.sim().delay(q * k - now);
  }
}

Task<bool> MachineManager::commit_command(EntryKind kind, JobId job_id,
                                          std::int64_t args) {
  co_return co_await repl_->replicate(repl_rank_, kind, job_id, args);
}

void MachineManager::mark_terminal(Job& j, JobState st) {
  j.set_state(st);
  j.times().finished = cluster_.sim().now();
  if (telemetry::CausalTracer* tr = cluster_.tracer()) {
    tr->close_job(j.id(), j.incarnation());
  }
  ++completed_;
}

Task<> MachineManager::failover() {
  const SimTime t_detect = cluster_.sim().now();
  mt_fo_count_->add(1);
  // The gap runs from the old leader's last renewal the group heard to
  // this rank's election win.
  mt_fo_gap_->record(repl_->last_failover_gap());
  TraceSpan fo_span;
  if (telemetry::CausalTracer* tr = cluster_.tracer()) {
    fo_span = tr->begin(SpanKind::MmFailover, node_, {});
  }
  cluster_.fabric().note(Component::MM, node_, ControlMessage::generic(),
                         fo_span.context());

  // Rebuild the scheduling state from the cluster-owned job table:
  // adopt Running jobs at their recorded allocation, requeue Queued
  // ones, and kill anything whose in-flight protocol state (transfer
  // pipeline, launch conditionals) died with the primary.
  co_await proc_->compute(cluster_.config().storm.mm_boundary_cost);
  transfer_flag_.assign(cluster_.job_count(), false);
  // The rebuild below re-adds every Queued job from the job table; any
  // submission that raced into our queue while we were passive would
  // otherwise be allocated twice.
  queue_.clear();
  for (JobId id = 0; id < static_cast<JobId>(cluster_.job_count()); ++id) {
    Job& j = cluster_.job(id);
    switch (j.state()) {
      case JobState::Completed:
      case JobState::Aborted:
        ++completed_;
        break;
      case JobState::Queued:
        queue_.push_back(id);
        break;
      case JobState::Running:
        if (matrix_->place_at(id, j.row(), j.nodes())) {
          running_.push_back(id);
        } else {
          co_await kill_job(j);
        }
        break;
      default:  // Transferring / Ready / Launching
        co_await kill_job(j);
        break;
    }
  }
  // Log the adoption itself: followers learn the schedule changed
  // hands, and the entry's commit proves this replica still holds the
  // lease it won.
  (void)co_await commit_command(EntryKind::Sched, 0, slice_);
  if (crashed_) co_return;
  co_await strobe(fo_span.context());
  mt_fo_resume_->record(cluster_.sim().now() - t_detect);
}

Task<> MachineManager::boundary_work() {
  const StormParams& sp = cluster_.config().storm;
  telemetry::Span span(cluster_.sim(), *mt_boundary_);
  TraceSpan tspan;
  if (telemetry::CausalTracer* tr = cluster_.tracer()) {
    tspan = tr->begin(SpanKind::MmBoundary, node_, {}, slice_);
  }
  co_await proc_->compute(sp.mm_boundary_cost);
  if (crashed_) co_return;
  co_await observe_jobs(tspan.context());
  if (crashed_) co_return;
  co_await allocate_queued();
  if (crashed_) co_return;
  co_await issue_launches(tspan.context());
  if (crashed_) co_return;
  co_await strobe(tspan.context());
  if (crashed_) co_return;
  if (sp.heartbeat_enabled && slice_ % sp.heartbeat_period_quanta == 0) {
    co_await heartbeat_round(tspan.context());
  }
  ++slice_;
  mt_occupancy_->set(matrix_->occupancy());
  mt_free_slots_->set(static_cast<double>(matrix_->free_node_slots()));
}

Task<> MachineManager::observe_jobs(fabric::TraceContext ctx) {
  (void)ctx;  // observation spans live in each job's own trace
  auto& fab = cluster_.fabric();
  telemetry::CausalTracer* tr = cluster_.tracer();
  const SimTime now = cluster_.sim().now();

  auto observe_running = [&](Job& j) {
    j.set_state(JobState::Running);
    j.times().started = cluster_.sim().now();
    if (j.times().last_requeue != SimTime::zero()) {
      // The replacement incarnation of a killed-and-requeued job is
      // back on CPUs: close the recovery-latency measurement.
      mt_requeue_run_->record(cluster_.sim().now() - j.times().last_requeue);
      j.times().last_requeue = SimTime::zero();
    }
  };

  // Terminations first: they free resources for this boundary's
  // allocation pass.
  for (auto it = running_.begin(); it != running_.end();) {
    if (crashed_) co_return;
    Job& j = job(*it);
    TraceSpan span;
    if (tr != nullptr) {
      span = tr->begin(SpanKind::MmObserve, node_,
                       tr->job_root(j.id(), j.incarnation(), node_), j.id());
    }
    const bool done = co_await fab.compare_and_write(
        Component::MM, ControlMessage::termination_report(j.id()), node_,
        j.nodes(), addr_done(j.id(), j.incarnation()), Compare::EQ, 1,
        kNoWrite, 0, span.context());
    if (done) {
      mark_terminal(j, JobState::Completed);
      matrix_->remove(j.id());
      mt_completed_->add(1);
      fab.note(Component::MM, node_,
               ControlMessage::termination_report(j.id()), span.context());
      it = running_.erase(it);
    } else {
      ++it;
    }
  }

  for (auto it = launching_.begin(); it != launching_.end();) {
    if (crashed_) co_return;
    Job& j = job(*it);
    TraceSpan span;
    if (tr != nullptr) {
      span = tr->begin(SpanKind::MmObserve, node_,
                       tr->job_root(j.id(), j.incarnation(), node_), j.id());
    }
    const bool started = co_await fab.compare_and_write(
        Component::MM, ControlMessage::launch_report(j.id()), node_, j.nodes(),
        addr_launched(j.id(), j.incarnation()), Compare::EQ, 1, kNoWrite, 0,
        span.context());
    if (started) {
      observe_running(j);
      // A short job may have forked *and* exited inside one quantum
      // (the do-nothing launch benchmarks always do): check
      // termination in the same boundary rather than waiting another
      // full timeslice.
      const bool done = co_await fab.compare_and_write(
          Component::MM, ControlMessage::termination_report(j.id()), node_,
          j.nodes(), addr_done(j.id(), j.incarnation()), Compare::EQ, 1,
          kNoWrite, 0, span.context());
      if (done) {
        mark_terminal(j, JobState::Completed);
        matrix_->remove(j.id());
        mt_completed_->add(1);
      } else {
        running_.push_back(*it);
      }
      it = launching_.erase(it);
    } else {
      ++it;
    }
  }

  for (auto it = transferring_.begin(); it != transferring_.end();) {
    Job& j = job(*it);
    if (transfer_flag_[j.id()]) {
      j.set_state(JobState::Ready);
      j.times().transfer_done = now;
      ready_.push_back(*it);
      it = transferring_.erase(it);
    } else {
      ++it;
    }
  }
  co_return;
}

Task<> MachineManager::allocate_queued() {
  const auto& cfg = cluster_.config();
  const StormParams& sp = cfg.storm;
  if (queue_.empty()) co_return;

  // Which queued jobs should start now?
  std::vector<JobId> to_start;
  if (sp.scheduler == SchedulerKind::Gang ||
      is_locally_scheduled(sp.scheduler)) {
    // Greedy in submission order: any job the matrix can host starts.
    for (const JobId id : queue_) {
      to_start.push_back(id);
    }
  } else {
    std::vector<QueuedJobInfo> q;
    for (const JobId id : queue_) {
      const Job& j = job(id);
      const int nodes_needed = (j.spec().npes + cfg.app_cpus_per_node - 1) /
                               cfg.app_cpus_per_node;
      q.push_back(QueuedJobInfo{id, BuddyAllocator::round_up_pow2(nodes_needed),
                                j.spec().estimated_runtime});
    }
    const SimTime now = cluster_.sim().now();
    auto make_running_info = [&](JobId id) {
      const Job& j = job(id);
      const SimTime base = j.state() == JobState::Running &&
                                   j.times().started > SimTime::zero()
                               ? j.times().started
                               : now;
      return RunningJobInfo{j.nodes().count, base + j.spec().estimated_runtime};
    };
    std::vector<RunningJobInfo> r;
    for (const JobId id : transferring_) r.push_back(make_running_info(id));
    for (const JobId id : ready_) r.push_back(make_running_info(id));
    for (const JobId id : launching_) r.push_back(make_running_info(id));
    for (const JobId id : running_) r.push_back(make_running_info(id));
    int free_nodes = cfg.nodes;
    for (const auto& ri : r) free_nodes -= ri.nodes;
    BatchPolicy policy = BatchPolicy::Fcfs;
    if (sp.scheduler == SchedulerKind::BatchEasy) policy = BatchPolicy::Easy;
    if (sp.scheduler == SchedulerKind::BatchConservative) {
      policy = BatchPolicy::Conservative;
    }
    to_start = batch_pick(q, std::move(r), free_nodes, cfg.nodes,
                          cluster_.sim().now(), policy);
  }

  for (const JobId id : to_start) {
    Job& j = job(id);
    const int nodes_needed = (j.spec().npes + cfg.app_cpus_per_node - 1) /
                             cfg.app_cpus_per_node;
    auto placed = matrix_->place(id, nodes_needed);
    if (!placed) continue;  // fragmentation or full matrix: stay queued
    if (repl_ != nullptr) {
      // Commit the placement before any of its effects become visible
      // (matrix slot is tentative until then). A failed commit means
      // we lost the lease mid-boundary: undo and stop issuing.
      const std::int64_t args = static_cast<std::int64_t>(placed->first) |
                                (static_cast<std::int64_t>(placed->second.first)
                                 << 16) |
                                (static_cast<std::int64_t>(placed->second.count)
                                 << 40);
      const bool ok = co_await commit_command(EntryKind::Place, id, args);
      if (crashed_) co_return;
      if (!ok) {
        matrix_->remove(id);
        co_return;
      }
    }
    j.set_allocation(placed->second, placed->first);
    j.set_pes_per_node(std::min(cfg.app_cpus_per_node, j.spec().npes));
    j.set_state(JobState::Transferring);
    j.times().transfer_start = cluster_.sim().now();
    transfer_flag_[id] = false;
    fabric::TraceContext root{};
    if (telemetry::CausalTracer* tr = cluster_.tracer()) {
      // Placement is the birth of the launch: open the job's trace.
      root = tr->job_root(id, j.incarnation(), node_);
    }
    cluster_.fabric().note(
        Component::MM, node_,
        ControlMessage::prepare_transfer(id, placed->second.count,
                                         placed->first, j.incarnation()),
        root);
    queue_.erase(std::find(queue_.begin(), queue_.end(), id));
    transferring_.push_back(id);
    cluster_.sim().spawn(transfer_binary(j));
  }
}

Task<> MachineManager::transfer_binary(Job& job_) {
  const int inc = job_.incarnation();
  (void)co_await FileTransfer::send(cluster_, *this, job_);
  // The result only matters if nothing was killed under us meanwhile.
  if (!crashed_ && job_.incarnation() == inc &&
      static_cast<std::size_t>(job_.id()) < transfer_flag_.size()) {
    transfer_flag_[job_.id()] = true;
  }
}

Task<> MachineManager::issue_launches(fabric::TraceContext ctx) {
  (void)ctx;  // launch-issue spans live in each job's own trace
  telemetry::CausalTracer* tr = cluster_.tracer();
  for (const JobId id : ready_) {
    if (crashed_) co_return;
    Job& j = job(id);
    j.times().launch_issued = cluster_.sim().now();
    j.set_state(JobState::Launching);
    mt_launches_->add(1);
    TraceSpan span;
    if (tr != nullptr) {
      span = tr->begin(SpanKind::MmLaunchIssue, node_,
                       tr->job_root(id, j.incarnation(), node_), id,
                       j.incarnation());
    }
    co_await cluster_.multicast_command(
        Component::MM, node_, j.nodes(),
        ControlMessage::launch(id, j.incarnation()), span.context());
    launching_.push_back(id);
  }
  ready_.clear();
}

Task<> MachineManager::strobe(fabric::TraceContext ctx) {
  if (cluster_.config().storm.scheduler != SchedulerKind::Gang) co_return;
  const int nrows = matrix_->active_row_count();
  if (nrows == 0) co_return;
  const int row = matrix_->nth_active_row(static_cast<int>(slice_ % nrows));
  ++strobes_;
  mt_strobes_->add(1);
  TraceSpan span;
  if (telemetry::CausalTracer* tr = cluster_.tracer()) {
    span = tr->begin(SpanKind::MmStrobe, node_, ctx, row);
  }
  co_await cluster_.multicast_command(Component::MM, node_, compute_nodes(),
                                      ControlMessage::strobe(row),
                                      span.context());
}

Task<> MachineManager::kill_job(Job& j) {
  const StormParams& sp = cluster_.config().storm;
  const JobId id = j.id();
  const int inc = j.incarnation();
  const NodeRange alloc = j.nodes();

  if (repl_ != nullptr) {
    // Commit the kill before touching any scheduler state: a deposed
    // leader must not bump incarnations or wake channels.
    const bool ok = co_await commit_command(EntryKind::Kill, id, inc);
    if (crashed_ || !ok) co_return;
  }
  if (matrix_->contains(id)) matrix_->remove(id);
  std::erase(transferring_, id);
  std::erase(ready_, id);
  std::erase(launching_, id);
  std::erase(running_, id);
  if (static_cast<std::size_t>(id) < transfer_flag_.size()) {
    transfer_flag_[id] = false;
  }

  telemetry::CausalTracer* tr = cluster_.tracer();
  TraceSpan span;
  if (tr != nullptr) {
    span = tr->begin(SpanKind::MmKill, node_, tr->job_root(id, inc, node_),
                     id, inc);
  }

  // Bump first, then wake: every coroutine of the old incarnation —
  // PEs blocked in recv, the transfer pipeline, in-flight launches —
  // observes the stale incarnation on its next step and fast-forwards
  // to exit, releasing its flow-control slots and PL with it.
  j.bump_incarnation();
  mt_kills_->add(1);
  cluster_.wake_job_channels(id, inc);
  if (!alloc.empty()) {
    // Tell the surviving NMs to cancel their local PEs of the old
    // incarnation (the dead node's NM is gone; delivery skips it).
    co_await cluster_.multicast_command(Component::MM, node_, alloc,
                                       ControlMessage::kill(id, inc),
                                       span.context());
  }
  span.end();
  if (tr != nullptr) tr->close_job(id, inc);  // the incarnation's trace ends

  const bool requeue = sp.failure_policy == FailurePolicy::Requeue &&
                       j.incarnation() < kMaxIncarnations &&
                       j.restarts() <= sp.max_job_restarts;
  if (requeue) {
    j.set_state(JobState::Queued);
    j.times().last_requeue = cluster_.sim().now();
    queue_.push_back(id);
    mt_requeues_->add(1);
  } else {
    mark_terminal(j, JobState::Aborted);
    mt_aborts_->add(1);
  }
}

Task<> MachineManager::handle_node_failures(const std::vector<int>& fresh) {
  for (const int n : fresh) {
    // Kill (and per policy requeue) every job spanning the dead node.
    for (JobId id = 0; id < static_cast<JobId>(cluster_.job_count()); ++id) {
      Job& j = cluster_.job(id);
      const JobState st = j.state();
      if (st == JobState::Queued || st == JobState::Completed ||
          st == JobState::Aborted) {
        continue;
      }
      if (j.nodes().contains(n)) co_await kill_job(j);
    }
    // Take the node out of every buddy tree so no future placement
    // touches it.
    if (repl_ != nullptr) {
      const bool ok = co_await commit_command(EntryKind::Evict, 0, n);
      if (crashed_ || !ok) co_return;
    }
    if (matrix_->evict_node(n)) mt_evictions_->add(1);
  }
  // Resynchronise the survivors: the next timeslot switch must not
  // wait for acknowledgement state the dead nodes will never produce.
  co_await strobe();
}

void MachineManager::handle_node_recovered(int node) {
  cluster_.sim().spawn(node_rejoin(node));
}

Task<> MachineManager::node_rejoin(int node) {
  co_await proc_->compute(cluster_.config().storm.mm_boundary_cost);
  if (crashed_) co_return;
  const auto it = std::find(failed_.begin(), failed_.end(), node);
  if (it != failed_.end()) {
    // The death had been detected and handled: re-admit the node with
    // its clean slate.
    if (repl_ != nullptr) {
      const bool ok = co_await commit_command(EntryKind::Rejoin, 0, node);
      if (crashed_ || !ok) co_return;
    }
    failed_.erase(it);
    matrix_->restore_node(node);
    mt_rejoins_->add(1);
    // Re-registration handshake: seed the recovered node's heartbeat
    // word with the current epoch so the next detection round does not
    // immediately re-declare it dead (the NM itself only writes the
    // word when the *next* heartbeat command arrives).
    cluster_.mech().write_local(node, kHeartbeatAddr, hb_epoch_);
  } else {
    // The outage was shorter than a heartbeat period and never
    // detected — but the node's dæmon state and NIC words are gone,
    // so every job spanning it is suspect and must be restarted.
    for (JobId id = 0; id < static_cast<JobId>(cluster_.job_count()); ++id) {
      Job& j = cluster_.job(id);
      const JobState st = j.state();
      if (st == JobState::Queued || st == JobState::Completed ||
          st == JobState::Aborted) {
        continue;
      }
      if (j.nodes().contains(node)) co_await kill_job(j);
    }
  }
}

Task<> MachineManager::heartbeat_round(fabric::TraceContext ctx) {
  auto& fab = cluster_.fabric();
  const auto& sp = cluster_.config().storm;
  const NodeRange all = compute_nodes();
  mt_heartbeats_->add(1);
  TraceSpan span;
  if (telemetry::CausalTracer* tr = cluster_.tracer()) {
    span = tr->begin(SpanKind::MmHeartbeat, node_, ctx, hb_epoch_);
  }

  // Check a *lagged* epoch before advancing: a node is dead only once
  // its word trails heartbeat_miss_periods epochs (COMPARE-AND-WRITE
  // over the whole machine). The NM shares its CPU with application
  // PEs, so one late ack on a loaded node is not a death.
  const std::int64_t floor_epoch =
      hb_epoch_ - (std::max(sp.heartbeat_miss_periods, 1) - 1);
  if (floor_epoch > 0) {
    if (mt_hb_sweeps_ == nullptr) {
      mt_hb_sweeps_ = &cluster_.metrics().counter("mm.heartbeat.sweeps");
    }
    mt_hb_sweeps_->add(1);
    const bool ok = co_await fab.compare_and_write(
        Component::MM, ControlMessage::heartbeat(hb_epoch_), node_, all,
        kHeartbeatAddr, Compare::GE, floor_epoch, kNoWrite, 0,
        span.context());
    if (!ok) {
      // Isolate the failed slave(s). One masked pass over the plane's
      // flat heartbeat column picks the suspects (word trailing the
      // lagged floor, or already net-failed); each suspect is then
      // confirmed with the same single-node COMPARE-AND-WRITE the
      // per-node loop used, so the declared set and its slack
      // semantics are unchanged. The (usually long) runs of
      // non-suspect nodes are re-verified with one range CAW each —
      // a node whose *word* is fresh but whose NIC the middleware has
      // cut off (fault-injected silence) fails its run's CAW, and a
      // recursive bisect narrows the run to the node(s) the old loop
      // would have caught, still in ascending declaration order.
      const std::int64_t* hb =
          cluster_.network().plane().column(kHeartbeatAddr);
      std::vector<int> fresh;
      int run_first = -1;
      for (int n = all.first; n <= all.last() + 1; ++n) {
        const bool in_range = n <= all.last();
        bool skip = false;
        bool suspect = false;
        if (in_range) {
          skip = std::binary_search(failed_.begin(), failed_.end(), n);
          suspect =
              !skip && (cluster_.network().node_failed(n) ||
                        hb[n] < floor_epoch);
        }
        if (in_range && !skip && !suspect) {
          if (run_first < 0) run_first = n;
          continue;
        }
        if (run_first >= 0) {
          co_await verify_alive(NodeRange{run_first, n - run_first},
                                floor_epoch, span.context(), fresh);
          run_first = -1;
        }
        if (in_range && suspect) {
          co_await verify_alive(NodeRange{n, 1}, floor_epoch, span.context(),
                                fresh);
        }
      }
      if (!fresh.empty()) co_await handle_node_failures(fresh);
    }
  }

  ++hb_epoch_;
  co_await cluster_.multicast_command(Component::MM, node_, all,
                                      ControlMessage::heartbeat(hb_epoch_),
                                      span.context());
}

Task<> MachineManager::verify_alive(NodeRange range, std::int64_t floor_epoch,
                                    fabric::TraceContext ctx,
                                    std::vector<int>& fresh) {
  auto& fab = cluster_.fabric();
  const bool ok = co_await fab.compare_and_write(
      Component::MM, ControlMessage::heartbeat(hb_epoch_), node_, range,
      kHeartbeatAddr, Compare::GE, floor_epoch, kNoWrite, 0, ctx);
  if (ok) co_return;
  if (range.count == 1) {
    const int n = range.first;
    failed_.insert(std::lower_bound(failed_.begin(), failed_.end(), n), n);
    fresh.push_back(n);
    if (on_failure_) on_failure_(n, cluster_.sim().now());
    co_return;
  }
  const int half = range.count / 2;
  co_await verify_alive(NodeRange{range.first, half}, floor_epoch, ctx, fresh);
  co_await verify_alive(NodeRange{range.first + half, range.count - half},
                        floor_epoch, ctx, fresh);
}

}  // namespace storm::core
