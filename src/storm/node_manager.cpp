#include "storm/node_manager.hpp"

#include <algorithm>
#include <cassert>

#include "storm/cluster.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/tracing.hpp"

namespace storm::core {

using fabric::Component;
using fabric::ControlMessage;
using fabric::MsgClass;
using sim::SimTime;
using sim::Task;
using telemetry::SpanKind;
using telemetry::TraceSpan;

NodeManager::NodeManager(Cluster& cluster, int node)
    : cluster_(cluster), node_(node), mailbox_(cluster.sim()) {
  const int daemon_cpu = cluster_.config().cpus_per_node - 1;
  proc_ = &cluster_.machine(node_).os().create(
      "nm." + std::to_string(node_), daemon_cpu);

  telemetry::MetricsRegistry& m = cluster_.metrics();
  mt_cmds_ = &m.counter("nm.cmds");
  mt_strobe_switch_ = &m.counter("nm.strobe.switches");
  mt_strobe_idle_ = &m.counter("nm.strobe.idle");
  mt_chunks_ = &m.counter("nm.chunks");
  mt_kills_ = &m.counter("nm.kills");
  mt_chunk_wait_ = &m.histogram("nm.chunk.wait_ns");
  mt_chunk_write_ = &m.histogram("nm.chunk.write_ns");
  mt_mailbox_depth_ = &m.gauge("nm.mailbox.max_depth");
}

void NodeManager::start() { cluster_.sim().spawn(run()); }

void NodeManager::crash() {
  if (stopped_) return;
  stopped_ = true;
  ++crash_epoch_;
  proc_->cancel_work();
  // A dead node's processes stop mid-instruction: abort the PEs'
  // in-flight CPU work. Their coroutines finish fast-forwarding once
  // the MM kills the incarnation and poisons its channels.
  for (auto& pe : pes_) {
    if (!pe.exited) pe.proc->cancel_work();
  }
  pes_.clear();
  forked_.clear();
  exited_.clear();
  current_row_ = 0;
  if (windowed_) {
    // Crash mid-absorb-window: the dæmon dies mid-instruction. Charge
    // the partial slice (exactly what preempting the event-driven
    // compute would have charged), end the command span at the crash
    // instant, and drop the held deliveries — the event-driven mailbox
    // is drained below for the same reason.
    cluster_.sim().cancel(window_ev_);
    window_ev_ = sim::kInvalidEvent;
    proc_->charge_batched_slice(cluster_.sim().now() - window_start_);
    window_span_.end();
    windowed_ = false;
    window_pending_.clear();
  }
  while (mailbox_.try_get()) {
  }
}

void NodeManager::restart() {
  if (!stopped_) return;
  stopped_ = false;
  while (mailbox_.try_get()) {
  }
}

Task<> NodeManager::run() {
  const StormParams& sp = cluster_.config().storm;
  // The loop never exits: a crashed dæmon simply ignores its mailbox
  // until restart() clears the flag.
  for (;;) {
    const fabric::TracedCommand tc = co_await mailbox_.get();
    const ControlMessage& cmd = tc.msg;
    if (stopped_) continue;
    max_depth_ = std::max(max_depth_, mailbox_.size() + 1);
    mt_cmds_->add(1);
    mt_mailbox_depth_->set_max(static_cast<double>(max_depth_));
    telemetry::CausalTracer* tr = cluster_.tracer();
    switch (cmd.cls) {
      case MsgClass::PrepareTransfer: {
        TraceSpan span;
        if (tr != nullptr) {
          span = tr->begin_flow(SpanKind::NmPrepare, node_, tc.ctx,
                                cmd.u.prepare.job, cmd.u.prepare.incarnation);
        }
        co_await proc_->compute(sp.nm_cmd_cost);
        if (stopped_) continue;
        cluster_.sim().spawn(receive_file(cmd.u.prepare.job,
                                          cmd.u.prepare.incarnation,
                                          cmd.u.prepare.chunks,
                                          cmd.u.prepare.chunk_bytes));
        break;
      }
      case MsgClass::Launch: {
        TraceSpan span;
        if (tr != nullptr) {
          span = tr->begin_flow(SpanKind::NmLaunch, node_, tc.ctx,
                                cmd.u.launch.job, cmd.u.launch.incarnation);
        }
        co_await proc_->compute(sp.nm_cmd_cost);
        if (stopped_) continue;
        co_await handle_launch(cluster_.job(cmd.u.launch.job),
                               cmd.u.launch.incarnation, span.context());
        break;
      }
      case MsgClass::Kill: {
        TraceSpan span;
        if (tr != nullptr) {
          span = tr->begin_flow(SpanKind::NmKill, node_, tc.ctx,
                                cmd.u.kill.job, cmd.u.kill.incarnation);
        }
        co_await proc_->compute(sp.nm_cmd_cost);
        if (stopped_) continue;
        handle_kill(cmd.u.kill.job, cmd.u.kill.incarnation);
        break;
      }
      case MsgClass::Strobe: {
        // A timeslot switch walks the local run lists and performs the
        // coordinated multi-context-switch; an idle strobe just costs
        // the bookkeeping.
        const int row = cmd.u.strobe.row;
        const bool has_switchable =
            std::any_of(pes_.begin(), pes_.end(),
                        [](const LocalPe& pe) { return !pe.exited; });
        const bool switching = has_switchable && row != current_row_;
        (switching ? mt_strobe_switch_ : mt_strobe_idle_)->add(1);
        TraceSpan span;
        if (tr != nullptr) {
          span = tr->begin_flow(SpanKind::NmStrobe, node_, tc.ctx, row,
                                switching ? 1 : 0);
        }
        co_await proc_->compute(switching ? sp.nm_strobe_switch_cost
                                          : sp.nm_cmd_cost);
        if (stopped_) continue;
        enact_row(row);
        break;
      }
      case MsgClass::Heartbeat: {
        TraceSpan span;
        if (tr != nullptr) {
          span = tr->begin_flow(SpanKind::NmHeartbeat, node_, tc.ctx,
                                cmd.u.heartbeat.epoch);
        }
        co_await proc_->compute(SimTime::us(5));
        if (stopped_) continue;
        cluster_.mech().write_local(node_, kHeartbeatAddr,
                                    cmd.u.heartbeat.epoch);
        break;
      }
      case MsgClass::Repl: {
        // Unreachable in practice: MM replication traffic is tapped at
        // NIC delivery (Cluster::deliver_command) so a busy dæmon
        // cannot delay votes or lease renewals. Kept as a route for
        // robustness should a Repl message ever reach a mailbox.
        cluster_.deliver_repl(node_, cmd);
        break;
      }
      default:
        // Not an NM command class; nothing to enact.
        break;
    }
  }
}

Task<> NodeManager::receive_file(JobId job, int inc, int chunks,
                                 sim::Bytes chunk_size) {
  // An in-flight receive loop pins the dæmon out of the absorb fast
  // path: its chunk writes claim the dæmon CPU at DMA-completion
  // times the sweep cannot see. Balanced on frame destruction.
  ++active_receives_;
  struct ReceiveGuard {
    int* n;
    ~ReceiveGuard() { --*n; }
  } guard{&active_receives_};
  auto& mech = cluster_.mech();
  auto& sim = cluster_.sim();
  auto& ram = cluster_.machine(node_).fs(node::FsKind::RamDisk);
  const int epoch = crash_epoch_;
  for (int i = 0; i < chunks; ++i) {
    const SimTime t_wait = sim.now();
    co_await mech.wait_event(node_, ev_chunk(job, inc));
    if (crash_epoch_ != epoch || stopped_) co_return;
    mt_chunk_wait_->record(sim.now() - t_wait);
    // Write the fragment out of the receive-queue slot into the RAM
    // disk — NM CPU work, overlapped with subsequent chunks thanks to
    // the multi-buffering. The span parents on the sender's broadcast
    // of exactly this chunk (harvested by the CausalTracer), drawing
    // the cause→effect arrow across nodes.
    TraceSpan span;
    if (telemetry::CausalTracer* tr = cluster_.tracer()) {
      span = tr->begin_flow(SpanKind::NmChunk, node_, tr->chunk_cause(job, i),
                            job, i);
    }
    const SimTime t_write = sim.now();
    co_await ram.write(chunk_size, *proc_);
    if (crash_epoch_ != epoch || stopped_) co_return;
    span.end();
    mt_chunk_write_->record(sim.now() - t_write);
    mt_chunks_->add(1);
    mech.write_local(node_, addr_written(job, inc), i + 1);
  }
}

Task<> NodeManager::handle_launch(Job& job, int inc,
                                  fabric::TraceContext ctx) {
  if (inc != job.incarnation()) co_return;  // stale: killed in flight
  cluster_.fabric().note(Component::NM, node_,
                         ControlMessage::launch(job.id(), inc), ctx);
  // Fresh incarnation, fresh counters (a requeued job may land on the
  // same node again).
  forked_[job.id()] = 0;
  exited_[job.id()] = 0;
  const int nranks = job.ranks_on_node(node_);
  if (nranks == 0) {
    // Allocated (buddy rounding) but unused by this job: report
    // trivially so partition-wide conditionals can close.
    cluster_.mech().write_local(node_, addr_launched(job.id(), inc), 1);
    cluster_.mech().write_local(node_, addr_done(job.id(), inc), 1);
    co_return;
  }
  const int first = job.first_rank_on_node(node_);
  const int per_node = cluster_.pls_per_node();
  for (int k = 0; k < nranks; ++k) {
    const int rank = first + k;
    const int cpu = job.cpu_of_rank(rank);
    // Find an available PL pinned to this PE's CPU.
    ProgramLauncher* pl = nullptr;
    for (int p = 0; p < per_node; ++p) {
      ProgramLauncher& cand = cluster_.pl(node_, p);
      if (!cand.busy() && cand.cpu() == cpu) {
        pl = &cand;
        break;
      }
    }
    assert(pl != nullptr && "PL pool exhausted: MPL exceeds configuration");
    cluster_.sim().spawn(pl->launch(job, rank, ctx));
  }
  co_return;
}

void NodeManager::handle_kill(JobId job, int inc) {
  mt_kills_->add(1);
  for (auto& pe : pes_) {
    if (pe.job->id() != job || pe.incarnation != inc || pe.exited) continue;
    // Abort in-flight CPU work; a PE blocked in recv() is woken by the
    // MM's channel poison and fast-forwards on its own.
    pe.proc->cancel_work();
  }
  std::erase_if(pes_, [&](const LocalPe& pe) {
    return pe.job->id() == job && pe.incarnation == inc;
  });
  forked_.erase(job);
  exited_.erase(job);
}

void NodeManager::register_pe(Job& job, int inc, int rank, node::Proc* proc) {
  const bool gang =
      cluster_.config().storm.scheduler == SchedulerKind::Gang;
  pes_.push_back(
      LocalPe{&job, inc, rank, job.cpu_of_rank(rank), job.row(), proc});
  if (gang && job.row() != current_row_) {
    proc->set_suspended(true);
  }
}

void NodeManager::on_forked(Job& job, int inc) {
  if (inc != job.incarnation()) return;  // stale fork: incarnation killed
  if (++forked_[job.id()] == job.ranks_on_node(node_)) {
    cluster_.mech().write_local(node_, addr_launched(job.id(), inc), 1);
  }
}

void NodeManager::on_exit(Job& job, int inc, int rank) {
  if (inc != job.incarnation()) return;  // stale exit: already cleaned up
  for (auto& pe : pes_) {
    if (pe.job == &job && pe.incarnation == inc && pe.rank == rank) {
      pe.exited = true;
      break;
    }
  }
  if (++exited_[job.id()] == job.ranks_on_node(node_)) {
    cluster_.mech().write_local(node_, addr_done(job.id(), inc), 1);
    // Retire this job's PEs from the local run lists.
    std::erase_if(pes_, [&](const LocalPe& pe) { return pe.job == &job; });
  }
}

void NodeManager::enact_row(int row) {
  current_row_ = row;
  // Publish the enacted row in the node's well-known plane slot — NIC
  // bookkeeping, not a fabric operation (no time, no middleware).
  cluster_.network().plane().set_word(node_, kStrobeRowAddr, row);
  if (cluster_.config().storm.scheduler != SchedulerKind::Gang) return;
  const auto& mp = cluster_.machine(node_).params();
  const int app_cpus = cluster_.config().app_cpus_per_node;
  for (int cpu = 0; cpu < app_cpus; ++cpu) {
    // Prefer the PE assigned to this timeslot; otherwise fill the slot
    // with any runnable PE (slot filling keeps CPUs busy when a gang
    // has exited or a row is sparse).
    LocalPe* chosen = nullptr;
    for (auto& pe : pes_) {
      if (pe.cpu == cpu && !pe.exited && pe.row == row) {
        chosen = &pe;
        break;
      }
    }
    if (chosen == nullptr) {
      for (auto& pe : pes_) {
        if (pe.cpu == cpu && !pe.exited) {
          chosen = &pe;
          break;
        }
      }
    }
    for (auto& pe : pes_) {
      if (pe.cpu != cpu || pe.exited || &pe == chosen) continue;
      pe.proc->set_suspended(true);
    }
    if (chosen != nullptr && chosen->proc->suspended()) {
      chosen->proc->add_penalty(mp.switch_penalty);
      chosen->proc->set_suspended(false);
    }
  }
}

// ---------------------------------------------------------------------------
// Batched periodic sweep (DESIGN §2.3)
// ---------------------------------------------------------------------------

void NodeManager::deliver(fabric::TracedCommand tc) {
  if (windowed_) {
    // The event-driven dæmon would have been mid-compute: the command
    // would sit in the mailbox unobserved until the compute finished.
    // Holding it here and flushing at window close reproduces exactly
    // that — the first *look* at the command happens at the same
    // instant on both paths.
    window_pending_.push_back(std::move(tc));
    return;
  }
  mailbox_.put(std::move(tc));
}

bool NodeManager::can_absorb_periodic() {
  if (stopped_ || windowed_) return false;
  // Parked on an empty mailbox — the put would wake the get() awaiter
  // and nothing else is queued ahead of this command.
  if (!mailbox_.empty() || mailbox_.waiting() != 1) return false;
  // No local PEs, no PL mid-fork, no receive loop that could claim the
  // dæmon CPU (or draw from the OS RNG stream) inside the window.
  if (!pes_.empty() || active_receives_ != 0) return false;
  if (cluster_.network().plane().pl_mask(node_) != 0) return false;
  const int daemon_cpu = cluster_.config().cpus_per_node - 1;
  return cluster_.machine(node_).os().cpu_quiescent(daemon_cpu);
}

void NodeManager::absorb_periodic(const fabric::TracedCommand& tc) {
  assert(can_absorb_periodic());
  const ControlMessage& cmd = tc.msg;
  const StormParams& sp = cluster_.config().storm;
  // Bookkeeping the run() loop would have done on wakeup. The mailbox
  // is empty (absorb precondition), so the depth sample is 1.
  max_depth_ = std::max(max_depth_, std::size_t{1});
  mt_cmds_->add(1);
  mt_mailbox_depth_->set_max(static_cast<double>(max_depth_));
  telemetry::CausalTracer* tr = cluster_.tracer();
  SimTime cost;
  if (cmd.cls == MsgClass::Strobe) {
    // No local PEs (absorb precondition) => never a timeslot switch.
    mt_strobe_idle_->add(1);
    if (tr != nullptr) {
      window_span_ = tr->begin_flow(SpanKind::NmStrobe, node_, tc.ctx,
                                    cmd.u.strobe.row, 0);
    }
    cost = sp.nm_cmd_cost;
  } else {
    assert(cmd.cls == MsgClass::Heartbeat);
    if (tr != nullptr) {
      window_span_ = tr->begin_flow(SpanKind::NmHeartbeat, node_, tc.ctx,
                                    cmd.u.heartbeat.epoch);
    }
    cost = SimTime::us(5);
    if (mt_hb_batched_ == nullptr) {
      mt_hb_batched_ = &cluster_.metrics().counter("nm.heartbeat.batched");
    }
    mt_hb_batched_->add(1);
  }
  // One dispatch-overhead draw from the node's OS stream — the same
  // draw, in the same per-machine order, that dispatch() would have
  // made when the woken dæmon claimed its idle CPU.
  const SimTime overhead =
      cluster_.machine(node_).os().sample_dispatch_overhead(*proc_);
  windowed_ = true;
  window_cmd_ = cmd;
  window_start_ = cluster_.sim().now();
  window_ev_ = cluster_.sim().schedule_after(cost + overhead,
                                             [this] { complete_window(); });
}

void NodeManager::complete_window() {
  window_ev_ = sim::kInvalidEvent;
  proc_->charge_batched_slice(cluster_.sim().now() - window_start_);
  windowed_ = false;
  if (window_cmd_.cls == MsgClass::Strobe) {
    enact_row(window_cmd_.u.strobe.row);
  } else {
    cluster_.mech().write_local(node_, kHeartbeatAddr,
                                window_cmd_.u.heartbeat.epoch);
  }
  window_span_.end();
  // Commands held during the window reach the mailbox now; the first
  // put wakes the parked dæmon through the normal channel machinery.
  for (auto& tc : window_pending_) {
    mailbox_.put(std::move(tc));
  }
  window_pending_.clear();
}

// ---------------------------------------------------------------------------
// ProgramLauncher
// ---------------------------------------------------------------------------

ProgramLauncher::ProgramLauncher(Cluster& cluster, int node, int cpu, int slot,
                                 int index)
    : cluster_(cluster), node_(node), cpu_(cpu), index_(index) {
  assert(index_ >= 0 && index_ < net::NodeStatePlane::kMaxPlSlots);
  proc_ = &cluster_.machine(node_).os().create(
      "pl." + std::to_string(node_) + "." + std::to_string(cpu) + "." +
          std::to_string(slot),
      cpu);
}

// PL occupancy lives in the node-state plane's per-node bitmask, not a
// per-object bool, so the NM's free-slot scan touches one word per node.
bool ProgramLauncher::busy() const {
  return cluster_.network().plane().pl_busy(node_, index_);
}

void ProgramLauncher::set_busy(bool v) {
  cluster_.network().plane().set_pl_busy(node_, index_, v);
}

void ProgramLauncher::cancel() { proc_->cancel_work(); }

Task<> ProgramLauncher::launch(Job& job, int rank, fabric::TraceContext tctx) {
  assert(!busy());
  set_busy(true);
  auto& machine = cluster_.machine(node_);
  const int inc = job.incarnation();
  const int epoch = cluster_.node_epoch(node_);
  auto stale = [&] {
    return job.incarnation() != inc || cluster_.node_epoch(node_) != epoch;
  };

  // fork() + exec() of the image from the local RAM disk. A do-nothing
  // binary demand-pages only a handful of pages, so this cost is
  // independent of the image size (Figure 2's observation).
  TraceSpan fork_span;
  if (telemetry::CausalTracer* tr = cluster_.tracer()) {
    fork_span = tr->begin_flow(SpanKind::PlFork, node_, tctx, job.id(), rank);
  }
  co_await proc_->compute(machine.sample_fork_cost());
  if (stale()) {
    set_busy(false);
    co_return;
  }

  node::Proc& app = machine.os().create(
      job.spec().name + "." + std::to_string(rank), cpu_);
  NodeManager& nm = cluster_.nm(node_);
  nm.register_pe(job, inc, rank, &app);
  nm.on_forked(job, inc);
  fork_span.end();

  auto& times = job.times();
  if (times.first_proc_started == sim::SimTime::zero()) {
    times.first_proc_started = cluster_.sim().now();
  }

  AppContext ctx(cluster_, job, rank, &app);
  ctx.seed_rng(machine.rng().fork(
      0xA999'0000ULL + static_cast<std::uint64_t>(job.id()) * 4096 +
      static_cast<std::uint64_t>(rank)));
  co_await job.spec().program(ctx);
  if (stale()) {
    set_busy(false);
    co_return;
  }
  job.times().last_proc_exited =
      std::max(job.times().last_proc_exited, cluster_.sim().now());

  // The PL detects its child's termination and reports to the NM.
  co_await proc_->compute(cluster_.config().storm.pl_notify_cost);
  if (!stale()) nm.on_exit(job, inc, rank);
  set_busy(false);
}

}  // namespace storm::core
