// Per-node operating-system model: CPUs, preemptible processes, and a
// round-robin scheduler with wakeup boosting.
//
// Why this exists: the paper attributes two launch-time effects to the
// node OS — (1) the growth of execute time with node count is "skew
// caused by local operating system scheduling effects" (Section 3.1.1),
// and (2) the CPU-loaded experiment (Figure 3) shows dæmons competing
// with application processes for cycles. Reproducing both requires an
// OS model in which dæmon service time is real CPU time that contends
// with whatever else is pinned to the same processor.
//
// The model: each CPU runs at most one process; runnable processes on
// a CPU round-robin with a tick quantum; a process that becomes
// runnable while another runs "grabs" the CPU after a log-normally
// distributed delay (modelling wakeup preemption latency: kernel
// non-preemption windows + timer granularity). Dispatch charges a
// context-switch cost, and an explicit per-switch cache-refill penalty
// can be added by the gang scheduler.
#pragma once

#include <cassert>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace storm::node {

struct OsParams {
  int cpus = 4;
  sim::SimTime tick = sim::SimTime::ms(10);           // RR quantum
  sim::SimTime context_switch = sim::SimTime::us(10);
  sim::SimTime dispatch_noise_median = sim::SimTime::us(12);
  double dispatch_noise_sigma = 0.4;
  // Wakeup preemption: how long a newly-runnable process waits before
  // it can take the CPU from the incumbent.
  sim::SimTime wakeup_grab_median = sim::SimTime::millis(1.5);
  double wakeup_grab_sigma = 1.0;
};

class OsScheduler;

/// A simulated OS process. Application and dæmon code runs as a
/// coroutine that calls `compute()` for every stretch of CPU work;
/// everything between compute calls (waiting on events, messages,
/// DMA completion) consumes no CPU.
class Proc {
 public:
  Proc(const Proc&) = delete;
  Proc& operator=(const Proc&) = delete;

  /// Consume `work` of CPU time. Returns when the work has been
  /// executed; the wall-clock (simulated) duration depends on
  /// contention, suspension, and scheduling noise. Concurrent
  /// compute() requests against the same process are FIFO-serialised —
  /// a process is a single thread of control, so simultaneous service
  /// demands (e.g. the MM host helper assisting both the file-read and
  /// the broadcast stages of the launch pipeline) queue up behind each
  /// other. That serialisation is precisely the paper's explanation
  /// for the 131 MB/s protocol bandwidth (Section 3.3.1).
  ///
  /// Completion is the only wake-up: the caller's coroutine is resumed
  /// once, when the work finishes or cancel_work() discards it, never
  /// by the dispatches and preemptions in between.
  sim::Task<> compute(sim::SimTime work);

  /// Gang-scheduling control: a suspended process keeps its pending
  /// work but is removed from the run queue until resumed.
  void set_suspended(bool suspended);
  bool suspended() const { return suspended_; }

  /// Busy-wait bracket: between begin_busy() and end_busy() the
  /// process burns CPU whenever the scheduler runs it (a user-level
  /// communication library polling the NIC). It is preempted by
  /// ticks/grabs like any compute, but never completes on its own, so
  /// its slices arm no completion event: end_busy() is the only way
  /// out, and nothing waits to be woken. No compute() may be
  /// outstanding while busy.
  void begin_busy();
  void end_busy();
  bool busy_waiting() const { return busy_; }

  /// Charge an extra cost (cache/TLB refill) to this process's next
  /// dispatch. Used by the gang scheduler's context switches.
  void add_penalty(sim::SimTime t) { penalty_ += t; }

  /// Abort any in-flight compute(): the pending work is discarded and
  /// the blocked compute() call returns immediately. Used by the crash
  /// model — a dead node's processes stop mid-instruction. Busy-wait
  /// brackets are not touched (their owner ends them after it is woken
  /// through its blocking primitive).
  void cancel_work();

  const std::string& name() const { return name_; }
  int cpu() const { return cpu_; }
  bool running() const { return st_ == St::Running; }
  bool idle() const { return st_ == St::Idle && !wants_cpu_; }

  /// Total CPU time actually consumed (for utilisation accounting).
  sim::SimTime cpu_time() const { return cpu_time_; }

  /// True when this process could not possibly touch its CPU until
  /// something new wakes it: no compute in flight or queued behind the
  /// gate, no busy-wait bracket, not on a run queue. The dæmon sweep's
  /// eligibility test — a quiescent process's slice accounting can be
  /// fast-forwarded without the run-queue machinery observing any
  /// difference.
  bool quiescent() const {
    return st_ == St::Idle && !wants_cpu_ && !busy_ && !queued_ &&
           gate_.available() > 0 && gate_.waiting() == 0;
  }

  /// Batched fast-path accounting: charge a fully-simulated exclusive
  /// slice (the process held an otherwise idle CPU for `t`) without a
  /// dispatch/finish event pair. Only valid bracketed by quiescent()
  /// states; the caller owns the equivalence argument.
  void charge_batched_slice(sim::SimTime t) { cpu_time_ += t; }

 private:
  friend class OsScheduler;
  Proc(OsScheduler& os, std::string name, int cpu);

  enum class St { Idle, Ready, Running };

  OsScheduler& os_;
  std::string name_;
  int cpu_;
  St st_ = St::Idle;
  bool suspended_ = false;
  bool busy_ = false;        // busy-wait bracket active
  bool wants_cpu_ = false;   // has unfinished compute() work
  bool queued_ = false;      // present in the CPU run queue
  sim::SimTime remaining_{};
  sim::SimTime penalty_{};
  sim::SimTime slice_start_{};
  sim::SimTime cpu_time_{};
  sim::EventId work_done_ev_ = sim::kInvalidEvent;
  sim::Signal state_changed_;
  sim::Semaphore gate_;  // FIFO-serialises concurrent compute() calls
};

class OsScheduler {
 public:
  OsScheduler(sim::Simulator& sim, OsParams params, sim::Rng rng);
  OsScheduler(const OsScheduler&) = delete;
  OsScheduler& operator=(const OsScheduler&) = delete;

  sim::Simulator& simulator() { return sim_; }
  const OsParams& params() const { return params_; }
  int cpus() const { return params_.cpus; }

  /// Create a process pinned to `cpu`.
  Proc& create(std::string name, int cpu);

  /// The process currently holding `cpu` (nullptr if idle).
  const Proc* current(int cpu) const { return cpus_[cpu].current; }

  /// Number of runnable-but-waiting processes on `cpu`.
  std::size_t queue_depth(int cpu) const { return cpus_[cpu].queue.size(); }

  /// True when nothing on `cpu` is running, queued, or in a state from
  /// which it could claim the CPU without a fresh wakeup (mid-compute
  /// between the work-done event and the coroutine resume counts as
  /// busy: the gate is still held). While a CPU is quiescent, a single
  /// dispatch of new work is the only possible next action — the
  /// precondition for the dæmon sweep's batched slice.
  bool cpu_quiescent(int cpu) const;

  /// The per-dispatch overhead charged to `p` — context switch + one
  /// log-normal noise draw from the scheduler's stream + any pending
  /// penalty (consumed). dispatch() charges exactly this; the batched
  /// fast path calls it where dispatch() would have run, so the RNG
  /// stream advances identically to the event-driven path.
  sim::SimTime sample_dispatch_overhead(Proc& p);

 private:
  friend class Proc;

  struct Cpu {
    Proc* current = nullptr;
    std::deque<Proc*> queue;
    sim::EventId tick_ev = sim::kInvalidEvent;
    sim::EventId grab_ev = sim::kInvalidEvent;
    // Memoized cpu_quiescent() verdict: set true only by a full check,
    // cleared by every scheduler or proc state transition on this CPU.
    // The batched periodic sweep (DESIGN §2.3) probes quiescence twice
    // per node per epoch; in the idle steady state this turns that
    // probe into a single warm load instead of a proc-table walk.
    mutable bool quiet = false;
  };

  void make_ready(Proc& p, bool to_front);
  void dispatch(int cpu);
  void finish_work(Proc& p);
  void preempt(Proc& p, bool requeue);
  /// Take `p` off its CPU without touching its pending work: preempt
  /// it if running, pull it off the run queue if waiting. Leaves it
  /// Idle either way.
  void withdraw(Proc& p);
  void arm_tick(int cpu);
  void disarm(sim::EventId& ev);
  void maybe_arm_grab(int cpu);

  sim::Simulator& sim_;
  OsParams params_;
  sim::Rng rng_;
  std::vector<Cpu> cpus_;
  std::vector<std::unique_ptr<Proc>> procs_;
};

}  // namespace storm::node
