#include "node/os_scheduler.hpp"

#include <algorithm>
#include <utility>

namespace storm::node {

using sim::SimTime;
using sim::Task;

// ---------------------------------------------------------------------------
// Proc
// ---------------------------------------------------------------------------

Proc::Proc(OsScheduler& os, std::string name, int cpu)
    : os_(os),
      name_(std::move(name)),
      cpu_(cpu),
      state_changed_(os.sim_),
      gate_(os.sim_, 1) {}

Task<> Proc::compute(SimTime work) {
  if (work <= SimTime::zero()) co_return;
  os_.cpus_[cpu_].quiet = false;
  co_await gate_.acquire();
  remaining_ = work;
  wants_cpu_ = true;
  os_.make_ready(*this, /*to_front=*/false);
  // Completion is the only wake-up: state_changed_ is notified by
  // finish_work() and cancel_work() alone, never by the dispatches and
  // preemptions in between, so one wait covers the whole request.
  co_await state_changed_.wait();
  gate_.release();
}

void Proc::begin_busy() {
  os_.cpus_[cpu_].quiet = false;
  assert(!wants_cpu_ && "cannot busy-wait with compute() outstanding");
  busy_ = true;
  wants_cpu_ = true;
  // No work to count down: dispatch() arms no completion event for a
  // busy proc, so only end_busy() takes it off the CPU for good.
  os_.make_ready(*this, /*to_front=*/false);
}

void Proc::end_busy() {
  if (!busy_) return;
  os_.cpus_[cpu_].quiet = false;
  busy_ = false;
  os_.withdraw(*this);
  wants_cpu_ = false;
}

void Proc::cancel_work() {
  if (busy_ || !wants_cpu_) return;
  os_.cpus_[cpu_].quiet = false;
  os_.withdraw(*this);
  wants_cpu_ = false;
  remaining_ = SimTime::zero();
  state_changed_.notify_all();
}

void Proc::set_suspended(bool suspended) {
  if (suspended_ == suspended) return;
  os_.cpus_[cpu_].quiet = false;
  suspended_ = suspended;
  if (suspended) {
    os_.withdraw(*this);
  } else if (wants_cpu_) {
    // Resumed by the gang scheduler: dispatch promptly.
    os_.make_ready(*this, /*to_front=*/true);
  }
}

// ---------------------------------------------------------------------------
// OsScheduler
// ---------------------------------------------------------------------------

OsScheduler::OsScheduler(sim::Simulator& sim, OsParams params, sim::Rng rng)
    : sim_(sim), params_(params), rng_(rng), cpus_(params.cpus) {}

Proc& OsScheduler::create(std::string name, int cpu) {
  assert(cpu >= 0 && cpu < params_.cpus);
  cpus_[cpu].quiet = false;
  procs_.push_back(
      std::unique_ptr<Proc>(new Proc(*this, std::move(name), cpu)));
  return *procs_.back();
}

void OsScheduler::make_ready(Proc& p, bool to_front) {
  cpus_[p.cpu_].quiet = false;
  if (p.suspended_ || p.queued_ || p.st_ == Proc::St::Running) return;
  p.st_ = Proc::St::Ready;
  p.queued_ = true;
  Cpu& c = cpus_[p.cpu_];
  if (to_front) {
    c.queue.push_front(&p);
  } else {
    c.queue.push_back(&p);
  }
  if (c.current == nullptr) {
    dispatch(p.cpu_);
  } else {
    maybe_arm_grab(p.cpu_);
  }
}

void OsScheduler::dispatch(int cpu) {
  Cpu& c = cpus_[cpu];
  c.quiet = false;
  if (c.current != nullptr || c.queue.empty()) return;
  Proc* p = c.queue.front();
  c.queue.pop_front();
  p->queued_ = false;
  c.current = p;
  p->st_ = Proc::St::Running;

  // Context switch + dispatch noise + any pending cache-refill penalty
  // are charged as extra work on this slice. A busy-wait slice draws
  // its noise too, keeping the RNG stream in step, but never completes
  // on its own: a completion event would only be cancelled by the next
  // tick, grab or end_busy() and linger in the heap as a dead entry.
  const SimTime overhead = sample_dispatch_overhead(*p);
  p->slice_start_ = sim_.now();
  if (!p->busy_) {
    p->remaining_ += overhead;
    p->work_done_ev_ = sim_.schedule_after(p->remaining_, [this, p] {
      p->work_done_ev_ = sim::kInvalidEvent;
      finish_work(*p);
    });
  }
  arm_tick(cpu);
}

void OsScheduler::finish_work(Proc& p) {
  Cpu& c = cpus_[p.cpu_];
  c.quiet = false;
  assert(c.current == &p);
  p.cpu_time_ += sim_.now() - p.slice_start_;
  p.remaining_ = SimTime::zero();
  p.wants_cpu_ = false;
  p.st_ = Proc::St::Idle;
  c.current = nullptr;
  disarm(c.tick_ev);
  p.state_changed_.notify_all();
  dispatch(p.cpu_);
}

void OsScheduler::preempt(Proc& p, bool requeue) {
  Cpu& c = cpus_[p.cpu_];
  c.quiet = false;
  assert(c.current == &p);
  if (p.work_done_ev_ != sim::kInvalidEvent) {
    sim_.cancel(p.work_done_ev_);
    p.work_done_ev_ = sim::kInvalidEvent;
  }
  const SimTime elapsed = sim_.now() - p.slice_start_;
  p.cpu_time_ += elapsed;
  p.remaining_ = p.remaining_ > elapsed ? p.remaining_ - elapsed : SimTime::zero();
  p.st_ = Proc::St::Idle;
  c.current = nullptr;
  disarm(c.tick_ev);
  if (requeue) make_ready(p, /*to_front=*/false);
  dispatch(p.cpu_);
}

void OsScheduler::withdraw(Proc& p) {
  if (p.st_ == Proc::St::Running) {
    preempt(p, /*requeue=*/false);
  } else if (p.queued_) {
    auto& q = cpus_[p.cpu_].queue;
    q.erase(std::find(q.begin(), q.end(), &p));
    p.queued_ = false;
    p.st_ = Proc::St::Idle;
  }
}

void OsScheduler::arm_tick(int cpu) {
  Cpu& c = cpus_[cpu];
  disarm(c.tick_ev);
  if (c.queue.empty()) return;  // sole runner keeps the CPU
  c.tick_ev = sim_.schedule_after(params_.tick, [this, cpu] {
    Cpu& cc = cpus_[cpu];
    cc.tick_ev = sim::kInvalidEvent;
    if (cc.current != nullptr && !cc.queue.empty()) {
      preempt(*cc.current, /*requeue=*/true);
    }
  });
}

void OsScheduler::disarm(sim::EventId& ev) {
  if (ev != sim::kInvalidEvent) {
    sim_.cancel(ev);
    ev = sim::kInvalidEvent;
  }
}

bool OsScheduler::cpu_quiescent(int cpu) const {
  const Cpu& c = cpus_[cpu];
  if (c.quiet) return true;
  if (c.current != nullptr || !c.queue.empty()) return false;
  for (const auto& p : procs_) {
    if (p->cpu_ == cpu && !p->quiescent()) return false;
  }
  // Nothing on this CPU can change state without passing through a
  // transition above that clears the bit, so the verdict is cacheable.
  c.quiet = true;
  return true;
}

SimTime OsScheduler::sample_dispatch_overhead(Proc& p) {
  const SimTime noise = SimTime::seconds(rng_.lognormal_median(
      params_.dispatch_noise_median.to_seconds(), params_.dispatch_noise_sigma));
  const SimTime overhead = params_.context_switch + noise + p.penalty_;
  p.penalty_ = SimTime::zero();
  return overhead;
}

void OsScheduler::maybe_arm_grab(int cpu) {
  Cpu& c = cpus_[cpu];
  if (c.grab_ev != sim::kInvalidEvent) return;  // a grab is already pending
  const SimTime d = SimTime::seconds(rng_.lognormal_median(
      params_.wakeup_grab_median.to_seconds(), params_.wakeup_grab_sigma));
  c.grab_ev = sim_.schedule_after(d, [this, cpu] {
    Cpu& cc = cpus_[cpu];
    cc.grab_ev = sim::kInvalidEvent;
    if (cc.current != nullptr && !cc.queue.empty()) {
      preempt(*cc.current, /*requeue=*/true);
    }
  });
}

}  // namespace storm::node
