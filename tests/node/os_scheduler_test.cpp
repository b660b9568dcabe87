#include "node/os_scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace storm::node {
namespace {

using sim::SimTime;
using sim::Task;
using namespace storm::sim::time_literals;

OsParams quiet_params() {
  // Deterministic-ish parameters for unit tests: negligible noise.
  OsParams p;
  p.context_switch = SimTime::zero();
  p.dispatch_noise_median = SimTime::ns(1);
  p.dispatch_noise_sigma = 0.0;
  p.wakeup_grab_median = SimTime::us(100);
  p.wakeup_grab_sigma = 0.0;
  return p;
}

struct Fixture : ::testing::Test {
  sim::Simulator sim;
  OsScheduler os{sim, quiet_params(), sim.rng().fork(1)};
};

TEST_F(Fixture, SoleProcessRunsUninterrupted) {
  Proc& p = os.create("worker", 0);
  SimTime done = SimTime::zero();
  auto t = [&]() -> Task<> {
    co_await p.compute(10_ms);
    done = sim.now();
  };
  sim.spawn(t());
  sim.run();
  EXPECT_NEAR(done.to_millis(), 10.0, 0.01);
  EXPECT_NEAR(p.cpu_time().to_millis(), 10.0, 0.01);
}

TEST_F(Fixture, SequentialComputesAccumulate) {
  Proc& p = os.create("worker", 0);
  SimTime done = SimTime::zero();
  auto t = [&]() -> Task<> {
    for (int i = 0; i < 5; ++i) co_await p.compute(2_ms);
    done = sim.now();
  };
  sim.spawn(t());
  sim.run();
  EXPECT_NEAR(done.to_millis(), 10.0, 0.05);
}

TEST_F(Fixture, TwoProcessesShareOneCpu) {
  Proc& a = os.create("a", 0);
  Proc& b = os.create("b", 0);
  SimTime done_a = SimTime::zero(), done_b = SimTime::zero();
  auto ta = [&]() -> Task<> {
    co_await a.compute(50_ms);
    done_a = sim.now();
  };
  auto tb = [&]() -> Task<> {
    co_await b.compute(50_ms);
    done_b = sim.now();
  };
  sim.spawn(ta());
  sim.spawn(tb());
  sim.run();
  // 100 ms of total work on one CPU: both finish near 100 ms.
  EXPECT_GT(std::max(done_a, done_b).to_millis(), 99.0);
  EXPECT_LT(std::max(done_a, done_b).to_millis(), 102.0);
  // Round-robin: the loser cannot finish a whole tick before the other
  // starts, so the first finisher lands well past 50 ms.
  EXPECT_GT(std::min(done_a, done_b).to_millis(), 50.0);
}

TEST_F(Fixture, ProcessesOnDifferentCpusDontContend) {
  Proc& a = os.create("a", 0);
  Proc& b = os.create("b", 1);
  SimTime done_a = SimTime::zero(), done_b = SimTime::zero();
  auto ta = [&]() -> Task<> {
    co_await a.compute(10_ms);
    done_a = sim.now();
  };
  auto tb = [&]() -> Task<> {
    co_await b.compute(10_ms);
    done_b = sim.now();
  };
  sim.spawn(ta());
  sim.spawn(tb());
  sim.run();
  EXPECT_NEAR(done_a.to_millis(), 10.0, 0.05);
  EXPECT_NEAR(done_b.to_millis(), 10.0, 0.05);
}

TEST_F(Fixture, SuspendPausesProgress) {
  Proc& p = os.create("app", 0);
  SimTime done = SimTime::zero();
  auto t = [&]() -> Task<> {
    co_await p.compute(10_ms);
    done = sim.now();
  };
  sim.spawn(t());
  sim.schedule_at(4_ms, [&] { p.set_suspended(true); });
  sim.schedule_at(24_ms, [&] { p.set_suspended(false); });
  sim.run();
  // 4 ms of progress, 20 ms suspended, 6 ms to finish: ~30 ms.
  EXPECT_NEAR(done.to_millis(), 30.0, 0.1);
  EXPECT_NEAR(p.cpu_time().to_millis(), 10.0, 0.1);
}

TEST_F(Fixture, SuspendBeforeComputeDefersStart) {
  Proc& p = os.create("app", 0);
  p.set_suspended(true);
  SimTime done = SimTime::zero();
  auto t = [&]() -> Task<> {
    co_await p.compute(5_ms);
    done = sim.now();
  };
  sim.spawn(t());
  sim.run(20_ms);
  EXPECT_EQ(done, SimTime::zero());  // still suspended
  p.set_suspended(false);
  sim.run();
  EXPECT_NEAR(done.to_millis(), 25.0, 0.1);
}

TEST_F(Fixture, SuspendedReadyProcessIsDequeued) {
  Proc& a = os.create("a", 0);
  Proc& b = os.create("b", 0);
  SimTime done_b = SimTime::zero();
  auto ta = [&]() -> Task<> { co_await a.compute(100_ms); };
  auto tb = [&]() -> Task<> {
    co_await b.compute(10_ms);
    done_b = sim.now();
  };
  sim.spawn(ta());
  sim.spawn(tb());
  // b starts queued behind a (the 100 us wakeup grab hands it the CPU
  // shortly after t=0); suspending a leaves b running alone, so b
  // completes its 10 ms of work without further interruption.
  sim.schedule_at(1_ms, [&] { a.set_suspended(true); });
  sim.run(50_ms);
  EXPECT_GT(done_b.to_millis(), 9.9);
  EXPECT_LT(done_b.to_millis(), 11.5);
}

TEST_F(Fixture, WakeupGrabPreemptsIncumbent) {
  Proc& hog = os.create("hog", 0);
  Proc& daemon = os.create("daemon", 0);
  SimTime daemon_done = SimTime::zero();
  auto th = [&]() -> Task<> { co_await hog.compute(10_sec); };
  auto td = [&]() -> Task<> {
    co_await sim.delay(5_ms);  // wake up mid-hog
    co_await daemon.compute(100_us);
    daemon_done = sim.now();
  };
  sim.spawn(th());
  sim.spawn(td());
  sim.run(1_sec);
  // Grab delay is a deterministic 100 us in quiet_params, so the
  // daemon runs at ~5.1 ms + service, far before the hog finishes.
  EXPECT_GT(daemon_done, 5_ms);
  EXPECT_LT(daemon_done.to_millis(), 5.5);
}

TEST_F(Fixture, PenaltyChargedOnNextDispatch) {
  Proc& p = os.create("app", 0);
  p.add_penalty(2_ms);
  SimTime done = SimTime::zero();
  auto t = [&]() -> Task<> {
    co_await p.compute(10_ms);
    done = sim.now();
  };
  sim.spawn(t());
  sim.run();
  EXPECT_NEAR(done.to_millis(), 12.0, 0.05);
}

TEST_F(Fixture, CpuTimeExcludesWaitTime) {
  Proc& a = os.create("a", 0);
  Proc& b = os.create("b", 0);
  auto ta = [&]() -> Task<> { co_await a.compute(20_ms); };
  auto tb = [&]() -> Task<> { co_await b.compute(20_ms); };
  sim.spawn(ta());
  sim.spawn(tb());
  sim.run();
  EXPECT_NEAR(a.cpu_time().to_millis(), 20.0, 0.1);
  EXPECT_NEAR(b.cpu_time().to_millis(), 20.0, 0.1);
  EXPECT_GT(sim.now().to_millis(), 39.9);
}

TEST_F(Fixture, ZeroWorkComputeReturnsImmediately) {
  Proc& p = os.create("app", 0);
  bool done = false;
  auto t = [&]() -> Task<> {
    co_await p.compute(SimTime::zero());
    done = true;
  };
  sim.spawn(t());
  EXPECT_TRUE(done);
}

TEST_F(Fixture, ManyProcessesRoundRobinFairly) {
  constexpr int kProcs = 8;
  std::vector<Proc*> procs;
  std::vector<SimTime> done(kProcs);
  for (int i = 0; i < kProcs; ++i)
    {
    std::string name = "p";
    name += std::to_string(i);  // separate appends: GCC PR105651 -Wrestrict
    procs.push_back(&os.create(name, 0));
  }
  auto t = [&](int i) -> Task<> {
    co_await procs[i]->compute(10_ms);
    done[i] = sim.now();
  };
  for (int i = 0; i < kProcs; ++i) sim.spawn(t(i));
  sim.run();
  // All processes complete within ~80 ms total; with a 10 ms tick each
  // finishes in the final two rounds, i.e. after 60 ms.
  for (int i = 0; i < kProcs; ++i) {
    EXPECT_GT(done[i].to_millis(), 60.0);
    EXPECT_LT(done[i].to_millis(), 82.0);
  }
}

TEST_F(Fixture, CurrentAndQueueDepthIntrospection) {
  Proc& a = os.create("a", 0);
  Proc& b = os.create("b", 0);
  auto ta = [&]() -> Task<> { co_await a.compute(5_ms); };
  auto tb = [&]() -> Task<> { co_await b.compute(5_ms); };
  sim.spawn(ta());
  sim.spawn(tb());
  sim.run(1_ms);
  // One of the two holds the CPU (the wakeup grab may already have
  // rotated them); the other waits.
  EXPECT_TRUE(os.current(0) == &a || os.current(0) == &b);
  EXPECT_EQ(os.queue_depth(0), 1u);
  sim.run();
  EXPECT_EQ(os.current(0), nullptr);
  EXPECT_EQ(os.queue_depth(0), 0u);
}

// ---- busy-wait brackets -----------------------------------------------

TEST_F(Fixture, BusyProcAloneArmsNoEvent) {
  // A busy-wait slice never completes on its own, so a busy proc with
  // the CPU to itself has nothing to schedule: no completion, no tick.
  Proc& p = os.create("poller", 0);
  p.begin_busy();
  EXPECT_TRUE(p.running());
  EXPECT_TRUE(p.busy_waiting());
  EXPECT_EQ(sim.events_pending(), 0u);
  p.end_busy();
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_TRUE(p.idle());
}

TEST_F(Fixture, BusyProcAccruesCpuTime) {
  Proc& p = os.create("poller", 0);
  p.begin_busy();
  sim.run(3_ms);
  p.end_busy();
  EXPECT_NEAR(p.cpu_time().to_millis(), 3.0, 1e-6);
  // A second bracket keeps accruing on top of the first.
  sim.run(5_ms);
  p.begin_busy();
  sim.run(9_ms);
  p.end_busy();
  EXPECT_NEAR(p.cpu_time().to_millis(), 7.0, 1e-6);
}

TEST_F(Fixture, TicksPreemptBusyProc) {
  // Two pollers on one CPU: after the first wakeup grab they alternate
  // one tick each, and every nanosecond of CPU goes to one of them.
  Proc& a = os.create("a", 0);
  Proc& b = os.create("b", 0);
  a.begin_busy();
  b.begin_busy();
  std::vector<const Proc*> holders;
  for (int i = 0; i < 10; ++i) {
    sim.run(SimTime::millis(5.0 + 10.0 * i));
    holders.push_back(os.current(0));
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(holders[i], i % 2 == 0 ? &b : &a) << "tick " << i;
  }
  EXPECT_EQ(os.queue_depth(0), 1u);
  a.end_busy();
  b.end_busy();
  EXPECT_EQ(a.cpu_time() + b.cpu_time(), sim.now());
  EXPECT_EQ(a.cpu_time(), 45_ms);
  EXPECT_EQ(sim.events_pending(), 0u);
}

TEST_F(Fixture, EndBusyWhileRunningFreesCpuForQueuedWork) {
  Proc& poller = os.create("poller", 0);
  Proc& worker = os.create("worker", 0);
  SimTime done = SimTime::zero();
  poller.begin_busy();
  auto t = [&]() -> Task<> {
    co_await sim.delay(1_ms);
    co_await worker.compute(2_ms);
    done = sim.now();
  };
  sim.spawn(t());
  // The worker queues at 1 ms; the grab would hand it the CPU at
  // 1.1 ms, but the poller stops at 1.05 ms and the worker takes over.
  sim.schedule_at(SimTime::us(1050), [&] {
    EXPECT_TRUE(poller.running());
    poller.end_busy();
    EXPECT_TRUE(poller.idle());
  });
  sim.run();
  EXPECT_NEAR(done.to_millis(), 3.05, 1e-3);
  EXPECT_NEAR(poller.cpu_time().to_millis(), 1.05, 1e-6);
  EXPECT_FALSE(poller.busy_waiting());
}

TEST_F(Fixture, EndBusyWhileQueuedDequeues) {
  Proc& hog = os.create("hog", 0);
  Proc& poller = os.create("poller", 0);
  SimTime done = SimTime::zero();
  auto t = [&]() -> Task<> {
    co_await hog.compute(20_ms);
    done = sim.now();
  };
  sim.spawn(t());
  poller.begin_busy();
  EXPECT_EQ(os.queue_depth(0), 1u);
  sim.schedule_at(50_us, [&] { poller.end_busy(); });
  sim.run();
  EXPECT_EQ(os.queue_depth(0), 0u);
  EXPECT_TRUE(poller.idle());
  EXPECT_EQ(poller.cpu_time(), SimTime::zero());
  // The hog was never preempted: the grab found an empty queue.
  EXPECT_NEAR(done.to_millis(), 20.0, 1e-3);
}

// ---- cancel_work ------------------------------------------------------

TEST_F(Fixture, CancelWorkWhileRunningReturnsAtCancel) {
  Proc& p = os.create("app", 0);
  SimTime done = SimTime::zero();
  auto t = [&]() -> Task<> {
    co_await p.compute(10_ms);
    done = sim.now();
  };
  sim.spawn(t());
  sim.schedule_at(3_ms, [&] { p.cancel_work(); });
  sim.run();
  EXPECT_EQ(done, 3_ms);
  EXPECT_EQ(p.cpu_time(), 3_ms);
  EXPECT_TRUE(p.idle());
  EXPECT_EQ(os.current(0), nullptr);
}

TEST_F(Fixture, CancelWorkWhileQueuedReturnsAtCancel) {
  Proc& hog = os.create("hog", 0);
  Proc& p = os.create("app", 0);
  SimTime done = SimTime::zero();
  auto th = [&]() -> Task<> { co_await hog.compute(10_ms); };
  auto tp = [&]() -> Task<> {
    co_await p.compute(10_ms);
    done = sim.now();
  };
  sim.spawn(th());
  sim.spawn(tp());
  EXPECT_EQ(os.queue_depth(0), 1u);
  sim.schedule_at(50_us, [&] { p.cancel_work(); });
  sim.run();
  EXPECT_EQ(done, 50_us);
  EXPECT_EQ(p.cpu_time(), SimTime::zero());
  EXPECT_EQ(os.queue_depth(0), 0u);
  EXPECT_NEAR(hog.cpu_time().to_millis(), 10.0, 1e-3);
}

TEST_F(Fixture, CancelWorkWhileSuspendedReturnsAtCancel) {
  Proc& p = os.create("app", 0);
  SimTime done = SimTime::zero();
  auto t = [&]() -> Task<> {
    co_await p.compute(10_ms);
    done = sim.now();
  };
  sim.spawn(t());
  sim.schedule_at(2_ms, [&] { p.set_suspended(true); });
  sim.schedule_at(5_ms, [&] { p.cancel_work(); });
  // Resuming after the cancel finds no work: the CPU stays idle.
  sim.schedule_at(6_ms, [&] { p.set_suspended(false); });
  sim.run();
  EXPECT_EQ(done, 5_ms);
  EXPECT_EQ(p.cpu_time(), 2_ms);
  EXPECT_EQ(os.current(0), nullptr);
  EXPECT_TRUE(p.idle());
}

// ---- wake-up contract -------------------------------------------------

TEST(OsSchedulerWakeups, ComputeWakesOnlyOnCompletion) {
  // compute() resumes its caller once, when the work is done. Each
  // suspend/resume cycle costs only the two test events that drive
  // it: the preemption and the re-dispatch wake nobody. The total is
  // the 2k driving events + the completion event + the one resume.
  for (const int k : {0, 1, 3, 10}) {
    sim::Simulator sim;
    OsScheduler os{sim, quiet_params(), sim.rng().fork(1)};
    Proc& p = os.create("app", 0);
    SimTime done = SimTime::zero();
    auto t = [&]() -> Task<> {
      co_await p.compute(10_ms);
      done = sim.now();
    };
    sim.spawn(t());
    for (int i = 0; i < k; ++i) {
      sim.schedule_at(SimTime::ms(1 + 2 * i), [&] { p.set_suspended(true); });
      sim.schedule_at(SimTime::ms(2 + 2 * i), [&] { p.set_suspended(false); });
    }
    EXPECT_EQ(sim.run(), static_cast<std::uint64_t>(2 * k + 2)) << "k=" << k;
    EXPECT_NEAR(done.to_millis(), 10.0 + k, 1e-3) << "k=" << k;
    EXPECT_EQ(p.cpu_time(), done - SimTime::ms(k)) << "k=" << k;
  }
}

}  // namespace
}  // namespace storm::node
