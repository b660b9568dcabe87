// The four benchmark workloads. Each op builds its inputs from the
// seed (timed as setup), runs the simulator through the public step
// loop (timed as the run phase) and then checks and digests the
// simulated outputs (timed apart; never part of setup_s or wall_s).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>

#include "apps/sweep3d.hpp"
#include "apps/workload.hpp"
#include "bench.hpp"
#include "fabric/fault_campaign.hpp"
#include "query/invariants.hpp"
#include "query/snapshot.hpp"
#include "storm/cluster.hpp"
#include "storm/replication/replication.hpp"
#include "telemetry/timeseries.hpp"
#include "telemetry/tracing.hpp"

namespace perfbench {

namespace {

using namespace storm;
using namespace storm::sim::time_literals;
using namespace storm::sim::byte_literals;
using sim::SimTime;

constexpr double kNs = 1e-9;

/// One cluster's life inside an op: timed setup, the step loop with
/// slice sampling, and the output check. An op runs one or more cells
/// back to back; its setup_s and wall_s are the sums over its cells.
class Cell {
 public:
  Cell(const OpOptions& o, OpResult& r, SimTime slice)
      : o_(o), r_(r), sp_(*o.spans), slice_(slice) {}

  void begin_setup() {
    t0_ = host_ns();
    root_ = sp_.open("setup");
  }
  /// Pushes the counting middleware in traced ops; ends the setup.
  /// `count_fabric` = false leaves the chain empty: any middleware makes
  /// the fabric decide a multicast per destination node, which on a
  /// 64k-node plane costs far more than the workload itself.
  void end_setup(core::Cluster& c, bool count_fabric = true) {
    if (o_.traced && count_fabric) {
      Scope s(sp_, "fabric.push");
      counter_ = std::make_shared<OpCounter>();
      c.fabric().push(counter_);
    }
    sp_.close(root_);
    r_.setup_s += (host_ns() - t0_) * kNs;
  }

  void begin_run() {
    t0_ = host_ns();
    root_ = sp_.open("run");
  }

  /// The public step loop of Cluster::run_until_all_complete, extended
  /// by one condition: jobs still due to arrive. Samples host time at
  /// every simulated slice boundary the clock crosses.
  bool step_loop(sim::Simulator& sim, core::Cluster& c, const int& submitted,
                 int total, SimTime limit) {
    Scope s(sp_, "sim.step_loop");
    const std::int64_t slice_ns = slice_.raw_ns();
    std::int64_t next = (sim.now().raw_ns() / slice_ns + 1) * slice_ns;
    std::int64_t last = host_ns();
    std::size_t peak = 0;
    bool done = true;
    while (submitted < total || !c.all_jobs_terminal()) {
      if (sim.now() > limit || !sim.step()) {
        done = false;
        break;
      }
      if (sim.now().raw_ns() >= next) {
        const std::int64_t t = host_ns();
        r_.slice_ms.push_back((t - last) * 1e-6);
        last = t;
        next = (sim.now().raw_ns() / slice_ns + 1) * slice_ns;
        peak = std::max(peak, sim.events_pending());
      }
    }
    r_.sim_s += sim.now().to_seconds();
    auto& pk = r_.counts["sim.pending_peak"];
    pk = std::max(pk, static_cast<double>(peak));
    return done;
  }

  void end_run() {
    sp_.close(root_);
    r_.wall_s += (host_ns() - t0_) * kNs;
  }

  /// Check and digest the outputs, then read the per-layer counts.
  /// `state_json` is the snapshot the run already exported, if any.
  void check(sim::Simulator& sim, core::Cluster& c, bool loop_done,
             Digest& d, std::string state_json = {}) {
    Scope chk(sp_, "check");
    if (!loop_done) fail("step loop ended before every job finished");
    for (std::size_t i = 0; i < c.job_count(); ++i) {
      const core::Job& j = c.job(static_cast<core::JobId>(i));
      if (j.state() != core::JobState::Completed) {
        fail("job " + j.spec().name + " ended " + core::to_string(j.state()));
      }
      const core::JobTimes& t = j.times();
      d.i64(static_cast<std::int64_t>(i));
      d.i64(static_cast<std::int64_t>(j.state()));
      d.i64(t.send_time().raw_ns());
      d.i64(t.execute_time().raw_ns());
      d.i64(t.launch_time().raw_ns());
      r_.job_nodes.push_back(j.nodes().count);
    }
    if (state_json.empty()) {
      Scope s(sp_, "query.capture");
      state_json = query::to_json(query::capture(c));
    }
    d.str(state_json);
    {
      Scope s(sp_, "query.invariants");
      const query::InvariantReport rep = query::check_invariants(c);
      r_.counts["query.violations"] += static_cast<double>(rep.violations.size());
      if (!rep.ok()) fail("invariant " + rep.violations.front().invariant);
    }
    Scope s(sp_, "telemetry.read");
    const telemetry::MetricsRegistry& m = c.metrics();
    auto add = [&](const char* key, const char* counter) {
      const telemetry::Counter* k = m.find_counter(counter);
      r_.counts[key] += k != nullptr ? static_cast<double>(k->value()) : 0.0;
    };
    add("node.gang_switches", "nm.strobe.switches");
    add("storm.mm_strobes", "mm.strobes");
    add("storm.nm_cmds", "nm.cmds");
    add("storm.launches", "mm.launches");
    add("storm.ft_chunks", "ft.chunks");
    add("storm.ft_flow_polls", "ft.flow_polls");
    r_.counts["sim.events"] += static_cast<double>(sim.events_executed());
    r_.counts["sim.periodic_saved"] +=
        static_cast<double>(sim.periodic_stats().coalesced);
    if (counter_ != nullptr) {
      const OpCounter& k = *counter_;
      r_.counts["fabric.ops.xfer"] += static_cast<double>(k.xfer);
      r_.counts["fabric.ops.caw"] += static_cast<double>(k.caw);
      r_.counts["fabric.ops.cmd_deliver"] += static_cast<double>(k.cmd_deliver);
      r_.counts["fabric.ops.local"] += static_cast<double>(k.local);
      r_.counts["fabric.caw_retries"] += static_cast<double>(k.caw_retries);
      r_.counts["fabric.dropped"] += static_cast<double>(k.dropped);
      r_.counts["net.payload_bytes"] += static_cast<double>(k.payload_bytes);
      r_.counts["net.control_bytes"] += static_cast<double>(k.control_bytes);
    }
    if (const telemetry::CausalTracer* tr = c.tracer(); tr != nullptr) {
      r_.counts["telemetry.spans"] +=
          static_cast<double>(tr->buffer().spans().size());
      r_.counts["telemetry.spans_dropped"] +=
          static_cast<double>(tr->buffer().dropped());
    }
    if (const telemetry::TimeSeriesRecorder* ts = c.timeseries();
        ts != nullptr) {
      r_.counts["telemetry.windows"] +=
          static_cast<double>(ts->windows_recorded());
    }
    r_.nodes = std::max(r_.nodes, c.config().nodes);
    r_.cpus_per_node = c.config().app_cpus_per_node;
    r_.mpl = c.config().storm.max_mpl;
  }

 private:
  void fail(const std::string& why) {
    if (r_.ok) r_.failure = why;
    r_.ok = false;
  }

  const OpOptions& o_;
  OpResult& r_;
  SpanLog& sp_;
  SimTime slice_;
  std::int64_t t0_ = 0;
  int root_ = -1;
  std::shared_ptr<OpCounter> counter_;
};

/// Submit `specs[i]` at `at[i]` from inside the simulation, spanned as
/// storm.submit; arrivals at time zero submit before the loop starts.
class Arrivals {
 public:
  Arrivals(SpanLog& sp, core::Cluster& c) : sp_(sp), c_(c) {}
  void add(SimTime at, core::JobSpec spec) {
    at_.push_back(at);
    specs_.push_back(std::move(spec));
  }
  int total() const { return static_cast<int>(specs_.size()); }
  const int& submitted() const { return submitted_; }
  void start(sim::Simulator& sim) {
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      if (at_[i] <= sim.now()) {
        submit(i);
      } else {
        sim.schedule_at(at_[i], [this, i] { submit(i); });
      }
    }
  }

 private:
  void submit(std::size_t i) {
    Scope s(sp_, "storm.submit");
    c_.submit(specs_[i]);
    ++submitted_;
  }

  SpanLog& sp_;
  core::Cluster& c_;
  std::vector<SimTime> at_;
  std::vector<core::JobSpec> specs_;
  int submitted_ = 0;
};

double app_runtime_s(const core::Cluster& c) {
  SimTime first = SimTime::max(), last = SimTime::zero();
  for (std::size_t i = 0; i < c.job_count(); ++i) {
    const core::JobTimes& t = c.job(static_cast<core::JobId>(i)).times();
    first = std::min(first, t.first_proc_started);
    last = std::max(last, t.last_proc_exited);
  }
  return (last - first).to_seconds();
}

void print_anchor(const char* what, double simulated, double anchor,
                  const char* unit) {
  std::printf("anchor %-40s simulated %10.3f %s  paper %8.3f %s  error %+7.2f%%\n",
              what, simulated, unit, anchor, unit,
              (simulated - anchor) / anchor * 100.0);
}

// --- gang_timeslice ------------------------------------------------------------

core::ClusterConfig gang_config() {
  core::ClusterConfig cfg = core::ClusterConfig::es40(32);
  cfg.app_cpus_per_node = 2;  // 32 nodes / 64 PEs, as in Figure 4
  cfg.storm.quantum = 1_ms;
  cfg.storm.max_mpl = 2;
  return cfg;
}

apps::Sweep3DParams gang_sweep(bool shortened) {
  apps::Sweep3DParams p;
  p.target_runtime = shortened ? 300_ms : 6_sec;
  return p;
}

/// Runs `njobs` Sweep3D gangs; returns runtime/MPL in simulated s.
double run_gang(const OpOptions& o, OpResult& r, Digest& d, int njobs) {
  SpanLog& sp = *o.spans;
  Cell cell(o, r, 10_ms);
  cell.begin_setup();
  core::AppProgram program;
  {
    Scope s(sp, "apps.generate");
    program = apps::sweep3d(gang_sweep(o.shortened));
  }
  sim::Simulator sim(mix_seed(o.seed, 1));
  std::optional<core::Cluster> c;
  {
    Scope s(sp, "storm.cluster_ctor");
    c.emplace(sim, gang_config());
  }
  cell.end_setup(*c);

  cell.begin_run();
  Arrivals arr(sp, *c);
  for (int j = 0; j < njobs; ++j) {
    arr.add(SimTime::zero(), {.name = "sweep" + std::to_string(j),
                              .binary_size = 4_MB,
                              .npes = 64,
                              .program = program});
  }
  arr.start(sim);
  const bool done =
      cell.step_loop(sim, *c, arr.submitted(), arr.total(), 3600_sec);
  cell.end_run();
  cell.check(sim, *c, done, d);
  return app_runtime_s(*c) / njobs;
}

OpResult gang_timeslice(const OpOptions& o) {
  OpResult r;
  Digest d;
  r.sim_values["runtime_per_mpl_s"] = run_gang(o, r, d, 2);
  r.digest = d.value();
  return r;
}

void gang_anchors(const OpOptions& o, const OpResult& first) {
  // Figure 4: runtime/MPL is flat in the quantum — at ~1-2 ms two
  // gangs take no longer per instance than one job alone.
  OpResult r;
  Digest d;
  const double mpl1 = run_gang(o, r, d, 1);
  const double mpl2 = first.sim_values.at("runtime_per_mpl_s");
  std::printf("anchor fig04 runtime/MPL at 1 ms: MPL2 %.4f s, MPL1 %.4f s\n",
              mpl2, mpl1);
  print_anchor("fig04 (runtime/MPL)/(MPL-1 runtime), flat", mpl2 / mpl1, 1.0,
               "x");
}

// --- launch_storm --------------------------------------------------------------

core::ClusterConfig launch_config(SimTime quantum) {
  core::ClusterConfig cfg = core::ClusterConfig::es40(64);
  cfg.storm.quantum = quantum;
  return cfg;
}

/// Streams per op in launch_storm and recovery_observed. One stream's
/// cost swings with its seed (queueing and fault timing compound), so
/// an op sums several independent streams to keep its work steady.
int streams(const OpOptions& o, int full) { return o.shortened ? 1 : full; }

/// Jobs arrive evenly spaced in generated order: the seed picks each
/// job's width, runtime and image, not the length of the stream.
void space_arrivals(std::vector<apps::GeneratedJob>& trace, SimTime gap) {
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].arrival = gap * static_cast<std::int64_t>(i);
  }
}

void launch_stream(const OpOptions& o, OpResult& r, Digest& d,
                   std::uint64_t seed) {
  SpanLog& sp = *o.spans;
  Cell cell(o, r, 10_ms);
  cell.begin_setup();
  std::vector<apps::GeneratedJob> trace;
  {
    Scope s(sp, "apps.generate");
    apps::WorkloadParams p;
    p.jobs = o.shortened ? 12 : 150;
    p.min_pes = 1;
    p.max_pes = 256;
    p.min_runtime = 5_ms;
    p.max_runtime = 50_ms;
    p.seed = mix_seed(seed, 2);
    trace = apps::generate_workload(p);
    space_arrivals(trace, 40_ms);
    // Binary images of 4-12 MB, drawn from the same seed.
    sim::Rng rng(mix_seed(seed, 3));
    for (auto& j : trace) {
      j.spec.binary_size = static_cast<sim::Bytes>(4 + rng.below(9)) * 1_MB;
    }
  }
  sim::Simulator sim(mix_seed(seed, 4));
  std::optional<core::Cluster> c;
  {
    Scope s(sp, "storm.cluster_ctor");
    // A 10 ms quantum keeps strobe handling (and so the OsScheduler)
    // a small share: the transfer pipeline and the MM queue dominate.
    c.emplace(sim, launch_config(10_ms));
  }
  {
    Scope s(sp, "storm.network_load");
    c->start_network_load();
  }
  cell.end_setup(*c);

  cell.begin_run();
  Arrivals arr(sp, *c);
  for (auto& j : trace) arr.add(j.arrival, std::move(j.spec));
  arr.start(sim);
  const bool done =
      cell.step_loop(sim, *c, arr.submitted(), arr.total(), 3600_sec);
  cell.end_run();
  cell.check(sim, *c, done, d);
}

OpResult launch_storm(const OpOptions& o) {
  OpResult r;
  Digest d;
  for (int k = 0; k < streams(o, 6); ++k) {
    launch_stream(o, r, d, mix_seed(o.seed, 100 + k));
  }
  r.digest = d.value();
  return r;
}

double launch_12mb_ms(bool loaded) {
  sim::Simulator sim(0xF16'03ULL);
  core::Cluster c(sim, launch_config(1_ms));  // as in Figures 2/3
  if (loaded) c.start_network_load();
  const core::JobId id =
      c.submit({.name = "noop", .binary_size = 12_MB, .npes = 256});
  c.run_until_all_complete(600_sec);
  return c.job(id).times().launch_time().to_millis();
}

void launch_anchors(const OpOptions&, const OpResult&) {
  // Figures 2/3: a 12 MB binary on 256 PEs launches in ~110 ms on an
  // idle machine and in at most ~1.5 s under network load.
  print_anchor("fig02 12 MB / 256 PE launch, unloaded", launch_12mb_ms(false),
               110.0, "ms");
  print_anchor("fig03 12 MB / 256 PE launch, net-loaded (<=)",
               launch_12mb_ms(true), 1500.0, "ms");
}

// --- terascale_plane -----------------------------------------------------------

core::ClusterConfig plane_config(int nodes) {
  core::ClusterConfig cfg = core::ClusterConfig::es40(nodes);
  cfg.plane_mode = true;
  cfg.storm.quantum = 1_ms;
  cfg.storm.max_mpl = 2;
  return cfg;
}

/// One plane-mode cluster of `nodes` running `specs` from time zero.
/// Returns the launch time of its first job in simulated ms.
double run_plane(const OpOptions& o, OpResult& r, Digest& d, int nodes,
                 const std::vector<core::JobSpec>& specs, std::uint64_t salt) {
  SpanLog& sp = *o.spans;
  Cell cell(o, r, 5_ms);
  cell.begin_setup();
  sim::Simulator sim(mix_seed(o.seed, salt));
  std::optional<core::Cluster> c;
  {
    Scope s(sp, "storm.cluster_ctor");
    c.emplace(sim, plane_config(nodes));
  }
  cell.end_setup(*c, /*count_fabric=*/false);
  cell.begin_run();
  Arrivals arr(sp, *c);
  for (const auto& s : specs) arr.add(SimTime::zero(), s);
  arr.start(sim);
  const bool done =
      cell.step_loop(sim, *c, arr.submitted(), arr.total(), 3600_sec);
  cell.end_run();
  cell.check(sim, *c, done, d);
  return c->job(0).times().launch_time().to_millis();
}

OpResult terascale_plane(const OpOptions& o) {
  OpResult r;
  Digest d;
  SpanLog& sp = *o.spans;
  const int small = o.shortened ? 1024 : 16384;
  const int large = o.shortened ? 4096 : 65536;
  // Two full-machine gangs whose per-PE work comes from the seeded
  // stream; generated once, outside the cells, and timed as setup. They
  // run on the small machine: at 64k nodes the per-strobe range sweeps
  // spill out of the core's L2, and the op's time then swings with the
  // neighbours' memory traffic by more than the benchmark's bounds.
  std::vector<core::JobSpec> gangs;
  const std::int64_t g0 = host_ns();
  const int root = sp.open("setup");
  {
    Scope s(sp, "apps.generate");
    apps::WorkloadParams p;
    p.jobs = 2;
    p.min_pes = p.max_pes = small * 4;
    p.min_runtime = o.shortened ? 45_ms : 4500_ms;
    p.max_runtime = o.shortened ? 50_ms : 5000_ms;
    p.binary_size = 1_MB;
    p.seed = mix_seed(o.seed, 5);
    for (auto& j : apps::generate_workload(p)) {
      j.spec.plane_work = j.true_runtime;
      gangs.push_back(std::move(j.spec));
    }
  }
  sp.close(root);
  r.setup_s += (host_ns() - g0) * kNs;
  auto launch = [](int nodes) {
    return std::vector<core::JobSpec>{
        {.name = "noop", .binary_size = 12_MB, .npes = nodes * 4}};
  };
  for (const int n : {small, large / 2, large}) {
    r.sim_values["launch_ms@" + std::to_string(n)] =
        run_plane(o, r, d, n, launch(n), static_cast<std::uint64_t>(n));
  }
  run_plane(o, r, d, small, gangs, 8);
  r.digest = d.value();
  return r;
}

void terascale_anchors(const OpOptions&, const OpResult& first) {
  // The paper measures 64 nodes only; the plane extrapolates. Print
  // the simulated launch curve beside the 64-node anchor for scale.
  for (const auto& [k, v] : first.sim_values) {
    std::printf("anchor none (extrapolation) %-24s simulated %10.3f ms  "
                "paper 64-node launch 110 ms\n",
                k.c_str(), v);
  }
}

// --- recovery_observed -----------------------------------------------------------

core::ClusterConfig recovery_config() {
  core::ClusterConfig cfg = core::ClusterConfig::es40(16);
  cfg.storm.quantum = 10_ms;
  cfg.storm.heartbeat_enabled = true;
  cfg.storm.heartbeat_period_quanta = 5;  // 50 ms heartbeat
  cfg.storm.replication_enabled = true;   // quorum MMs
  // A job hit by several faults in one stream is requeued each time
  // rather than aborted by the restart budget: every abort is then a
  // failure of the run.
  cfg.storm.max_job_restarts = 16;
  return cfg;
}

/// Re-checks the invariant registry every quantum from inside the
/// simulation (the InvariantProbe's schedule, with a span per check).
struct InvariantTicker {
  sim::Simulator& sim;
  core::Cluster& c;
  SpanLog& sp;
  OpResult& r;
  SimTime period;

  void arm() {
    sim.schedule_after(period, [this] { tick(); });
  }
  void tick() {
    {
      Scope s(sp, "query.invariants");
      const query::InvariantReport rep = query::check_invariants(c);
      r.counts["query.violations"] +=
          static_cast<double>(rep.violations.size());
      if (!rep.ok() && r.probe_note.empty()) {
        r.probe_note = rep.violations.front().invariant + ": " +
                       rep.violations.front().detail + " at " +
                       std::to_string(sim.now().to_millis()) + " ms";
      }
    }
    arm();
  }
};

void recovery_stream(const OpOptions& o, OpResult& r, Digest& d,
                     std::uint64_t seed) {
  SpanLog& sp = *o.spans;
  Cell cell(o, r, 10_ms);
  cell.begin_setup();
  const core::ClusterConfig cfg = recovery_config();
  std::vector<apps::GeneratedJob> trace;
  {
    Scope s(sp, "apps.generate");
    apps::WorkloadParams p;
    p.jobs = o.shortened ? 6 : 30;
    p.min_pes = 1;
    p.max_pes = 32;
    p.min_runtime = 100_ms;
    p.max_runtime = 300_ms;
    p.binary_size = 2_MB;
    p.seed = mix_seed(seed, 9);
    trace = apps::generate_workload(p);
    space_arrivals(trace, 80_ms);
  }
  sim::Simulator sim(mix_seed(seed, 10));
  std::optional<core::Cluster> c;
  {
    Scope s(sp, "storm.cluster_ctor");
    c.emplace(sim, cfg);
  }
  {
    Scope s(sp, "telemetry.enable");
    c->enable_fabric_metrics();
    c->enable_tracing();
    c->enable_timeseries(telemetry::TimeSeriesOptions{});
  }
  {
    Scope s(sp, "fabric.campaign");
    fabric::FaultCampaign::SeedSpec spec;
    spec.nodes = cfg.nodes;
    spec.crashes = 2;
    spec.window_start = 300_ms;
    spec.window_end = o.shortened ? 600_ms : 2000_ms;
    spec.min_downtime = 500_ms;
    spec.max_downtime = 1200_ms;
    for (int k = 0; k < c->replication()->replicas(); ++k) {
      spec.protect.push_back(c->replication()->node_of_rank(k));
    }
    sim::Rng rng(mix_seed(seed, 11));
    fabric::FaultCampaign campaign = fabric::FaultCampaign::seeded(rng, spec);
    // The leader's MM dæmon dies once, mid-run.
    campaign.crash_primary_mm(
        SimTime::millis(o.shortened ? 400.0 : rng.uniform(800.0, 1500.0)));
    fabric::CampaignHooks hooks;
    core::Cluster* cp = &*c;
    hooks.crash_node = [cp](int n) { cp->crash_node(n); };
    hooks.recover_node = [cp](int n) { cp->recover_node(n); };
    hooks.crash_primary_mm = [cp] { cp->crash_mm(); };
    campaign.arm(sim, &c->fabric(), std::move(hooks));
  }
  cell.end_setup(*c);

  cell.begin_run();
  InvariantTicker ticker{sim, *c, sp, r, cfg.storm.quantum};
  ticker.arm();
  Arrivals arr(sp, *c);
  for (auto& j : trace) arr.add(j.arrival, std::move(j.spec));
  arr.start(sim);
  const bool done =
      cell.step_loop(sim, *c, arr.submitted(), arr.total(), 3600_sec);
  // Every program export is on: metrics, time series, causal trace
  // and the state snapshot, as a run with all export flags writes them.
  std::string state_json;
  {
    Scope s(sp, "telemetry.export");
    (void)c->metrics().to_json();
    (void)c->timeseries()->snapshot().to_json();
    (void)telemetry::to_perfetto_json(c->tracer()->buffer());
  }
  {
    Scope s(sp, "query.capture");
    state_json = query::to_json(query::capture(*c));
  }
  cell.end_run();
  cell.check(sim, *c, done, d, std::move(state_json));
}

OpResult recovery_observed(const OpOptions& o) {
  OpResult r;
  Digest d;
  for (int k = 0; k < streams(o, 8); ++k) {
    recovery_stream(o, r, d, mix_seed(o.seed, 200 + k));
  }
  r.digest = d.value();
  return r;
}

void recovery_anchors(const OpOptions&, const OpResult&) {
  std::printf("anchor none: the paper reports no recovery figure\n");
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"gang_timeslice",
       "two Sweep3D gangs at MPL 2, 1 ms quantum (Fig. 4): OsScheduler, "
       "strobes and the engine heap",
       gang_timeslice, gang_anchors},
      {"launch_storm",
       "6 seeded streams of 150 short jobs, 4-12 MB binaries, network "
       "load: file transfer, CAW flow control, MM queue",
       launch_storm, launch_anchors},
      {"terascale_plane",
       "plane-mode launches at 16k/32k/64k nodes and two 16k-node gangs: "
       "range events, setup and memory",
       terascale_plane, terascale_anchors},
      {"recovery_observed",
       "8 seeded fault campaigns of 30 jobs (2 node crashes + MM crash, "
       "quorum replication), every export on: observability cost",
       recovery_observed, recovery_anchors},
  };
  return all;
}

// --- small shared helpers ---------------------------------------------------------

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + salt * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void OpCounter::observe(const fabric::Envelope& e, const fabric::Action& a) {
  using fabric::OpKind;
  if (fabric::is_local_op(e.op)) {
    ++local;
    return;
  }
  if (a.drop) {
    ++dropped;
    return;
  }
  const auto cls = static_cast<std::size_t>(e.cls());
  switch (e.op) {
    case OpKind::Xfer:
      ++xfer;
      (e.cls() == fabric::MsgClass::LaunchChunk ? payload_bytes
                                                : control_bytes) += e.bytes;
      break;
    case OpKind::CommandMulticast:
      control_bytes += e.bytes;
      break;
    case OpKind::CommandDeliver:
      ++cmd_deliver;
      break;
    case OpKind::CompareAndWrite: {
      ++caw;
      control_bytes += static_cast<std::int64_t>(
          fabric::ControlMessage::wire_size(e.cls()));
      const std::int64_t ka = e.msg.word_a(), kb = e.msg.word_b();
      if (caw_seen_[cls] && ka == last_a_[cls] && kb == last_b_[cls]) {
        ++caw_retries;
      }
      caw_seen_[cls] = true;
      last_a_[cls] = ka;
      last_b_[cls] = kb;
      break;
    }
    default:
      break;
  }
}

}  // namespace perfbench
