// The Node Manager (NM): one dæmon per compute node (Table 2).
//
// Responsibilities (Section 2.1): finding available PLs for a job
// launch, receiving the file fragments the MM broadcasts, scheduling
// and descheduling local processes on gang-scheduling strobes,
// detecting PL/application termination, and — on the recovery path —
// cancelling the local PEs of a killed job incarnation.
//
// The NM is itself a simulated OS process pinned to the node's dæmon
// CPU, so every microsecond it spends writing fragments or enacting a
// strobe is real CPU time that contends with co-located work — the
// effect the CPU-loaded experiment of Figure 3 measures.
//
// Crash model: crash() kills everything the dæmon knows (run lists,
// fork/exit counters, in-flight receive loops) and cancels the local
// PEs' CPU work; restart() brings the dæmon back with a clean slate,
// ready to re-register with the MM through the heartbeat protocol.
#pragma once

#include <unordered_map>
#include <vector>

#include "node/machine.hpp"
#include "storm/protocol.hpp"
#include "telemetry/tracing.hpp"

namespace storm::telemetry {
class Counter;
class Gauge;
class Histogram;
}

namespace storm::core {

class Cluster;
class ProgramLauncher;

struct StormParams;  // defined in cluster.hpp

class NodeManager {
 public:
  NodeManager(Cluster& cluster, int node);
  NodeManager(const NodeManager&) = delete;
  NodeManager& operator=(const NodeManager&) = delete;

  /// Spawn the command-processing loop.
  void start();
  /// Node crash: discard all local dæmon state, cancel local PE work,
  /// and ignore commands until restart(). In-flight receive loops see
  /// the epoch bump and abandon their chunks.
  void crash();
  /// Recovery: come back with a clean slate (crash() wiped it).
  void restart();
  /// Legacy name for crash().
  void stop() { crash(); }
  bool stopped() const { return stopped_; }

  int node() const { return node_; }
  sim::Channel<fabric::TracedCommand>& mailbox() { return mailbox_; }
  node::Proc& proc() { return *proc_; }

  int current_row() const { return current_row_; }

  /// Deepest the command queue has ever been — the overload indicator
  /// for quanta below the feasibility floor (Section 3.2.1).
  std::size_t max_mailbox_depth() const { return max_depth_; }

  // --- callbacks from ProgramLauncher ---------------------------------
  void register_pe(Job& job, int incarnation, int rank, node::Proc* proc);
  void on_forked(Job& job, int incarnation);
  void on_exit(Job& job, int incarnation, int rank);

  // --- batched periodic sweep (DESIGN §2.3) ---------------------------
  /// Command delivery entry point used by Cluster::deliver_command.
  /// Normally a mailbox put; while an absorb window is open the command
  /// is held and flushed into the mailbox when the window closes — the
  /// dæmon would have been mid-compute either way, so the command is
  /// first looked at at the same instant as on the event-driven path.
  void deliver(fabric::TracedCommand tc);

  /// True when the dæmon is parked on an empty mailbox with nothing
  /// else able to touch its CPU: a strobe or heartbeat may then be
  /// absorbed without waking the coroutine/run-queue machinery.
  bool can_absorb_periodic();

  /// Absorb one Strobe/Heartbeat at the current time. Performs exactly
  /// the event-driven path's bookkeeping (metrics, span begin, one
  /// dispatch-noise RNG draw from the node's OS stream) and schedules a
  /// single completion event at t + cost + dispatch overhead — where
  /// the event-driven path would have spent three events and a full
  /// dispatch/finish cycle.
  void absorb_periodic(const fabric::TracedCommand& tc);

 private:
  sim::Task<> run();
  sim::Task<> receive_file(JobId job, int incarnation, int chunks,
                           sim::Bytes chunk_size);
  sim::Task<> handle_launch(Job& job, int incarnation,
                            fabric::TraceContext ctx);
  void handle_kill(JobId job, int incarnation);
  void enact_row(int row);
  void complete_window();

  struct LocalPe {
    Job* job;
    int incarnation;
    int rank;
    int cpu;
    int row;
    node::Proc* proc;
    bool exited = false;
  };

  Cluster& cluster_;
  int node_;
  node::Proc* proc_ = nullptr;
  sim::Channel<fabric::TracedCommand> mailbox_;
  bool stopped_ = false;
  int crash_epoch_ = 0;  // bumped per crash; receive loops snapshot it
  int current_row_ = 0;
  std::size_t max_depth_ = 0;

  std::vector<LocalPe> pes_;
  std::unordered_map<JobId, int> forked_;
  std::unordered_map<JobId, int> exited_;

  // Absorb-window state: one periodic command being serviced on the
  // fast path. Commands arriving mid-window queue in window_pending_
  // (the event-driven dæmon would have been computing; its mailbox
  // backlog is only ever *observed* when the window ends).
  bool windowed_ = false;
  sim::SimTime window_start_{};
  sim::EventId window_ev_ = sim::kInvalidEvent;
  fabric::ControlMessage window_cmd_{};
  telemetry::TraceSpan window_span_;
  std::vector<fabric::TracedCommand> window_pending_;
  int active_receives_ = 0;  // in-flight receive_file coroutines

  // Cluster-wide telemetry instruments, shared by every NM (per-node
  // series would explode the registry at 64+ nodes; the aggregate is
  // what the overhead analysis wants).
  telemetry::Counter* mt_cmds_ = nullptr;            // nm.cmds
  telemetry::Counter* mt_strobe_switch_ = nullptr;   // nm.strobe.switches
  telemetry::Counter* mt_strobe_idle_ = nullptr;     // nm.strobe.idle
  telemetry::Counter* mt_chunks_ = nullptr;          // nm.chunks
  telemetry::Counter* mt_kills_ = nullptr;           // nm.kills
  telemetry::Histogram* mt_chunk_wait_ = nullptr;    // nm.chunk.wait_ns
  telemetry::Histogram* mt_chunk_write_ = nullptr;   // nm.chunk.write_ns
  telemetry::Gauge* mt_mailbox_depth_ = nullptr;     // nm.mailbox.max_depth
  // Lazily resolved on the first absorbed heartbeat: heartbeats are
  // off in the pinned figures and the registry serialises every
  // registered series, so eager registration would change --metrics.
  telemetry::Counter* mt_hb_batched_ = nullptr;      // nm.heartbeat.batched
};

/// The Program Launcher (PL): one dæmon per potential process — number
/// of app CPUs x desired multiprogramming level (Table 2). Forks and
/// supervises exactly one application process at a time, reporting its
/// termination back to the NM.
class ProgramLauncher {
 public:
  /// `index` is this PL's position in the node's pool — its bit in the
  /// node-state plane's per-node PL occupancy mask.
  ProgramLauncher(Cluster& cluster, int node, int cpu, int slot, int index);

  int node() const { return node_; }
  int cpu() const { return cpu_; }
  bool busy() const;

  /// Fork + exec the given rank of `job`; runs its program to
  /// completion and notifies the NM. Spawned by the NM. If the job's
  /// incarnation is killed (or the node crashes) mid-launch, the PL
  /// abandons the fork without registering or reporting. `ctx` is the
  /// NM's launch-command span (invalid when tracing is off).
  sim::Task<> launch(Job& job, int rank, fabric::TraceContext ctx = {});

  /// Node crash: abort any in-flight fork/notify CPU work so the
  /// launch coroutine observes the epoch bump and bails out.
  void cancel();

 private:
  void set_busy(bool v);

  Cluster& cluster_;
  int node_;
  int cpu_;
  int index_;
  node::Proc* proc_ = nullptr;
};

}  // namespace storm::core
