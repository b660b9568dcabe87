// Quorum-replicated Machine Manager state (DESIGN §3.6).
//
// A ReplicationGroup spans N (default 3) MM replicas: the primary on
// node 0 plus followers on the machine's top nodes. Every
// state-changing MM command (placement, kill, eviction, rejoin,
// schedule change) is serialized as a typed log entry, shipped to the
// followers as MsgClass::Repl control messages over the ordinary
// command fabric (wire leg + per-node NM mailbox delivery, so fault
// middleware sees and can drop every message), and acknowledged;
// commitment is majority ack. Committed entries fold into each
// replica's MmStateMachine through the single apply() choke point, so
// two replicas that have committed the same prefix carry the same
// rolling digest — the committed-prefix-agreement invariant checks
// exactly that.
//
// Leadership is a lease, not a silence timeout: the leader renews by
// round-tagged Append/Renew messages every repl_renew and extends its
// lease to round_start + repl_lease only when a majority acks that
// round. A leader whose lease expires abdicates on the spot and
// replicate() refuses (stale aborts) — so an asymmetrically
// partitioned leader that can send but not hear acks stops committing
// within one lease, long before any follower notices. Followers run a
// deterministically staggered election (repl_election_base +
// rank * repl_election_stagger of leader silence) with term-bumped
// LeaseSteal/LeaseGrant voting; a grant is withheld while the voter's
// current leader is fresh and requires the candidate's log to be at
// least as complete, and since repl_election_base > repl_lease every
// granter's old lease has provably expired before a new one is issued
// — two valid leaders cannot coexist, by construction.
//
// Everything is deterministic: no randomness is consumed anywhere in
// the protocol (timeouts are staggered by rank, not jittered), so two
// same-seed campaign runs replay byte-identically.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "fabric/message.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "storm/protocol.hpp"

namespace storm::telemetry {
class Counter;
class Histogram;
}

namespace storm::core {

class Cluster;

enum class ReplVerb : std::uint8_t {
  Append = 0,  // one log entry at `index` (doubles as lease renewal)
  Ack,         // follower match index, echoing the lease round
  Renew,       // heartbeat-only renewal carrying the leader commit
  LeaseSteal,  // term-bumped election request
  LeaseGrant,  // vote for the requesting candidate's term
};

enum class ReplRole : std::uint8_t { Follower = 0, Candidate, Leader };

constexpr std::string_view to_string(ReplRole r) {
  switch (r) {
    case ReplRole::Follower: return "follower";
    case ReplRole::Candidate: return "candidate";
    case ReplRole::Leader: return "leader";
  }
  return "?";
}

/// What kind of MM command a log entry carries. The entry is the
/// *decision*; the leader enacts its effects only after commit.
enum class EntryKind : std::uint8_t {
  NoOp = 0,  // appended by a fresh leader to commit its term
  Place,     // job placement (matrix row + node range)
  Kill,      // kill/requeue of one incarnation
  Evict,     // node eviction from the buddy trees
  Rejoin,    // node re-admission
  Sched,     // strobe-schedule change (failover rebuild)
};

constexpr std::string_view to_string(EntryKind k) {
  switch (k) {
    case EntryKind::NoOp: return "noop";
    case EntryKind::Place: return "place";
    case EntryKind::Kill: return "kill";
    case EntryKind::Evict: return "evict";
    case EntryKind::Rejoin: return "rejoin";
    case EntryKind::Sched: return "sched";
  }
  return "?";
}

struct LogEntry {
  EntryKind kind = EntryKind::NoOp;
  int term = 0;
  JobId job = 0;
  std::int64_t args = 0;
};

/// The replicas' replay target: committed entries fold into a rolling
/// FNV-1a digest through the one apply() choke point. The full digest
/// history is kept so any committed prefix can be compared across
/// replicas (committed-prefix-agreement).
class MmStateMachine {
 public:
  MmStateMachine() { digests_.push_back(kOffset); }

  void apply(const LogEntry& e) {
    std::uint64_t h = digests_.back();
    h = fold(h, static_cast<std::uint64_t>(e.kind));
    h = fold(h, static_cast<std::uint64_t>(e.term));
    h = fold(h, static_cast<std::uint64_t>(e.job));
    h = fold(h, static_cast<std::uint64_t>(e.args));
    digests_.push_back(h);
  }

  /// Entries applied so far (== the replica's commit index).
  std::int64_t applied() const {
    return static_cast<std::int64_t>(digests_.size()) - 1;
  }

  /// Digest after applying entries [0, idx). idx must be <= applied().
  std::uint64_t digest_at(std::int64_t idx) const {
    return digests_[static_cast<std::size_t>(idx)];
  }

 private:
  static constexpr std::uint64_t kOffset = 0xCBF29CE484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001B3ULL;
  static std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xFF)) * kPrime;
    }
    return h;
  }

  std::vector<std::uint64_t> digests_;
};

/// One row of the query layer's `replicas` table.
struct ReplicaStatus {
  int rank = 0;
  int node = 0;
  ReplRole role = ReplRole::Follower;
  std::int64_t term = 0;
  std::int64_t commit = 0;
  std::int64_t applied = 0;
  std::int64_t log_size = 0;
  std::int64_t lease_ns = 0;       // remaining lease (leaders only)
  std::int64_t floor_index = 0;    // group-min commit at sample time
  std::uint64_t floor_digest = 0;  // this replica's digest at the floor
};

class ReplicationGroup {
 public:
  ReplicationGroup(Cluster& cluster, int replicas);

  /// Bootstrap: rank 0 is the leader of term 1 with an initial lease,
  /// and the protocol tick (elections + lease renewal) starts running.
  void start();

  int replicas() const { return static_cast<int>(reps_.size()); }
  int node_of_rank(int rank) const { return reps_[rank].node; }
  /// The replica rank hosted on `node`, or -1.
  int rank_of_node(int node) const;
  /// The rank whose MM currently owns the cluster (the bootstrap
  /// leader until an election moves it).
  int active_rank() const { return active_rank_; }

  /// True iff `rank` is the leader and its lease has not expired — the
  /// MM's gate for issuing any command.
  bool may_lead(int rank) const;

  /// Commit one command through the quorum. Returns true once the
  /// entry is committed (majority-acked); false when this replica is
  /// not the leaseholder or loses leadership before commit — the
  /// caller must not enact the command's effects then.
  sim::Task<bool> replicate(int rank, EntryKind kind, JobId job,
                            std::int64_t args);

  /// Protocol input: one MsgClass::Repl message delivered to the
  /// replica agent on `rank`'s node (called by the Cluster from the NM
  /// command loop).
  void receive(int rank, const fabric::ControlMessage& msg);

  /// Fired when `rank` wins an election; the rank's passive MM parks
  /// on this.
  sim::Trigger& takeover(int rank) { return *reps_[rank].takeover; }

  // --- fault hooks (called by the Cluster) -------------------------------
  /// Host node crashed: the replica is gone (no acks, no votes) and
  /// its MM is dead for good.
  void replica_crashed(int rank);
  /// Host node recovered: the replica agent acks and votes again, but
  /// the MM dæmon does not come back — the rank never leads again.
  void replica_recovered(int rank);
  /// MM dæmon crashed, node alive: the replication agent (hosted by
  /// the node's dæmon layer, like the NIC heartbeat word) keeps
  /// acking and voting, but the rank abdicates and never leads again.
  void mm_crashed(int rank);

  // --- introspection -----------------------------------------------------
  std::vector<ReplicaStatus> status() const;
  std::int64_t stale_aborts() const { return stale_aborts_; }
  std::int64_t commits() const { return commits_; }
  std::int64_t elections() const { return elections_; }
  /// Commit index of `rank` (entries [0, commit) are durable there).
  std::int64_t commit_index(int rank) const { return reps_[rank].commit; }
  /// Leader-loss-to-election-win gap of the most recent takeover.
  sim::SimTime last_failover_gap() const { return failover_gap_; }

 private:
  struct Rep {
    int node = -1;
    ReplRole role = ReplRole::Follower;
    int term = 1;
    int leader_term = 1;  // last term whose leader we synced with
    int voted_term = 0;   // highest term granted (or self-voted)
    int grants = 0;
    std::vector<LogEntry> log;
    std::int64_t commit = 0;
    MmStateMachine sm;
    sim::SimTime lease_until{};
    sim::SimTime last_heard{};
    sim::SimTime last_candidacy{};
    sim::SimTime candidacy_heard{};  // last_heard stashed at candidacy
    bool down = false;     // host node crashed
    bool mm_dead = false;  // MM dæmon gone; agent still acks/votes
    // leader bookkeeping
    std::vector<std::int64_t> next, match;
    int round = 0;
    sim::SimTime round_time{};
    // Rounds in flight: an ack extends the lease from the *send* time
    // of the round it answers, so renewal tolerates round-trip times
    // up to a full lease rather than one renew period. Ring of the
    // last kRounds rounds' send instants and acker bitmasks.
    static constexpr int kRounds = 64;
    std::array<sim::SimTime, kRounds> round_sent{};
    std::array<std::uint32_t, kRounds> round_ackers{};
    std::unique_ptr<sim::Trigger> takeover;
  };

  struct CommitWaiter {
    int rank = 0;
    std::int64_t index = 0;
    int term = 0;
    bool resolved = false;
    bool ok = false;
    std::unique_ptr<sim::Trigger> trigger;
  };

  sim::Simulator& sim() const;
  sim::SimTime now() const;
  int majority() const { return replicas() / 2 + 1; }
  sim::SimTime election_timeout(int rank) const;

  void tick();
  void become_leader(int rank);
  void step_down(Rep& r, int new_term, sim::SimTime heard);
  void follow(Rep& r, int term);
  void send(int from, int to, const fabric::ControlMessage& m);
  sim::Task<> send_task(int from_node, int to_node, fabric::ControlMessage m);
  /// Ship Append (if behind) or Renew to every live follower, tagged
  /// with the leader's current lease round.
  void renew_round(int rank);
  /// Ship the follower's next entry when one is pending.
  void send_next(int leader, int follower);
  void advance_commit(int rank);
  void apply_to(Rep& r, std::int64_t new_commit);
  void resolve_waiters();

  Cluster& cluster_;
  std::vector<Rep> reps_;
  std::vector<std::shared_ptr<CommitWaiter>> waiters_;
  int active_rank_ = 0;
  std::int64_t stale_aborts_ = 0;
  std::int64_t commits_ = 0;
  std::int64_t elections_ = 0;
  sim::SimTime failover_gap_{};

  telemetry::Counter* mt_commits_ = nullptr;       // mm.repl.commits
  telemetry::Counter* mt_appends_ = nullptr;       // mm.repl.appends
  telemetry::Counter* mt_acks_ = nullptr;          // mm.repl.acks
  telemetry::Counter* mt_renews_ = nullptr;        // mm.repl.lease.renewals
  telemetry::Counter* mt_elections_ = nullptr;     // mm.repl.elections
  telemetry::Counter* mt_takeovers_ = nullptr;     // mm.repl.takeovers
  telemetry::Counter* mt_stale_ = nullptr;         // mm.repl.stale_aborts
  telemetry::Histogram* mt_commit_ns_ = nullptr;   // mm.repl.commit_ns
};

// --- wire packing ----------------------------------------------------------
// ReplPayload.verb_from: verb | sender rank << 8 | lease round << 16.
// ReplPayload.kind_job:  entry kind | job << 4 | entry term << 18
//                        (LeaseSteal reuses it for the candidate's
//                        last-entry term).
constexpr std::int32_t repl_pack_verb(ReplVerb v, int from, int round) {
  return static_cast<std::int32_t>(v) | from << 8 | (round & 0x7FFF) << 16;
}
constexpr ReplVerb repl_verb(std::int32_t vf) {
  return static_cast<ReplVerb>(vf & 0xFF);
}
constexpr int repl_from(std::int32_t vf) { return (vf >> 8) & 0xFF; }
constexpr int repl_round(std::int32_t vf) { return (vf >> 16) & 0x7FFF; }

constexpr std::int32_t repl_pack_entry(EntryKind k, JobId job, int term) {
  return static_cast<std::int32_t>(k) | (job & 0x3FFF) << 4 |
         (term & 0x1FFF) << 18;
}
constexpr EntryKind repl_entry_kind(std::int32_t kj) {
  return static_cast<EntryKind>(kj & 0xF);
}
constexpr JobId repl_entry_job(std::int32_t kj) { return (kj >> 4) & 0x3FFF; }
constexpr int repl_entry_term(std::int32_t kj) { return (kj >> 18) & 0x1FFF; }

}  // namespace storm::core
