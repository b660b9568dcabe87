#include "storm/replication/replication.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "storm/cluster.hpp"
#include "telemetry/metrics.hpp"

namespace storm::core {

using fabric::Component;
using fabric::ControlMessage;
using net::NodeRange;
using sim::SimTime;
using sim::Task;

ReplicationGroup::ReplicationGroup(Cluster& cluster, int replicas)
    : cluster_(cluster) {
  // ClusterConfig::validate() has checked replicas against [2, nodes]
  // and the lease/election rule (repl_election_base > repl_lease: a
  // voter withholds its grant for repl_election_base of leader
  // freshness, so overlapping leases are impossible).
  reps_.resize(static_cast<std::size_t>(replicas));
  // Rank 0 rides the primary MM's node; ranks 1.. take the top nodes.
  reps_[0].node = 0;
  for (int r = 1; r < replicas; ++r) {
    reps_[static_cast<std::size_t>(r)].node =
        cluster_.config().nodes - replicas + r;
  }
  for (auto& rep : reps_) {
    rep.takeover = std::make_unique<sim::Trigger>(sim());
  }

  telemetry::MetricsRegistry& m = cluster_.metrics();
  mt_commits_ = &m.counter("mm.repl.commits");
  mt_appends_ = &m.counter("mm.repl.appends");
  mt_acks_ = &m.counter("mm.repl.acks");
  mt_renews_ = &m.counter("mm.repl.lease.renewals");
  mt_elections_ = &m.counter("mm.repl.elections");
  mt_takeovers_ = &m.counter("mm.repl.takeovers");
  mt_stale_ = &m.counter("mm.repl.stale_aborts");
  mt_commit_ns_ = &m.histogram("mm.repl.commit_ns");
}

sim::Simulator& ReplicationGroup::sim() const { return cluster_.sim(); }
SimTime ReplicationGroup::now() const { return cluster_.sim().now(); }

SimTime ReplicationGroup::election_timeout(int rank) const {
  const StormParams& sp = cluster_.config().storm;
  return sp.repl_election_base + sp.repl_election_stagger * rank;
}

int ReplicationGroup::rank_of_node(int node) const {
  for (std::size_t r = 0; r < reps_.size(); ++r) {
    if (reps_[r].node == node) return static_cast<int>(r);
  }
  return -1;
}

void ReplicationGroup::start() {
  const StormParams& sp = cluster_.config().storm;
  const SimTime t = now();
  Rep& r0 = reps_[0];
  r0.role = ReplRole::Leader;
  r0.next.assign(reps_.size(), 0);
  r0.match.assign(reps_.size(), 0);
  r0.lease_until = t + sp.repl_lease;
  for (auto& rep : reps_) rep.last_heard = t;
  sim().schedule_periodic(sp.repl_tick, t + sp.repl_tick,
                          [this] { tick(); });
}

bool ReplicationGroup::may_lead(int rank) const {
  const Rep& r = reps_[static_cast<std::size_t>(rank)];
  return r.role == ReplRole::Leader && !r.down && !r.mm_dead &&
         now() <= r.lease_until;
}

// ---------------------------------------------------------------------------
// The protocol tick: lease renewal (leaders) + staggered elections
// (followers). One shared periodic event; everything it does is a
// pure function of replica state and the clock — no randomness.
// ---------------------------------------------------------------------------

void ReplicationGroup::tick() {
  const StormParams& sp = cluster_.config().storm;
  const SimTime t = now();
  for (std::size_t i = 0; i < reps_.size(); ++i) {
    Rep& r = reps_[i];
    if (r.down) continue;
    if (r.role == ReplRole::Leader) {
      if (t > r.lease_until) {
        // Could not renew within one lease (dead majority, or an
        // asymmetric partition eating our acks): abdicate on the spot.
        // The silence that follows is what lets the majority side
        // elect a successor.
        step_down(r, r.term, r.lease_until);
        continue;
      }
      if (t >= r.round_time + sp.repl_renew) renew_round(static_cast<int>(i));
      continue;
    }
    if (r.mm_dead) continue;  // votes, never leads
    const SimTime timeout = election_timeout(static_cast<int>(i));
    if (t - r.last_heard < timeout) continue;
    if (r.role == ReplRole::Candidate && t - r.last_candidacy < timeout) {
      continue;  // an election is already in flight; wait it out
    }
    // Leader silence past this rank's staggered threshold: run a
    // term-bumped election. The stagger (not randomness) is what
    // prevents split votes.
    if (r.role != ReplRole::Candidate) r.candidacy_heard = r.last_heard;
    r.role = ReplRole::Candidate;
    r.term = std::max(r.term, r.voted_term) + 1;
    r.voted_term = r.term;
    r.grants = 1;  // own vote
    r.last_candidacy = t;
    ++elections_;
    mt_elections_->add(1);
    const int last_term = r.log.empty() ? 0 : r.log.back().term;
    const ControlMessage steal = ControlMessage::repl(
        repl_pack_verb(ReplVerb::LeaseSteal, static_cast<int>(i), 0), r.term,
        static_cast<std::int32_t>(r.log.size()),
        repl_pack_entry(EntryKind::NoOp, 0, last_term), 0);
    for (std::size_t j = 0; j < reps_.size(); ++j) {
      if (j != i) send(static_cast<int>(i), static_cast<int>(j), steal);
    }
    if (r.grants >= majority()) become_leader(static_cast<int>(i));
  }
}

void ReplicationGroup::renew_round(int rank) {
  Rep& r = reps_[static_cast<std::size_t>(rank)];
  ++r.round;
  r.round_time = now();
  r.round_sent[r.round & (Rep::kRounds - 1)] = now();
  r.round_ackers[r.round & (Rep::kRounds - 1)] = 0;
  for (std::size_t f = 0; f < reps_.size(); ++f) {
    if (static_cast<int>(f) == rank) continue;
    if (r.next[f] < static_cast<std::int64_t>(r.log.size())) {
      const LogEntry& e = r.log[static_cast<std::size_t>(r.next[f])];
      mt_appends_->add(1);
      send(rank, static_cast<int>(f),
           ControlMessage::repl(
               repl_pack_verb(ReplVerb::Append, rank, r.round), r.term,
               static_cast<std::int32_t>(r.next[f]),
               repl_pack_entry(e.kind, e.job, e.term), e.args));
    } else {
      send(rank, static_cast<int>(f),
           ControlMessage::repl(repl_pack_verb(ReplVerb::Renew, rank, r.round),
                                r.term, 0, 0, r.commit));
    }
  }
}

void ReplicationGroup::send_next(int leader, int follower) {
  Rep& r = reps_[static_cast<std::size_t>(leader)];
  const std::int64_t idx = r.next[static_cast<std::size_t>(follower)];
  if (idx >= static_cast<std::int64_t>(r.log.size())) return;
  const LogEntry& e = r.log[static_cast<std::size_t>(idx)];
  mt_appends_->add(1);
  send(leader, follower,
       ControlMessage::repl(repl_pack_verb(ReplVerb::Append, leader, r.round),
                            r.term, static_cast<std::int32_t>(idx),
                            repl_pack_entry(e.kind, e.job, e.term), e.args));
}

void ReplicationGroup::send(int from, int to, const ControlMessage& m) {
  if (reps_[static_cast<std::size_t>(from)].down) return;
  sim().spawn(send_task(reps_[static_cast<std::size_t>(from)].node,
                        reps_[static_cast<std::size_t>(to)].node, m));
}

Task<> ReplicationGroup::send_task(int from_node, int to_node,
                                   ControlMessage m) {
  co_await cluster_.multicast_command(Component::MM, from_node,
                                      NodeRange{to_node, 1}, m);
}

// ---------------------------------------------------------------------------
// Replication (leader side)
// ---------------------------------------------------------------------------

Task<bool> ReplicationGroup::replicate(int rank, EntryKind kind, JobId job,
                                       std::int64_t args) {
  Rep& r = reps_[static_cast<std::size_t>(rank)];
  if (!may_lead(rank)) {
    ++stale_aborts_;
    mt_stale_->add(1);
    co_return false;
  }
  const SimTime t0 = now();
  const std::int64_t idx = static_cast<std::int64_t>(r.log.size());
  const int term = r.term;
  r.log.push_back(LogEntry{kind, term, job, args});
  for (std::size_t f = 0; f < reps_.size(); ++f) {
    if (static_cast<int>(f) != rank && r.next[f] == idx) {
      send_next(rank, static_cast<int>(f));
    }
  }
  if (majority() == 1) advance_commit(rank);  // degenerate single-replica
  auto w = std::make_shared<CommitWaiter>();
  w->rank = rank;
  w->index = idx;
  w->term = term;
  w->trigger = std::make_unique<sim::Trigger>(sim());
  waiters_.push_back(w);
  co_await w->trigger->wait();
  if (w->ok) {
    ++commits_;
    mt_commits_->add(1);
    mt_commit_ns_->record(now() - t0);
  } else {
    ++stale_aborts_;
    mt_stale_->add(1);
  }
  co_return w->ok;
}

void ReplicationGroup::advance_commit(int rank) {
  Rep& r = reps_[static_cast<std::size_t>(rank)];
  std::vector<std::int64_t> idxs;
  idxs.reserve(reps_.size());
  idxs.push_back(static_cast<std::int64_t>(r.log.size()));  // self
  for (std::size_t f = 0; f < reps_.size(); ++f) {
    if (static_cast<int>(f) != rank) idxs.push_back(r.match[f]);
  }
  std::sort(idxs.begin(), idxs.end(), std::greater<>());
  const std::int64_t m = idxs[static_cast<std::size_t>(majority() - 1)];
  // Raft's commit rule: a leader only commits entries of its own term
  // (older-term entries ride along) — required for the committed
  // prefix to survive leader changes.
  if (m > r.commit && m >= 1 &&
      r.log[static_cast<std::size_t>(m - 1)].term == r.term) {
    apply_to(r, m);
    resolve_waiters();
  }
}

void ReplicationGroup::apply_to(Rep& r, std::int64_t new_commit) {
  while (r.commit < new_commit) {
    r.sm.apply(r.log[static_cast<std::size_t>(r.commit)]);
    ++r.commit;
  }
}

void ReplicationGroup::resolve_waiters() {
  // Fire outside the scan: a resumed waiter may replicate again and
  // push onto waiters_.
  std::vector<std::shared_ptr<CommitWaiter>> fire;
  for (auto it = waiters_.begin(); it != waiters_.end();) {
    CommitWaiter& w = **it;
    const Rep& r = reps_[static_cast<std::size_t>(w.rank)];
    const bool intact =
        w.index < static_cast<std::int64_t>(r.log.size()) &&
        r.log[static_cast<std::size_t>(w.index)].term == w.term;
    if (intact && r.commit > w.index) {
      w.resolved = true;
      w.ok = true;
    } else if (!intact || r.role != ReplRole::Leader || r.down || r.mm_dead) {
      w.resolved = true;
      w.ok = false;
    }
    if (w.resolved) {
      fire.push_back(*it);
      it = waiters_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& w : fire) w->trigger->fire();
}

// ---------------------------------------------------------------------------
// Role transitions
// ---------------------------------------------------------------------------

void ReplicationGroup::become_leader(int rank) {
  const StormParams& sp = cluster_.config().storm;
  Rep& r = reps_[static_cast<std::size_t>(rank)];
  r.role = ReplRole::Leader;
  r.leader_term = r.term;
  r.next.assign(reps_.size(), static_cast<std::int64_t>(r.log.size()));
  r.match.assign(reps_.size(), 0);
  r.round_time = now();
  r.round_sent.fill(SimTime{});
  r.round_ackers.fill(0);
  // Every granter withheld its vote for longer than the old lease
  // could outlive, so an immediate lease is safe (see header).
  r.lease_until = now() + sp.repl_lease;
  failover_gap_ = now() - r.candidacy_heard;
  active_rank_ = rank;
  mt_takeovers_->add(1);
  // Commit the term with a NoOp (a fresh leader cannot commit
  // older-term entries directly).
  r.log.push_back(LogEntry{EntryKind::NoOp, r.term, 0, 0});
  for (std::size_t f = 0; f < reps_.size(); ++f) {
    if (static_cast<int>(f) != rank) send_next(rank, static_cast<int>(f));
  }
  r.takeover->fire();
}

void ReplicationGroup::step_down(Rep& r, int new_term, SimTime heard) {
  r.role = ReplRole::Follower;
  r.term = std::max(r.term, new_term);
  r.grants = 0;
  r.lease_until = SimTime{};
  r.last_heard = heard;
  resolve_waiters();
}

void ReplicationGroup::follow(Rep& r, int term) {
  if (term > r.leader_term || r.role != ReplRole::Follower) {
    // First contact with this term's leader: everything past our own
    // commit is unverified against the new leader's log — discard it
    // and let in-order appends rebuild the suffix. Committed entries
    // are never discarded.
    r.role = ReplRole::Follower;
    r.grants = 0;
    r.lease_until = SimTime{};
    r.leader_term = term;
    r.log.resize(static_cast<std::size_t>(r.commit));
  }
  r.term = std::max(r.term, term);
  r.last_heard = now();
}

// ---------------------------------------------------------------------------
// Message handling
// ---------------------------------------------------------------------------

void ReplicationGroup::receive(int rank, const ControlMessage& msg) {
  assert(msg.cls == fabric::MsgClass::Repl);
  Rep& me = reps_[static_cast<std::size_t>(rank)];
  if (me.down) return;
  const fabric::ReplPayload& p = msg.u.repl;
  const ReplVerb verb = repl_verb(p.verb_from);
  const int from = repl_from(p.verb_from);
  const int round = repl_round(p.verb_from);

  switch (verb) {
    case ReplVerb::Append: {
      if (p.term < me.term) {
        // Stale leader: the ack's term tells it to step down.
        send(rank, from,
             ControlMessage::repl(repl_pack_verb(ReplVerb::Ack, rank, round),
                                  me.term,
                                  static_cast<std::int32_t>(me.log.size()), 0,
                                  0));
        return;
      }
      follow(me, p.term);
      const std::int64_t idx = p.index;
      const EntryKind kind = repl_entry_kind(p.kind_job);
      const int et = repl_entry_term(p.kind_job);
      if (idx < static_cast<std::int64_t>(me.log.size()) &&
          me.log[static_cast<std::size_t>(idx)].term != et) {
        assert(idx >= me.commit && "a committed entry can never conflict");
        me.log.resize(static_cast<std::size_t>(idx));
      }
      if (idx == static_cast<std::int64_t>(me.log.size())) {
        me.log.push_back(
            LogEntry{kind, et, repl_entry_job(p.kind_job), p.args});
      }
      // idx beyond our tail is a gap (lost ack backed the leader off
      // less than it thought): the match index below corrects it.
      send(rank, from,
           ControlMessage::repl(repl_pack_verb(ReplVerb::Ack, rank, round),
                                me.term,
                                static_cast<std::int32_t>(me.log.size()), 0,
                                0));
      return;
    }
    case ReplVerb::Renew: {
      if (p.term < me.term) {
        send(rank, from,
             ControlMessage::repl(repl_pack_verb(ReplVerb::Ack, rank, round),
                                  me.term,
                                  static_cast<std::int32_t>(me.log.size()), 0,
                                  0));
        return;
      }
      follow(me, p.term);
      // The leader's commit index rides the renewal; our log is an
      // in-order prefix of the leader's (follow() truncated anything
      // unverified), so committing min(leader commit, our tail) is
      // safe.
      const std::int64_t c =
          std::min(p.args, static_cast<std::int64_t>(me.log.size()));
      if (c > me.commit) apply_to(me, c);
      send(rank, from,
           ControlMessage::repl(repl_pack_verb(ReplVerb::Ack, rank, round),
                                me.term,
                                static_cast<std::int32_t>(me.log.size()), 0,
                                0));
      return;
    }
    case ReplVerb::Ack: {
      mt_acks_->add(1);
      if (me.role != ReplRole::Leader) return;
      if (p.term > me.term) {
        step_down(me, p.term, now());
        return;
      }
      Rep& r = me;
      r.match[static_cast<std::size_t>(from)] = p.index;
      r.next[static_cast<std::size_t>(from)] = p.index;
      // Lease renewal: the lease extends from the instant the acked
      // round was SENT (the classic lease-clock rule), so any ack that
      // returns within one lease keeps the leadership alive — even
      // when the round trip outlasts the 5 ms renew cadence.
      const int delta = (r.round - round) & 0x7FFF;
      if (delta < Rep::kRounds) {
        const int slot = (r.round - delta) & (Rep::kRounds - 1);
        const std::uint32_t bit = std::uint32_t{1} << from;
        if (!(r.round_ackers[slot] & bit)) {
          r.round_ackers[slot] |= bit;
          const SimTime sent = r.round_sent[slot];
          if (std::popcount(r.round_ackers[slot]) >= majority() - 1 &&
              sent + cluster_.config().storm.repl_lease > r.lease_until) {
            r.lease_until = sent + cluster_.config().storm.repl_lease;
            mt_renews_->add(1);
          }
        }
      }
      advance_commit(rank);
      send_next(rank, from);  // pipeline the follower's next entry
      return;
    }
    case ReplVerb::LeaseSteal: {
      // Vote withholding: while our leader is fresh (or we ARE the
      // leaseholder) no grant leaves this node — the rule that makes
      // leases non-overlapping.
      if (me.role == ReplRole::Leader && now() <= me.lease_until) return;
      if (now() - me.last_heard <
          cluster_.config().storm.repl_election_base) {
        return;
      }
      if (p.term <= me.voted_term) return;
      // Completeness: the candidate's (last term, length) must not
      // trail ours, or committed entries could be lost.
      const int cand_last = repl_entry_term(p.kind_job);
      const int my_last = me.log.empty() ? 0 : me.log.back().term;
      const std::int64_t cand_len = p.index;
      if (cand_last < my_last ||
          (cand_last == my_last &&
           cand_len < static_cast<std::int64_t>(me.log.size()))) {
        return;
      }
      me.voted_term = p.term;
      send(rank, from,
           ControlMessage::repl(repl_pack_verb(ReplVerb::LeaseGrant, rank, 0),
                                p.term, 0, 0, 0));
      return;
    }
    case ReplVerb::LeaseGrant: {
      if (me.role != ReplRole::Candidate || p.term != me.term) return;
      if (++me.grants >= majority()) become_leader(rank);
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Fault hooks
// ---------------------------------------------------------------------------

void ReplicationGroup::replica_crashed(int rank) {
  Rep& r = reps_[static_cast<std::size_t>(rank)];
  r.down = true;
  r.mm_dead = true;
  r.lease_until = SimTime{};
  if (r.role == ReplRole::Leader) r.role = ReplRole::Follower;
  resolve_waiters();
}

void ReplicationGroup::replica_recovered(int rank) {
  Rep& r = reps_[static_cast<std::size_t>(rank)];
  r.down = false;
  r.last_heard = now();  // grace period before it could vote again
}

void ReplicationGroup::mm_crashed(int rank) {
  Rep& r = reps_[static_cast<std::size_t>(rank)];
  r.mm_dead = true;
  if (r.role == ReplRole::Leader) {
    step_down(r, r.term, now());
  } else {
    resolve_waiters();
  }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

std::vector<ReplicaStatus> ReplicationGroup::status() const {
  std::int64_t floor = reps_.empty() ? 0 : reps_[0].commit;
  for (const Rep& r : reps_) floor = std::min(floor, r.commit);
  std::vector<ReplicaStatus> out;
  out.reserve(reps_.size());
  const SimTime t = now();
  for (std::size_t i = 0; i < reps_.size(); ++i) {
    const Rep& r = reps_[i];
    ReplicaStatus s;
    s.rank = static_cast<int>(i);
    s.node = r.node;
    s.role = r.role;
    s.term = r.term;
    s.commit = r.commit;
    s.applied = r.sm.applied();
    s.log_size = static_cast<std::int64_t>(r.log.size());
    s.lease_ns = r.role == ReplRole::Leader && r.lease_until > t
                     ? (r.lease_until - t).raw_ns()
                     : 0;
    s.floor_index = floor;
    s.floor_digest = r.sm.digest_at(floor);
    out.push_back(s);
  }
  return out;
}

}  // namespace storm::core
