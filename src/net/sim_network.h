// Simulated network with reliable, exactly-once, in-order delivery over
// faulty links (the transport under Algorithm 3's p > 1 communication
// round).
//
// The protocol is a deterministic, discrete-event TCP-in-miniature:
//
//   * each ordered link's byte stream is cut into frames of at most
//     NetConfig::mtu_bytes, numbered with per-(src, dst) sequence numbers,
//   * a sender window of unacked frames, retransmitted on timeout with the
//     exponential backoff of a pdm::RetryPolicy (backoff_us = virtual
//     ticks); the retry budget exhausting raises NetError,
//   * cumulative acks from the receiver on every data arrival,
//   * receiver-side dedup (seq below the cursor) and a resequencing buffer
//     (seq above it), so the receiver reassembles each link's stream exactly
//     once, in order, whatever the link did.
//
// Pair decomposition. An ordered link (s, d) interacts only with its reverse
// (d, s): data one way, acks the other, and the injector's fault coins are
// per-ordered-link streams indexed by that link's own transmission count.
// The protocol of the whole network is therefore the composition of
// independent *endpoint-pair* simulations {a, b}, each with its own virtual
// clock, and every per-link timeline (hence every NetStats counter, which is
// a sum over links) is a pure function of (per-link send content, fault
// plan) — independent of which thread runs the pair, or when. That is the
// load-bearing property of this file: any thread may simulate a pair
// without costing bit-for-bit determinism.
//
// One way to run a round. begin_round() opens it; hosts post() chunks of
// their serialized record streams onto per-link mailboxes, from any thread,
// and finish_sender(h) says host h will post nothing further. The
// finish_sender() call that finishes a pair's second endpoint simulates
// that pair on its own thread before it returns. Once every finish_sender()
// has returned, collect() merges statistics in canonical pair order and
// returns each ordered link's reassembled stream. Whichever thread posts or
// finishes when, the streams and the statistics are the same. Nothing in
// this file starts a thread.
//
// All randomness comes from the LinkFaultInjector's seeded coins and all
// ties break on (tick, enqueue order) within a pair, so a run is a pure
// function of (plan, per-link streams) — the property every fail-over and
// threaded-determinism test leans on.
//
// Fail-over support: heartbeat_round() implements an eventually-perfect
// failure detector (heartbeats are subject only to fail-stop; see
// net_fault.h) — a processor unheard-of for kHeartbeatMissThreshold rounds
// is declared dead. probe_dead() answers "who is unreachable right now" when
// a retransmission budget exhausts mid-round.
#pragma once

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "net/net_fault.h"
#include "net/net_stats.h"
#include "net/packet.h"
#include "util/error.h"

namespace emcgm::obs {
class Tracer;
}  // namespace emcgm::obs

namespace emcgm::net {

/// Heartbeat rounds a processor may miss before it is declared dead.
inline constexpr std::uint32_t kHeartbeatMissThreshold = 3;

/// The reliable protocol gave up on a link: the retransmission budget
/// exhausted without an ack. Either the peer is dead (probe_dead() will say
/// so) or the loss rate overwhelms the retry policy.
class NetError : public Error {
 public:
  NetError(std::uint32_t src, std::uint32_t dst, std::uint32_t attempts);

  std::uint32_t src() const { return src_; }
  std::uint32_t dst() const { return dst_; }

 private:
  std::uint32_t src_;
  std::uint32_t dst_;
};

/// A sealed wire frame. It is built once, when the mailbox is cut, and
/// shared by its window entry, every in-flight transmission of it and the
/// resequencing buffer; only a corrupted transmission gets its own copy.
using Frame = std::shared_ptr<const std::vector<std::byte>>;

/// What collect() returns: streams[dst][src] is the byte stream src posted
/// to dst this round, reassembled in post order (empty when nothing was
/// posted, and for src == dst).
using LinkStreams = std::vector<std::vector<std::vector<std::byte>>>;

/// Arbitration probe: called once per collected mailbox round with the
/// round's total wire bytes. Fired from the round barrier — the collector
/// thread, after every pair merged — so the charge stream is
/// single-threaded and deterministic.
/// Counted bytes, never wall time: a fair-share scheduler (src/svc/) can
/// arbitrate on it without perturbing bit-reproducibility.
using NetChargeFn = std::function<void(std::uint64_t wire_bytes)>;

class SimNetwork {
 public:
  SimNetwork(std::uint32_t p, NetConfig cfg);

  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  /// Advance the shared fault clock (fail-stop triggers are step-based).
  void set_step(std::uint64_t step) {
    injector_.set_step(step);
    cur_step_ = step;
  }

  /// Advance the membership epoch (engine-side, at a superstep barrier after
  /// any death or rejoin). Mixed into every per-link fault-coin stream id —
  /// see LinkFaultInjector::set_epoch for the determinism argument.
  void set_epoch(std::uint64_t epoch) { injector_.set_epoch(epoch); }

  /// Install the host->machine placement used for crossing-wire accounting
  /// (NetStats::crossing_wire_bytes): a frame's bytes count as crossing iff
  /// its endpoints' machine ids differ. Engine-side, derived from
  /// cfg.file_roots (routing::machines_from_roots); the default is the
  /// identity map. Must not be called while a mailbox round is open.
  void set_machine_map(std::vector<std::uint32_t> machines);

  /// Attach a phase tracer (obs subsystem; nullptr = off, the default).
  /// Pair simulations then record their own wall-clock window — captured by
  /// whichever thread owns the pair, race-free — and the collector publishes
  /// one net_pair span per active pair, in canonical pair order, into the
  /// tracer's engine shard at the round barrier.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Administratively remove a processor (engine-side fail-over decision):
  /// it neither sends nor receives from now on, and the failure detector
  /// stops tracking it. Must not be called while a mailbox round is open.
  void mark_dead(std::uint32_t proc);
  bool dead(std::uint32_t proc) const { return dead_[proc] != 0; }

  /// Administratively re-admit a processor (engine-side rejoin decision,
  /// after the handshake produced a candidate): it sends and receives again,
  /// its links restart from sequence 1, and the failure detector's lease is
  /// renewed so the next heartbeat round does not instantly re-declare it.
  /// Must not be called while a mailbox round is open.
  void mark_alive(std::uint32_t proc);

  // ---- mailbox round: the one way to run a communication round ---------

  /// Open a mailbox round. Until collect(), post()/finish_sender() may be
  /// called from any thread. Dead processors post nothing and count as
  /// finished at once.
  void begin_round();

  /// Thread-safe: append a chunk of the serialized record stream to the
  /// ordered link src -> dst. Chunks from one src must be posted in that
  /// sender's program order (they are concatenated verbatim). An empty
  /// chunk passes the same checks and adds nothing.
  void post(std::uint32_t src, std::uint32_t dst, std::vector<std::byte> bytes);

  /// Thread-safe: `src` will post nothing further this round. Every pair
  /// whose other endpoint already finished is now complete, and this call
  /// simulates each such pair on the calling thread before it returns.
  void finish_sender(std::uint32_t src);

  /// Close the round: merge statistics in canonical pair order and return
  /// each ordered link's reassembled stream. Call only after every
  /// finish_sender() has returned; a sender that never finished, or a pair
  /// still being simulated, is an Error, not a wait. Throws the canonically-
  /// first NetError of the round after merging all statistics.
  LinkStreams collect();

  /// Abort an open mailbox round after a compute-phase failure: finish every
  /// remaining sender, simulate the pairs that completes on the calling
  /// thread, merge the statistics canonically, and discard streams and link
  /// errors. Running the pairs (rather than dropping the mailboxes) makes
  /// the fault coins a round consumes independent of how far it got before
  /// the abort — so threaded and serial runs stay bit-identical across
  /// fail-over replays. Same contract as collect(); no-op without an open
  /// round.
  void abort_round();

  /// True between begin_round() and the end of collect()/abort_round().
  bool round_active() const;

  /// One heartbeat round at physical superstep `step`: every live processor
  /// beats to every other. Returns the processors newly declared dead by the
  /// miss-threshold detector (already mark_dead()-ed).
  std::vector<std::uint32_t> heartbeat_round(std::uint64_t step);

  /// Processors that are fail-stopped but not yet administratively dead
  /// (already mark_dead()-ed on return). Used on NetError to attribute an
  /// exhausted link to a dead peer.
  std::vector<std::uint32_t> probe_dead();

  /// One membership-epoch handshake, piggy-backed on the heartbeat exchange
  /// of the current step: every administratively-dead processor whose
  /// scheduled reboot has fired (injector rebooted()) broadcasts a rejoin
  /// request to the live processors; each live receiver answers with an ack
  /// carrying the current epoch and the last committed superstep sequence
  /// (counted on the wire, not framed). A candidate that collects at least
  /// one ack is returned —
  /// NOT yet re-admitted; the engine restores its state first, then calls
  /// mark_alive(). Rejoin frames are heartbeat-class (subject only to
  /// fail-stop, never to random loss), so the returned set is deterministic
  /// under any loss seed — the same argument that makes the failure detector
  /// eventually perfect. Idempotent: calling again before mark_alive()
  /// re-runs the same handshake (duplicate requests are absorbed).
  std::vector<std::uint32_t> rejoin_round();

  /// Account one store-group migration decided by the engine's re-balance
  /// (the wire frames themselves were already counted by the staged round
  /// that carried them). `bytes` is zero when the old host was dead — the
  /// state then hands over via the group's surviving disks, not the wire.
  void count_migration(std::uint64_t bytes) {
    ++stats_.rebalance_migrations;
    stats_.migration_bytes += bytes;
  }

  /// Abandon the current protocol epoch: drop every in-flight frame, sender
  /// window and resequencing buffer, and rewind all sequence
  /// numbers to 1. Called when a superstep's delivery aborted (NetError ->
  /// fail-over) and will be replayed from a checkpoint — the replay must not
  /// receive leftovers of the aborted round. Not callable mid-round.
  void reset_links();

  const NetStats& stats() const { return stats_; }

  /// (Re-)attach the per-round wire-byte charge probe (see NetChargeFn);
  /// empty = detached. Must not be called while a round is open.
  void set_charge_hook(NetChargeFn fn) { charge_ = std::move(fn); }

 private:
  struct Unacked {
    std::uint64_t seq = 0;
    Frame frame;                  ///< clean frame; corruption hits copies
    std::uint64_t last_sent = 0;  ///< tick of the latest transmission
    std::uint32_t attempts = 0;    ///< 0 = loaded, not yet on the wire
  };

  /// Both directions of one ordered (src, dst) pair.
  struct LinkState {
    std::uint64_t next_seq = 1;   ///< sender: next sequence to assign
    std::deque<Unacked> window;   ///< sender: sent or queued, unacked
    std::uint64_t expect = 1;     ///< receiver: next in-order seq
    std::map<std::uint64_t, Frame> ooo;  ///< resequencing, verified frames
  };

  /// Everything one endpoint-pair simulation produced. Written by exactly
  /// one thread (the one whose finish completed the pair) and published to
  /// the collector under mu_ — the shard-merge discipline that keeps
  /// NetStats accumulation race-free without changing any reported total.
  struct PairOutcome {
    NetStats stats;
    std::vector<std::byte> to_lo;  ///< stream hi -> lo, as reassembled
    std::vector<std::byte> to_hi;  ///< stream lo -> hi, as reassembled
    std::exception_ptr error;      ///< NetError, if the pair exhausted
    std::uint64_t t0_ns = 0;       ///< tracing: simulation window of the pair
    std::uint64_t t1_ns = 0;       ///< (recorded by the thread owning it)
  };

  /// An endpoint pair {lo, hi}, lo < hi.
  using PairId = std::pair<std::uint32_t, std::uint32_t>;

  LinkState& link(std::uint32_t src, std::uint32_t dst) {
    return links_[static_cast<std::size_t>(src) * p_ + dst];
  }
  std::size_t slot(std::uint32_t lo, std::uint32_t hi) const {
    return static_cast<std::size_t>(lo) * p_ + hi;
  }

  /// Mark `src` finished (mu_ held) and append to `ready` the pairs this
  /// completes: one per peer that had already finished. A pair therefore
  /// completes exactly once, at its second endpoint.
  void finish_locked(std::uint32_t src, std::vector<PairId>& ready);

  /// Simulate the `ready` pairs on the calling thread (mu_ not held), then
  /// count them done. From the finish that completed a pair until this
  /// returns, its mailboxes, LinkStates, injector coin cursors and
  /// PairOutcome belong to the calling thread alone.
  void run_ready(const std::vector<PairId>& ready);

  /// Cut the two mailbox streams of pair {lo, hi} into MTU-sized frames on
  /// the link windows (emptying the mailboxes), and size `out`'s receive
  /// streams for them.
  void load_pair_mail(std::uint32_t lo, std::uint32_t hi, PairOutcome& out);

  /// Simulate pair {lo, hi} to quiescence with a pair-local clock and event
  /// queue. Deterministic given the pair's window contents and the fault
  /// plan. On budget exhaustion records the NetError in `out` and stops the
  /// pair (reset_links clears the leftovers).
  void run_pair(std::uint32_t lo, std::uint32_t hi, PairOutcome& out);

  /// End the open round (mu_ held): check that every pair was simulated
  /// and hand over their outcomes.
  std::vector<PairOutcome> close_round_locked();

  /// Merge pair statistics into stats_ in canonical order, rethrow the
  /// canonically-first pair error, else hand out the per-link streams.
  LinkStreams finish_pairs(std::vector<PairOutcome>& outs);

  std::uint64_t rto(std::uint32_t attempts) const;

  /// True iff the link a -> b crosses a machine boundary. Read-only during
  /// rounds, so pair threads may consult it without locking.
  bool crossing(std::uint32_t a, std::uint32_t b) const {
    return machine_[a] != machine_[b];
  }

  std::uint32_t p_;
  NetConfig cfg_;
  LinkFaultInjector injector_;
  std::vector<std::uint32_t> machine_;  ///< host -> machine id (identity def.)
  std::vector<char> dead_;
  std::vector<LinkState> links_;
  NetStats stats_;
  obs::Tracer* tracer_ = nullptr;  ///< optional phase tracer (obs subsystem)
  std::uint64_t cur_step_ = 0;     ///< mirrors injector_'s fault clock
  NetChargeFn charge_;             ///< per-round arbitration probe

  // Mailbox round state, guarded by mu_. Pair slots use slot(lo, hi),
  // lo < hi. A complete pair's mailboxes and PairOutcome are touched only by
  // the thread simulating it (run_ready), which counts it off pairs_left_
  // under mu_ when done; every mailbox is empty again when a round closes.
  mutable std::mutex mu_;
  std::vector<std::vector<std::byte>> mail_;  ///< per ordered link
  std::vector<char> sender_done_;
  std::vector<PairOutcome> pair_out_;  ///< per pair slot, this round
  std::uint32_t pairs_left_ = 0;       ///< pairs not yet simulated
  bool round_active_ = false;

  // Failure detector: last superstep each processor was heard at.
  bool hb_init_ = false;
  std::vector<std::int64_t> last_seen_;
};

}  // namespace emcgm::net
