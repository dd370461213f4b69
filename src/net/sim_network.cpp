#include "net/sim_network.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <queue>
#include <sstream>
#include <utility>

#include "obs/trace.h"

namespace emcgm::net {

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

/// A rejoin ack: the header, the epoch and the committed superstep seq.
constexpr std::size_t kRejoinAckBytes =
    kPacketHeaderBytes + 2 * sizeof(std::uint64_t);

std::string net_error_what(std::uint32_t src, std::uint32_t dst,
                           std::uint32_t attempts) {
  std::ostringstream os;
  os << "net error: link " << src << "->" << dst
     << " exhausted its retransmission budget (" << attempts
     << " attempts without an ack)";
  return os.str();
}

/// One in-flight frame of a pair-local simulation.
struct Event {
  std::uint64_t tick = 0;
  std::uint64_t order = 0;  ///< enqueue order, breaks same-tick ties
  /// Mutable so an arrival can move it out of the queue's const top();
  /// the order of the queue reads only tick and order.
  mutable Frame frame;
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    return a.tick != b.tick ? a.tick > b.tick : a.order > b.order;
  }
};

using EventQueue = std::priority_queue<Event, std::vector<Event>, EventLater>;

Frame seal(const Packet& p) {
  return std::make_shared<const std::vector<std::byte>>(frame_packet(p));
}

}  // namespace

NetError::NetError(std::uint32_t src, std::uint32_t dst,
                   std::uint32_t attempts)
    : Error(net_error_what(src, dst, attempts)), src_(src), dst_(dst) {}

SimNetwork::SimNetwork(std::uint32_t p, NetConfig cfg)
    : p_(p),
      cfg_(cfg),
      injector_(p, cfg.fault),
      machine_(p),
      dead_(p, 0),
      links_(static_cast<std::size_t>(p) * p),
      mail_(static_cast<std::size_t>(p) * p),
      sender_done_(p, 0),
      last_seen_(p, 0) {
  EMCGM_CHECK(p >= 1);
  EMCGM_CHECK(cfg_.retry.max_attempts >= 1);
  for (std::uint32_t q = 0; q < p_; ++q) machine_[q] = q;
}

void SimNetwork::set_machine_map(std::vector<std::uint32_t> machines) {
  EMCGM_CHECK_MSG(!round_active(),
                  "set_machine_map during an open mailbox round");
  EMCGM_CHECK_MSG(machines.size() == p_,
                  "machine map must name all " << p_ << " processors");
  machine_ = std::move(machines);
}

bool SimNetwork::round_active() const {
  std::lock_guard<std::mutex> lk(mu_);
  return round_active_;
}

void SimNetwork::mark_dead(std::uint32_t proc) {
  EMCGM_CHECK(proc < p_);
  EMCGM_CHECK_MSG(!round_active(), "mark_dead during an open mailbox round");
  if (dead_[proc]) return;
  dead_[proc] = 1;
  // Nothing further will be delivered to or acked by the dead processor;
  // abandon in-flight state on its links instead of retrying into the void.
  for (std::uint32_t q = 0; q < p_; ++q) {
    link(proc, q).window.clear();
    link(q, proc).window.clear();
  }
}

void SimNetwork::mark_alive(std::uint32_t proc) {
  EMCGM_CHECK(proc < p_);
  EMCGM_CHECK_MSG(!round_active(), "mark_alive during an open mailbox round");
  if (!dead_[proc]) return;
  dead_[proc] = 0;
  // The rejoined processor's protocol state restarts from scratch: both ends
  // of every link touching it rewind to sequence 1 with empty windows and
  // resequencing buffers — the peer kept nothing for it (mark_dead cleared
  // the windows) and a stale expect-cursor would discard its fresh frames.
  for (std::uint32_t q = 0; q < p_; ++q) {
    for (LinkState* l : {&link(proc, q), &link(q, proc)}) {
      l->window.clear();
      l->ooo.clear();
      l->next_seq = 1;
      l->expect = 1;
    }
  }
  // Renew the failure-detector lease as of the current step, otherwise the
  // next heartbeat round would count the whole dead spell as misses.
  if (hb_init_) last_seen_[proc] = static_cast<std::int64_t>(cur_step_);
}

std::vector<std::uint32_t> SimNetwork::rejoin_round() {
  EMCGM_CHECK_MSG(!round_active(),
                  "rejoin_round during an open mailbox round");
  std::vector<std::uint32_t> candidates;
  for (std::uint32_t q = 0; q < p_; ++q) {
    if (!dead_[q] || !injector_.rebooted(q)) continue;
    // The rebooted node broadcasts its request to everyone it remembers;
    // each live receiver acks with the current epoch and committed seq.
    // Both legs are heartbeat-class: only fail-stop can eat them, and a
    // rebooted node is by definition not fail-stopped, so a candidate is
    // acked iff any live processor exists — deterministically.
    std::uint32_t acks = 0;
    for (std::uint32_t h = 0; h < p_; ++h) {
      if (h == q) continue;
      ++stats_.rejoin_requests;
      stats_.wire_bytes += kPacketHeaderBytes;
      if (crossing(q, h)) stats_.crossing_wire_bytes += kPacketHeaderBytes;
      const LinkVerdict v = injector_.on_transmit(
          q, h, PacketType::kRejoinReq, kPacketHeaderBytes);
      if (v.drop || dead_[h]) {
        if (v.drop) ++stats_.dropped;
        continue;
      }
      ++stats_.rejoin_acks;
      stats_.wire_bytes += kRejoinAckBytes;
      if (crossing(h, q)) stats_.crossing_wire_bytes += kRejoinAckBytes;
      const LinkVerdict va = injector_.on_transmit(
          h, q, PacketType::kRejoinAck, kRejoinAckBytes);
      if (va.drop) {
        ++stats_.dropped;
        continue;
      }
      ++acks;
    }
    if (acks > 0) candidates.push_back(q);
  }
  return candidates;
}

std::uint64_t SimNetwork::rto(std::uint32_t attempts) const {
  // Never time out before a same-tick ack could possibly arrive: one base
  // latency each way plus slack, whatever the retry policy's base says.
  const std::uint64_t floor = 2 * std::uint64_t{kBaseLatencyTicks} + 2;
  return std::max(floor, cfg_.retry.backoff_us(attempts));
}

// ------------------------------------------------------ pair simulation ----

void SimNetwork::run_pair(std::uint32_t lo, std::uint32_t hi,
                          PairOutcome& out) {
  EMCGM_ASSERT(lo < hi && hi < p_);
  // Pair-local clock and wire. Only the four pieces of state a pair owns are
  // touched below: its two LinkStates, its two injector coin cursors, and
  // `out` — which is why pairs may run on any thread, in any order, with
  // identical results (see the header's pair-decomposition argument).
  EventQueue events;
  std::uint64_t tick = 0;
  std::uint64_t order_counter = 0;

  // A pair carries only data and acks, and the sender knows the type and
  // both ends of every frame it puts on the wire.
  auto transmit = [&](PacketType type, std::uint32_t src, std::uint32_t dst,
                      const Frame& frame) {
    const std::size_t bytes = frame->size();
    ++(type == PacketType::kData ? out.stats.data_sent : out.stats.acks_sent);
    out.stats.wire_bytes += bytes;
    if (crossing(src, dst)) out.stats.crossing_wire_bytes += bytes;

    const LinkVerdict v = injector_.on_transmit(src, dst, type, bytes);
    if (v.drop) {
      ++out.stats.dropped;
      return;
    }
    if (v.reordered) ++out.stats.reordered;
    if (v.delayed) ++out.stats.delayed;

    const std::uint64_t base = kBaseLatencyTicks;
    Frame sent = frame;
    if (v.corrupt) {
      ++out.stats.corrupted;
      auto copy = std::make_shared<std::vector<std::byte>>(*frame);
      (*copy)[v.corrupt_pos % bytes] ^= std::byte{0x40};
      sent = std::move(copy);
    }
    events.push(Event{tick + base + v.extra_delay, order_counter++,
                      std::move(sent)});
    if (v.duplicate) {
      ++out.stats.duplicated;
      events.push(
          Event{tick + base + v.dup_extra_delay, order_counter++, frame});
    }
  };

  auto handle_arrival = [&](const Frame& frame) {
    const std::optional<Packet> parsed = parse_packet(*frame);
    if (!parsed) {
      // In-flight corruption: the CRC (or frame structure) check rejected
      // it. The sender's retransmission timer recovers.
      ++out.stats.corrupt_discarded;
      return;
    }
    const Packet& pkt = *parsed;
    if (pkt.type == PacketType::kAck) {
      // Cumulative ack for the data direction dst -> src of the ack frame.
      LinkState& l = link(pkt.dst, pkt.src);
      while (!l.window.empty() && l.window.front().attempts > 0 &&
             l.window.front().seq <= pkt.seq) {
        l.window.pop_front();
      }
      return;
    }

    LinkState& l = link(pkt.src, pkt.dst);
    std::vector<std::byte>& stream = pkt.dst == lo ? out.to_lo : out.to_hi;
    auto deliver = [&](std::span<const std::byte> payload) {
      ++out.stats.delivered_messages;
      out.stats.delivered_payload_bytes += payload.size();
      stream.insert(stream.end(), payload.begin(), payload.end());
      ++l.expect;
    };
    if (pkt.seq < l.expect) {
      ++out.stats.duplicates_discarded;
    } else if (pkt.seq == l.expect) {
      deliver(pkt.payload);
      // Drain the resequencing buffer while it continues the in-order run.
      for (auto it = l.ooo.find(l.expect); it != l.ooo.end();
           it = l.ooo.find(l.expect)) {
        deliver(std::span(*it->second).subspan(kPacketHeaderBytes));
        l.ooo.erase(it);
      }
    } else {
      if (l.ooo.emplace(pkt.seq, frame).second) {
        ++out.stats.out_of_order_buffered;
      } else {
        ++out.stats.duplicates_discarded;
      }
    }

    // Cumulative ack (also on dup/out-of-order arrivals: a lost ack must not
    // leave the sender retransmitting forever).
    const Packet ack{PacketType::kAck, pkt.dst, pkt.src, l.expect - 1, {}};
    transmit(PacketType::kAck, ack.src, ack.dst, seal(ack));
  };

  // The pair's two directed links, in canonical order — the same relative
  // order the old global event loop visited them in, so per-link coin
  // consumption is unchanged.
  const std::uint32_t ends[2][2] = {{lo, hi}, {hi, lo}};

  for (;;) {
    // Put queued-but-never-transmitted frames on the wire at the current
    // tick, in link order (canonical, hence deterministic).
    for (const auto& e : ends) {
      for (Unacked& u : link(e[0], e[1]).window) {
        if (u.attempts != 0) continue;
        u.attempts = 1;
        u.last_sent = tick;
        transmit(PacketType::kData, e[0], e[1], u.frame);
      }
    }

    const bool all_acked =
        link(lo, hi).window.empty() && link(hi, lo).window.empty();
    if (all_acked) break;

    // Advance the clock to the next thing that happens: an arrival or the
    // earliest retransmission deadline.
    const std::uint64_t next_event = events.empty() ? kNever
                                                    : events.top().tick;
    std::uint64_t next_rto = kNever;
    for (const auto& e : ends) {
      for (const Unacked& u : link(e[0], e[1]).window) {
        if (u.attempts == 0) continue;
        next_rto = std::min(next_rto, u.last_sent + rto(u.attempts));
      }
    }
    EMCGM_ASSERT(next_event != kNever || next_rto != kNever);
    tick = std::min(next_event, next_rto);

    // Arrivals first: an ack landing at this tick cancels a same-tick
    // retransmission.
    while (!events.empty() && events.top().tick <= tick) {
      const Frame frame = std::move(events.top().frame);
      events.pop();
      handle_arrival(frame);
    }

    // Then retransmissions that are (still) due.
    for (const auto& e : ends) {
      LinkState& l = link(e[0], e[1]);
      for (Unacked& u : l.window) {
        if (u.attempts == 0 || u.last_sent + rto(u.attempts) > tick) continue;
        if (u.attempts >= cfg_.retry.max_attempts) {
          // Budget exhausted: record and stop the pair where it stands.
          // reset_links() clears the leftover windows before any replay.
          out.error = std::make_exception_ptr(NetError(e[0], e[1],
                                                       u.attempts));
          return;
        }
        ++u.attempts;
        u.last_sent = tick;
        ++out.stats.retransmissions;
        transmit(PacketType::kData, e[0], e[1], u.frame);
      }
    }
  }
  // Quiescent: every payload delivered and acked. In-flight leftovers are
  // duplicates and stale acks — dropped with the pair-local queue.
}

LinkStreams SimNetwork::finish_pairs(std::vector<PairOutcome>& outs) {
  // Merge statistics in canonical pair order. Every counter is an additive
  // total, so the merged value equals what one global event loop would have
  // counted — order only matters for reproducibility of intermediate reads.
  std::uint64_t round_wire_bytes = 0;
  for (std::uint32_t lo = 0; lo < p_; ++lo) {
    for (std::uint32_t hi = lo + 1; hi < p_; ++hi) {
      stats_ += outs[slot(lo, hi)].stats;
      round_wire_bytes += outs[slot(lo, hi)].stats.wire_bytes;
    }
  }
  // Arbitration probe: one charge per closed round. Charged before any pair
  // error rethrows — the wire traffic happened.
  if (charge_ && round_wire_bytes > 0) charge_(round_wire_bytes);
  if (tracer_) {
    // Publish one net_pair span per pair that carried traffic, in canonical
    // pair order. Timestamps were recorded by whichever thread simulated the
    // pair; only this (collector) thread writes the engine shard.
    std::uint32_t pair_index = 0;
    for (std::uint32_t lo = 0; lo < p_; ++lo) {
      for (std::uint32_t hi = lo + 1; hi < p_; ++hi, ++pair_index) {
        const PairOutcome& o = outs[slot(lo, hi)];
        if (o.stats.wire_bytes == 0 && o.stats.delivered_messages == 0) {
          continue;
        }
        obs::Span s;
        s.kind = obs::SpanKind::kNetPair;
        s.host = tracer_->engine_pid();
        s.track = 1 + pair_index;
        s.group = lo;
        s.vproc = hi;
        s.step = cur_step_;
        s.start_ns = o.t0_ns;
        s.dur_ns = o.t1_ns >= o.t0_ns ? o.t1_ns - o.t0_ns : 0;
        s.aux0 = o.stats.wire_bytes;
        s.aux1 = o.stats.delivered_messages;
        tracer_->engine_shard().emit(std::move(s));
      }
    }
  }
  for (std::uint32_t lo = 0; lo < p_; ++lo) {
    for (std::uint32_t hi = lo + 1; hi < p_; ++hi) {
      if (outs[slot(lo, hi)].error) {
        std::rethrow_exception(outs[slot(lo, hi)].error);
      }
    }
  }
  LinkStreams streams(p_, std::vector<std::vector<std::byte>>(p_));
  for (std::uint32_t lo = 0; lo < p_; ++lo) {
    for (std::uint32_t hi = lo + 1; hi < p_; ++hi) {
      PairOutcome& o = outs[slot(lo, hi)];
      streams[hi][lo] = std::move(o.to_hi);
      streams[lo][hi] = std::move(o.to_lo);
    }
  }
  return streams;
}

// --------------------------------------------------------- mailbox round ----

void SimNetwork::finish_locked(std::uint32_t src, std::vector<PairId>& ready) {
  sender_done_[src] = 1;
  for (std::uint32_t t = 0; t < p_; ++t) {
    if (t != src && sender_done_[t]) {
      ready.emplace_back(std::min(src, t), std::max(src, t));
    }
  }
}

void SimNetwork::run_ready(const std::vector<PairId>& ready) {
  if (ready.empty()) return;
  for (const auto& [lo, hi] : ready) {
    PairOutcome& out = pair_out_[slot(lo, hi)];
    if (tracer_) out.t0_ns = tracer_->now_ns();
    load_pair_mail(lo, hi, out);
    run_pair(lo, hi, out);
    if (tracer_) out.t1_ns = tracer_->now_ns();
  }
  std::lock_guard<std::mutex> lk(mu_);
  pairs_left_ -= static_cast<std::uint32_t>(ready.size());
}

void SimNetwork::load_pair_mail(std::uint32_t lo, std::uint32_t hi,
                                PairOutcome& out) {
  const std::size_t mtu = cfg_.mtu_bytes;
  EMCGM_CHECK(mtu > 0);
  const std::uint32_t ends[2][2] = {{lo, hi}, {hi, lo}};
  std::vector<std::byte>* const received[2] = {&out.to_hi, &out.to_lo};
  for (int d = 0; d < 2; ++d) {
    const std::uint32_t src = ends[d][0], dst = ends[d][1];
    const std::vector<std::byte> bytes = std::move(mail_[slot(src, dst)]);
    received[d]->reserve(bytes.size());
    LinkState& l = link(src, dst);
    for (std::size_t off = 0; off < bytes.size(); off += mtu) {
      const Packet pkt{PacketType::kData, src, dst, l.next_seq++,
                       std::span(bytes).subspan(
                           off, std::min(mtu, bytes.size() - off))};
      l.window.push_back(Unacked{pkt.seq, seal(pkt), 0, 0});
    }
  }
}

void SimNetwork::begin_round() {
  std::vector<PairId> ready;
  {
    std::lock_guard<std::mutex> lk(mu_);
    EMCGM_CHECK_MSG(!round_active_, "begin_round with a round already open");
    round_active_ = true;
    std::fill(sender_done_.begin(), sender_done_.end(), char{0});
    pair_out_.assign(static_cast<std::size_t>(p_) * p_, PairOutcome{});
    pairs_left_ = p_ * (p_ - 1) / 2;
    // Dead processors post nothing, so they finish at once; a pair of two
    // dead endpoints is simulated right here (zero frames, zero coins).
    for (std::uint32_t q = 0; q < p_; ++q) {
      if (dead_[q]) finish_locked(q, ready);
    }
  }
  run_ready(ready);
}

void SimNetwork::post(std::uint32_t src, std::uint32_t dst,
                      std::vector<std::byte> bytes) {
  EMCGM_CHECK(src < p_ && dst < p_ && src != dst);
  std::lock_guard<std::mutex> lk(mu_);
  EMCGM_CHECK_MSG(round_active_, "post outside a mailbox round");
  EMCGM_CHECK_MSG(!sender_done_[src], "post after finish_sender");
  EMCGM_CHECK_MSG(!dead_[src] && !dead_[dst],
                  "post on a link with a dead endpoint: " << src << "->"
                                                          << dst);
  auto& box = mail_[slot(src, dst)];
  if (box.empty()) {
    box = std::move(bytes);
  } else {
    box.insert(box.end(), bytes.begin(), bytes.end());
  }
}

void SimNetwork::finish_sender(std::uint32_t src) {
  EMCGM_CHECK(src < p_);
  std::vector<PairId> ready;
  {
    std::lock_guard<std::mutex> lk(mu_);
    EMCGM_CHECK_MSG(round_active_, "finish_sender outside a mailbox round");
    EMCGM_CHECK_MSG(!sender_done_[src], "finish_sender called twice");
    finish_locked(src, ready);
  }
  run_ready(ready);
}

std::vector<SimNetwork::PairOutcome> SimNetwork::close_round_locked() {
  EMCGM_CHECK_MSG(pairs_left_ == 0,
                  pairs_left_ << " endpoint pair(s) not yet simulated: close a"
                                 " round only after every finish_sender()"
                                 " returned");
  round_active_ = false;
  return std::move(pair_out_);
}

LinkStreams SimNetwork::collect() {
  std::vector<PairOutcome> outs;
  {
    std::lock_guard<std::mutex> lk(mu_);
    EMCGM_CHECK_MSG(round_active_, "collect outside a mailbox round");
    for (std::uint32_t s = 0; s < p_; ++s) {
      EMCGM_CHECK_MSG(sender_done_[s],
                      "collect before sender " << s << " finished");
    }
    outs = close_round_locked();
  }
  return finish_pairs(outs);
}

void SimNetwork::abort_round() {
  std::vector<PairId> ready;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!round_active_) return;
    for (std::uint32_t s = 0; s < p_; ++s) {
      if (!sender_done_[s]) finish_locked(s, ready);
    }
  }
  run_ready(ready);
  std::vector<PairOutcome> outs;
  {
    std::lock_guard<std::mutex> lk(mu_);
    outs = close_round_locked();
  }
  // Statistics still merge (the wire traffic happened; threaded and serial
  // runs count it identically); streams and link errors of the abandoned
  // round do not survive — the superstep is being replayed.
  for (std::uint32_t lo = 0; lo < p_; ++lo) {
    for (std::uint32_t hi = lo + 1; hi < p_; ++hi) {
      stats_ += outs[slot(lo, hi)].stats;
    }
  }
}

// ------------------------------------------------------------ liveness ----

std::vector<std::uint32_t> SimNetwork::heartbeat_round(std::uint64_t step) {
  EMCGM_CHECK_MSG(!round_active(),
                  "heartbeat_round during an open mailbox round");
  ++stats_.heartbeat_rounds;
  if (!hb_init_) {
    hb_init_ = true;
    std::fill(last_seen_.begin(), last_seen_.end(),
              static_cast<std::int64_t>(step) - 1);
  }

  std::uint32_t live = 0;
  for (std::uint32_t q = 0; q < p_; ++q) live += dead_[q] ? 0 : 1;

  // Every live processor beats to every other; being heard by anyone renews
  // the lease. Heartbeats see only fail-stop (net_fault.h), so this is the
  // eventually-perfect detector: with <= 1 peer there is no one to miss you.
  if (live > 1) {
    for (std::uint32_t i = 0; i < p_; ++i) {
      if (dead_[i]) continue;
      for (std::uint32_t j = 0; j < p_; ++j) {
        if (j == i || dead_[j]) continue;
        ++stats_.heartbeats_sent;
        stats_.wire_bytes += kPacketHeaderBytes;
        if (crossing(i, j)) stats_.crossing_wire_bytes += kPacketHeaderBytes;
        const LinkVerdict v = injector_.on_transmit(
            i, j, PacketType::kHeartbeat, kPacketHeaderBytes);
        if (v.drop) {
          ++stats_.dropped;
          continue;
        }
        last_seen_[i] =
            std::max(last_seen_[i], static_cast<std::int64_t>(step));
      }
    }
  }

  std::vector<std::uint32_t> newly_dead;
  if (live > 1) {
    for (std::uint32_t i = 0; i < p_; ++i) {
      if (dead_[i]) continue;
      const std::int64_t missed =
          static_cast<std::int64_t>(step) - last_seen_[i];
      if (missed >= std::int64_t{kHeartbeatMissThreshold}) {
        newly_dead.push_back(i);
      }
    }
  }
  for (std::uint32_t q : newly_dead) mark_dead(q);
  return newly_dead;
}

void SimNetwork::reset_links() {
  EMCGM_CHECK_MSG(!round_active(), "reset_links during an open mailbox round");
  for (LinkState& l : links_) {
    l.window.clear();
    l.ooo.clear();
    l.next_seq = 1;
    l.expect = 1;
  }
}

std::vector<std::uint32_t> SimNetwork::probe_dead() {
  std::vector<std::uint32_t> newly_dead;
  for (std::uint32_t q = 0; q < p_; ++q) {
    if (!dead_[q] && injector_.fail_stopped(q)) newly_dead.push_back(q);
  }
  for (std::uint32_t q : newly_dead) mark_dead(q);
  return newly_dead;
}

}  // namespace emcgm::net
