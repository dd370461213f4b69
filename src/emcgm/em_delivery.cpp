// EmEngine's message delivery (Algorithm 3): the batch record, step 0 of the
// collective schedule posted from the host workers, the barrier that closes
// each round and runs the later steps, and the arrival pass in which every
// host decodes its own arrivals and writes them to its groups' disks.
#include "emcgm/em_engine.h"

#include <algorithm>
#include <exception>
#include <numeric>
#include <span>
#include <sstream>

#include "chaos/chaos_config.h"
#include "emcgm/em_engine_internal.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/worker_pool.h"

namespace emcgm::em {

namespace {

// Batch record: the wire unit of superstep delivery. The (src_g, dst_g)
// header names the record's flow (group_host_[src_g], group_host_[dst_g]),
// so relays forward records unchanged and the fin host decodes them. The
// record is sized once, before it is written.
void put_batch(WriteArchive& ar, std::uint32_t src_g, std::uint32_t dst_g,
               const std::vector<cgm::Message>& batch) {
  std::size_t bytes = 2 * sizeof(std::uint32_t) + sizeof(std::uint64_t);
  for (const auto& m : batch) {
    bytes += 2 * sizeof(std::uint32_t) + sizeof(std::uint64_t) +
             m.payload.size();
  }
  const std::size_t start = ar.size();
  ar.reserve(bytes);
  ar.put<std::uint32_t>(src_g);
  ar.put<std::uint32_t>(dst_g);
  ar.put<std::uint64_t>(batch.size());
  for (const auto& m : batch) {
    ar.put<std::uint32_t>(m.src);
    ar.put<std::uint32_t>(m.dst);
    ar.put_bytes(m.payload);
  }
  EMCGM_CHECK(ar.size() - start == bytes);
}

struct BatchHeader {
  std::uint32_t src_g = 0;
  std::uint32_t dst_g = 0;
};

// Walk one record put_batch wrote, checking its store groups against p,
// and hand each message to on_message(src, dst, payload view). The views
// borrow the archive's bytes; the barrier's header walk ignores them and the
// fin host's decode copies them out.
template <typename OnMessage>
BatchHeader walk_batch(ReadArchive& ar, std::uint32_t p,
                       OnMessage&& on_message) {
  BatchHeader b;
  b.src_g = ar.get<std::uint32_t>();
  b.dst_g = ar.get<std::uint32_t>();
  EMCGM_CHECK_MSG(b.src_g < p && b.dst_g < p,
                  "network delivery names a bad store group");
  const auto count = ar.get<std::uint64_t>();
  for (std::uint64_t k = 0; k < count; ++k) {
    const auto src = ar.get<std::uint32_t>();
    const auto dst = ar.get<std::uint32_t>();
    on_message(src, dst, ar.get_bytes_view());
  }
  return b;
}

}  // namespace

void EmEngine::rebuild_schedule() {
  sched_.reset();
  if (!net_) return;
  const std::uint32_t p = cfg_.p;
  const std::vector<std::uint32_t> hosts = live_hosts();
  if (cfg_.net.schedule == routing::ScheduleKind::kCustom) {
    // User-supplied schedule JSON. At run start (epoch 0, full membership)
    // it must cover exactly this machine — anything else is a typed
    // configuration error before a byte moves. A later membership epoch
    // cannot re-derive a hand-written host set, so the run falls back to
    // the direct schedule for its remaining epochs (documented policy,
    // NetConfig::custom_schedule_json): the schedule shape only changes the
    // wire layout, never the delivered bytes, so the fall-back preserves
    // bit-identical output. The JSON's own "kind" label is free — a ring
    // exported by tools/schedule_check replays fine as kCustom.
    routing::CommSchedule s =
        routing::parse_schedule_json(cfg_.net.custom_schedule_json);
    if (s.p == p && s.hosts == hosts) {
      sched_ = std::move(s);
    } else if (epoch_ == 0) {
      std::ostringstream os;
      os << "custom schedule covers p=" << s.p << " with " << s.hosts.size()
         << " hosts but the machine has p=" << p << " with " << hosts.size()
         << " live hosts at run start";
      throw IoError(IoErrorKind::kConfig, os.str());
    }
  }
  if (!sched_) {
    const routing::ScheduleKind kind =
        cfg_.net.schedule == routing::ScheduleKind::kCustom
            ? routing::ScheduleKind::kDirect
            : cfg_.net.schedule;
    sched_ = routing::make_schedule(
        kind, p, hosts, routing::machines_from_roots(p, cfg_.file_roots));
  }
  // Safety net: every schedule must pass the model checker before the
  // engine routes a byte through it. Throws typed IoError(kConfig).
  routing::verify_schedule(*sched_);
  // In step 0 every flow still sits at its orig host, so a step-0 transfer
  // names each flow's first hop.
  first_hop_.assign(static_cast<std::size_t>(p) * p, kNoHost);
  if (!sched_->steps.empty()) {
    for (const routing::Transfer& t : sched_->steps.front().transfers) {
      for (const routing::Flow& fl : t.flows) {
        first_hop_[fl.first * p + fl.second] = t.dst;
      }
    }
  }
}

// Post one finished store group's crossing batches as step 0 of the
// collective schedule (p > 1, net enabled; called from the worker running
// the host's task): each batch record goes into the mailbox of its flow's
// first hop. Records are serialized in (src_g, dst_g) order — each host
// drives its groups ascending and this loop scans dst_g ascending, so
// every link's mailbox stream is canonical whatever the worker
// interleaving. Same-host batches and flows that step 0 does not move are
// left for the barrier. All batches stay in `out.by_owner`: deliver_staged
// still counts the h-relation from them at the barrier, single-threaded,
// which is what keeps StepComm accumulation race-free without shadow
// counters.
void EmEngine::post_group(RunState& rs, std::uint32_t host, std::uint32_t g,
                          ProcOutcome& out) {
  const std::uint32_t p = cfg_.p;
  obs::Tracer* const tr = tracer_.get();
  obs::SpanScope span(tr, tr ? &tr->host_shard(host) : nullptr,
                      obs::SpanKind::kNetPost, host, g, g, -1, phys_step_,
                      rs.at.round);
  std::uint64_t posted_bytes = 0;
  for (std::uint32_t dst_g = 0; dst_g < p; ++dst_g) {
    const auto& batch = out.by_owner[dst_g];
    const std::uint32_t hop = first_hop_[host * p + group_host_[dst_g]];
    if (batch.empty() || hop == kNoHost) continue;
    WriteArchive ar;
    put_batch(ar, g, dst_g, batch);
    posted_bytes += ar.size();
    net_->post(host, hop, ar.take());
  }
  span.set_aux(posted_bytes);
}

// Deliver staged messages (p > 1). Communication cost is attributed to
// *hosts*: a message crosses the network iff the hosts of its source and
// destination groups differ (identical to the old src_r != dst_r when the
// assignment is the identity). With the simulated network enabled the
// crossing batches travel along the verified collective schedule, one
// mailbox round per step through the reliable protocol. Step 0 already
// traveled during the phase — each host posted its groups' batch records
// to their first hops (post_group) — so the barrier closes that round and
// then runs steps 1.. itself, store-and-forward. The wire unit is the
// batch record (put_batch). After each round the barrier walks the
// records' headers only: a relay holds a record and forwards it unchanged,
// and a record that reached its fin host stays in the round's stream, where
// that host decodes it. NetStats picks up the wire tax (relay hops,
// retransmissions, duplicates, corrupt frames) while StepComm keeps
// counting the delivered payload — the realized h-relation.
//
// Then, as in Algorithm 3, every live host takes in its own arrivals on its
// own worker, in one run() of the host pool: it decodes the records whose
// fin host it is (a batch delivered twice is an error), counts its
// crossing messages, and writes each of its groups' arrivals, groups
// ascending, gathered in canonical (src_g-ascending) order and
// stable-sorted by (src, dst). So the bytes on disk are bit-identical
// between in-memory staging, every schedule, any degraded-mode assignment,
// and both use_threads modes. Once every host is done, the barrier raises
// the pass's errors in a fixed order: the lowest host's decode error, the
// exactly-once invariant, then the groups' write errors by
// for_each_group's rule.
void EmEngine::deliver_staged(RunState& rs,
                              std::vector<ProcOutcome>& outcomes) {
  const std::uint32_t p = cfg_.p;
  obs::Tracer* const tr = tracer_.get();
  obs::TraceShard* const eshard = tr ? &tr->engine_shard() : nullptr;
  const std::uint32_t epid = tr ? tr->engine_pid() : 0;
  cgm::StepComm step;
  if (p > 1) {
    std::vector<std::uint64_t> sent(p, 0), recv(p, 0);
    for (std::uint32_t src_g = 0; src_g < p; ++src_g) {
      for (std::uint32_t dst_g = 0; dst_g < p; ++dst_g) {
        if (group_host_[src_g] == group_host_[dst_g]) continue;
        for (const auto& m : outcomes[src_g].by_owner[dst_g]) {
          const std::uint64_t n = m.payload.size();
          step.bytes += n;
          step.messages += 1;
          step.min_msg_bytes = std::min(step.min_msg_bytes, n);
          step.max_msg_bytes = std::max(step.max_msg_bytes, n);
          sent[group_host_[src_g]] += n;
          recv[group_host_[dst_g]] += n;
        }
      }
    }
    for (std::uint32_t r = 0; r < p; ++r) {
      step.max_sent = std::max(step.max_sent, sent[r]);
      step.max_recv = std::max(step.max_recv, recv[r]);
    }

    // batches[dst_g][src_g]: the (src_g -> dst_g) message batch, however
    // it traveled. Staged directly for same-host pairs (every pair without
    // a network), decoded by the fin host otherwise. held[o][f]: the batch
    // records of flow (o, f) waiting for their next hop — flows step 0
    // does not move, then relayed arrivals. arrived[h]: the records whose
    // fin host is h, as views into the closed rounds' streams, which
    // `rounds` keeps alive.
    std::vector<std::vector<std::vector<cgm::Message>>> batches(
        p, std::vector<std::vector<cgm::Message>>(p));
    std::vector<std::vector<WriteArchive>> held;
    std::vector<std::vector<std::span<const std::byte>>> arrived(p);
    std::vector<net::LinkStreams> rounds;
    if (net_) held.assign(p, std::vector<WriteArchive>(p));
    for (std::uint32_t src_g = 0; src_g < p; ++src_g) {
      for (std::uint32_t dst_g = 0; dst_g < p; ++dst_g) {
        auto& batch = outcomes[src_g].by_owner[dst_g];
        if (batch.empty()) continue;
        const std::uint32_t o = group_host_[src_g], f = group_host_[dst_g];
        if (!net_ || o == f) {
          batches[dst_g][src_g] = std::move(batch);
        } else if (first_hop_[o * p + f] == kNoHost) {
          put_batch(held[o][f], src_g, dst_g, batch);
        }
      }
    }
    // The span also covers the hosts' arrival pass, so the time they
    // spend decoding counts as collection.
    obs::SpanScope net_span(tr, net_ ? eshard : nullptr,
                            obs::SpanKind::kNetCollect, epid, 0, -1, -1,
                            phys_step_, rs.at.round);
    if (net_) {
      const net::NetStats net_mark = net_->stats();
      // Close the open round, then walk the headers of the self-delimiting
      // batch records in each link's stream, one receiving host at a time.
      auto close_round = [&] {
        net::LinkStreams streams;
        try {
          streams = net_->collect();
        } catch (const net::NetError&) {
          // Attribute the exhausted link before giving up: a fail-stopped
          // peer is a fail-over, an overwhelmed retry budget is an error.
          auto dead = net_->probe_dead();
          if (!dead.empty() && cfg_.net.failover) {
            throw DeadProcsError{std::move(dead), std::current_exception()};
          }
          throw;
        }
        for (std::uint32_t h = 0; h < p; ++h) {
          for (const auto& s : streams[h]) {
            ReadArchive ar(s);
            while (!ar.exhausted()) {
              const std::size_t begin = ar.position();
              const BatchHeader b =
                  walk_batch(ar, p, [](auto, auto, auto) {});
              const std::span<const std::byte> record(
                  s.data() + begin, ar.position() - begin);
              const std::uint32_t fin = group_host_[b.dst_g];
              if (fin == h) {
                arrived[h].push_back(record);
              } else {  // relay: hold the record for the next hop
                held[group_host_[b.src_g]][fin].write_raw(record.data(),
                                                          record.size());
              }
            }
          }
        }
        rounds.push_back(std::move(streams));
      };
      close_round();
      const std::vector<routing::ScheduleStep>& steps = sched_->steps;
      for (std::size_t si = 1; si < steps.size(); ++si) {
        obs::SpanScope step_span(tr, eshard, obs::SpanKind::kSchedStep,
                                 epid, static_cast<std::uint32_t>(si), -1,
                                 -1, phys_step_, rs.at.round);
        net_->begin_round();
        std::uint64_t posted_bytes = 0, posted_transfers = 0;
        for (const routing::Transfer& t : steps[si].transfers) {
          // Every flow the plan moves over this link, in the transfer's
          // canonical flow order; a flow with no bytes this superstep
          // travels as nothing at all.
          const std::uint64_t before = posted_bytes;
          for (const routing::Flow& fl : t.flows) {
            std::vector<std::byte> records = held[fl.first][fl.second].take();
            posted_bytes += records.size();
            net_->post(t.src, t.dst, std::move(records));
          }
          if (posted_bytes > before) posted_transfers += 1;
        }
        for (std::uint32_t h = 0; h < p; ++h) {
          if (alive_[h]) net_->finish_sender(h);
        }
        close_round();
        step_span.set_aux(posted_bytes, posted_transfers);
      }
      for (const auto& row : held) {
        for (const WriteArchive& records : row) {
          EMCGM_CHECK_MSG(records.size() == 0,
                          "schedule left a flow short of its fin host");
        }
      }
      const net::NetStats delta = net_->stats() - net_mark;
      step.wire_bytes = delta.wire_bytes;
      step.retransmissions = delta.retransmissions;
      net_span.set_aux(delta.wire_bytes, delta.retransmissions);
    }

    // The arrival pass. Host h touches only its own groups' batches rows,
    // stores and disks, its own trace shard, and its own slots below.
    const std::vector<std::uint32_t> hosts = live_hosts();
    std::vector<std::uint64_t> crossing(hosts.size(), 0);
    std::vector<std::exception_ptr> write_error(p);
    host_workers_->run(hosts.size(), [&](std::size_t k) {
      const std::uint32_t h = hosts[k];
      for (const std::span<const std::byte> record : arrived[h]) {
        ReadArchive ar(record);
        std::vector<cgm::Message> messages;
        const BatchHeader b = walk_batch(
            ar, p,
            [&](std::uint32_t src, std::uint32_t dst,
                std::span<const std::byte> payload) {
              messages.push_back(cgm::Message{
                  src, dst,
                  std::vector<std::byte>(payload.begin(), payload.end())});
            });
        auto& slot = batches[b.dst_g][b.src_g];
        EMCGM_CHECK_MSG(slot.empty(), "duplicate network batch delivered");
        slot = std::move(messages);
      }
      for (std::uint32_t dst_g = 0; dst_g < p; ++dst_g) {
        if (group_host_[dst_g] != h) continue;
        std::size_t count = 0;
        for (std::uint32_t src_g = 0; src_g < p; ++src_g) {
          count += batches[dst_g][src_g].size();
          if (group_host_[src_g] != h) {
            crossing[k] += batches[dst_g][src_g].size();
          }
        }
        if (count == 0) continue;
        try {
          std::vector<cgm::Message> arrivals;
          arrivals.reserve(count);
          for (auto& batch : batches[dst_g]) {
            for (auto& m : batch) arrivals.push_back(std::move(m));
          }
          // Deterministic arrival order regardless of threading or
          // routing; stable so same-(src, dst) messages keep their program
          // order.
          std::stable_sort(arrivals.begin(), arrivals.end(),
                           [](const cgm::Message& a, const cgm::Message& b) {
                             return a.src != b.src ? a.src < b.src
                                                   : a.dst < b.dst;
                           });
          obs::SpanScope span(tr, tr ? &tr->host_shard(h) : nullptr,
                              obs::SpanKind::kOutboxWrite, h, dst_g, dst_g,
                              -1, phys_step_, rs.at.round,
                              tr ? &procs_[dst_g]->disks->stats() : nullptr);
          if (tr) {
            std::uint64_t bytes = 0;
            for (const auto& m : arrivals) bytes += m.payload.size();
            span.set_aux(arrivals.size(), bytes);
          }
          procs_[dst_g]->messages->write_messages(arrivals);
        } catch (...) {
          write_error[dst_g] = std::current_exception();
        }
      }
    });

    if (cfg_.chaos.invariants) {
      // Exactly-once delivery: the crossing messages decoded out of the
      // network (plus same-host staging) must equal, in count, the
      // crossing messages the h-relation accounting saw at the source —
      // a dropped-and-not-retransmitted or duplicated-and-not-deduped
      // batch shows up here, at the barrier it corrupted.
      const std::uint64_t delivered =
          std::accumulate(crossing.begin(), crossing.end(), std::uint64_t{0});
      if (delivered != step.messages) {
        std::ostringstream os;
        os << "network delivered " << delivered
           << " crossing messages but the sources posted " << step.messages;
        throw chaos::InvariantViolation(chaos::Invariant::kExactlyOnce,
                                        os.str());
      }
    }
    for_each_group(p, cfg_.net.failover, [&](std::uint32_t g) {
      if (write_error[g]) std::rethrow_exception(write_error[g]);
    });
  }
  cgm::close_delivery(rs.result, step);
  // The arrival writes are write-behind: collect their completion (and any
  // crash they suffered) before the stores flip and the superstep's I/O is
  // recorded. Serial arrays make this a no-op.
  for_each_group(p, cfg_.net.failover,
                 [&](std::uint32_t g) { procs_[g]->disks->drain(); });
}

}  // namespace emcgm::em
