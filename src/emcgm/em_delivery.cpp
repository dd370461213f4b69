// EmEngine's message delivery (Algorithm 3): the batch record, step 0 of the
// collective schedule posted from the host threads, and the barrier that
// runs the later steps and writes every arrival to its destination's disks.
#include "emcgm/em_engine.h"

#include <algorithm>
#include <sstream>

#include "chaos/chaos_config.h"
#include "emcgm/em_engine_internal.h"
#include "obs/trace.h"
#include "util/error.h"

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

struct Batch {
  std::uint32_t src_g = 0;
  std::uint32_t dst_g = 0;
  std::vector<cgm::Message> messages;
};

// Read back one record put_batch wrote, checking its store groups against p.
Batch get_batch(ReadArchive& ar, std::uint32_t p) {
  Batch b;
  b.src_g = ar.get<std::uint32_t>();
  b.dst_g = ar.get<std::uint32_t>();
  EMCGM_CHECK_MSG(b.src_g < p && b.dst_g < p,
                  "network delivery names a bad store group");
  const auto count = ar.get<std::uint64_t>();
  for (std::uint64_t k = 0; k < count; ++k) {
    cgm::Message m;
    m.src = ar.get<std::uint32_t>();
    m.dst = ar.get<std::uint32_t>();
    m.payload = ar.get_bytes();
    b.messages.push_back(std::move(m));
  }
  return b;
}

}  // namespace

void EmEngine::rebuild_schedule() {
  sched_.reset();
  if (!net_) return;
  const std::uint32_t p = cfg_.p;
  std::vector<std::uint32_t> hosts;
  for (std::uint32_t q = 0; q < p; ++q) {
    if (alive_[q]) hosts.push_back(q);
  }
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
// collective schedule (p > 1, net enabled; called from the host's own
// worker thread): each batch record goes into the mailbox of its flow's
// first hop. Records are serialized in (src_g, dst_g) order — each host
// drives its groups ascending and this loop scans dst_g ascending, so
// every link's mailbox stream is canonical whatever the thread
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
                      rs.round);
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
// batch record (put_batch): a relay holds and forwards records unchanged,
// and a record that reaches its fin host is decoded, checked exactly-once
// en route. NetStats picks up the wire tax (relay hops, retransmissions,
// duplicates, corrupt frames) while StepComm keeps counting the delivered
// payload — the realized h-relation. Either way each store group then
// writes its arrivals, gathered in canonical (src_g-ascending) order and
// stable-sorted by (src, dst), so the bytes on disk are bit-identical
// between in-memory staging, every schedule, any degraded-mode assignment,
// and both use_threads modes.
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
    // a network), decoded from network deliveries otherwise. held[o][f]:
    // the batch records of flow (o, f) waiting for their next hop — flows
    // step 0 does not move, then relayed arrivals.
    std::vector<std::vector<std::vector<cgm::Message>>> batches(
        p, std::vector<std::vector<cgm::Message>>(p));
    std::vector<std::vector<WriteArchive>> held;
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
    if (net_) {
      obs::SpanScope net_span(tr, eshard, obs::SpanKind::kNetCollect, epid,
                              0, -1, -1, phys_step_, rs.round);
      const net::NetStats net_mark = net_->stats();
      // Close the open round, then parse the self-delimiting batch records
      // back out of each link's stream, one receiving host at a time.
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
              Batch b = get_batch(ar, p);
              const std::uint32_t fin = group_host_[b.dst_g];
              if (fin != h) {  // relay: hold the record for the next hop
                held[group_host_[b.src_g]][fin].write_raw(
                    s.data() + begin, ar.position() - begin);
                continue;
              }
              auto& slot = batches[b.dst_g][b.src_g];
              EMCGM_CHECK_MSG(slot.empty(),
                              "duplicate network batch delivered");
              slot = std::move(b.messages);
            }
          }
        }
      };
      close_round();
      const std::vector<routing::ScheduleStep>& steps = sched_->steps;
      for (std::size_t si = 1; si < steps.size(); ++si) {
        obs::SpanScope step_span(tr, eshard, obs::SpanKind::kSchedStep,
                                 epid, static_cast<std::uint32_t>(si), -1,
                                 -1, phys_step_, rs.round);
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

    if (cfg_.chaos.invariants) {
      // Exactly-once delivery: the crossing messages decoded out of the
      // network (plus same-host staging) must equal, in count, the
      // crossing messages the h-relation accounting saw at the source —
      // a dropped-and-not-retransmitted or duplicated-and-not-deduped
      // batch shows up here, at the barrier it corrupted.
      std::uint64_t delivered = 0;
      for (std::uint32_t dst_g = 0; dst_g < p; ++dst_g) {
        for (std::uint32_t src_g = 0; src_g < p; ++src_g) {
          if (group_host_[src_g] == group_host_[dst_g]) continue;
          delivered += batches[dst_g][src_g].size();
        }
      }
      if (delivered != step.messages) {
        std::ostringstream os;
        os << "network delivered " << delivered
           << " crossing messages but the sources posted " << step.messages;
        throw chaos::InvariantViolation(chaos::Invariant::kExactlyOnce,
                                        os.str());
      }
    }

    for_each_group(p, cfg_.net.failover, [&](std::uint32_t dst_g) {
      std::vector<cgm::Message> arrivals;
      for (std::uint32_t src_g = 0; src_g < p; ++src_g) {
        for (auto& m : batches[dst_g][src_g]) {
          arrivals.push_back(std::move(m));
        }
      }
      if (arrivals.empty()) return;
      // Deterministic arrival order regardless of threading or routing;
      // stable so same-(src, dst) messages keep their program order.
      std::stable_sort(arrivals.begin(), arrivals.end(),
                       [](const cgm::Message& a, const cgm::Message& b) {
                         return a.src != b.src ? a.src < b.src
                                               : a.dst < b.dst;
                       });
      // Arrival writes run at the barrier (main thread) but touch the
      // destination group's disks — render them there.
      obs::SpanScope span(tr, eshard, obs::SpanKind::kOutboxWrite,
                          group_host_[dst_g], dst_g, dst_g, -1, phys_step_,
                          rs.round,
                          tr ? &procs_[dst_g]->disks->stats() : nullptr);
      if (tr) {
        std::uint64_t bytes = 0;
        for (const auto& m : arrivals) bytes += m.payload.size();
        span.set_aux(arrivals.size(), bytes);
      }
      procs_[dst_g]->messages->write_messages(arrivals);
    });
  }
  rs.result.comm.steps.push_back(step);
  rs.result.comm_steps += 1;
  // The arrival writes are write-behind: collect their completion (and any
  // crash they suffered) before the stores flip and the superstep's I/O is
  // recorded. Serial arrays make this a no-op.
  for_each_group(p, cfg_.net.failover,
                 [&](std::uint32_t g) { procs_[g]->disks->drain(); });
}

}  // namespace emcgm::em
