// EmEngine's membership protocol: commit records at superstep boundaries,
// the restore from the last one, fail-over onto the survivors, rejoin of a
// returning processor, and the store-group re-spread both of them trigger.
#include "emcgm/em_engine.h"

#include <cstring>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/chaos_config.h"
#include "emcgm/em_engine_internal.h"
#include "obs/trace.h"
#include "pdm/checksum.h"
#include "util/error.h"

namespace emcgm::em {

namespace {

// Commit record (superstep checkpointing), one per store group and boundary:
// magic and version, the boundary (seq, round, phase), the membership epoch
// it was committed under, the ownership map (group_host / alive: who was
// executing each store group when it was taken), the group's context and
// message directories, and a CRC32C trailer over all of it. Only the engine
// that wrote a record reads it (the commit mark lives in memory), so there
// is exactly one version to accept.
constexpr std::uint32_t kCkptMagic = 0x454D4B50;  // "EMKP"
constexpr std::uint32_t kCkptVersion = 3;

struct RecordHeader {
  std::uint64_t seq = 0;
  std::uint64_t round = 0;
  std::uint32_t phase = 0;
  std::uint64_t epoch = 0;
};

void put_commit_record(WriteArchive& ar, const RecordHeader& h,
                       const std::vector<std::uint32_t>& group_host,
                       const std::vector<char>& alive,
                       const ContextStore& contexts,
                       const MessageStore& messages) {
  ar.put<std::uint32_t>(kCkptMagic);
  ar.put<std::uint32_t>(kCkptVersion);
  ar.put<std::uint64_t>(h.seq);
  ar.put<std::uint64_t>(h.round);
  ar.put<std::uint32_t>(h.phase);
  ar.put<std::uint64_t>(h.epoch);
  for (std::uint32_t host : group_host) ar.put<std::uint32_t>(host);
  for (char a : alive) ar.put<std::uint32_t>(a ? 1 : 0);
  contexts.save(ar);
  messages.save(ar);
  ar.put<std::uint32_t>(pdm::crc32c(ar.buffer()));
}

// Check a commit record's CRC32C trailer, magic/version and ownership map
// and read its header into `h`; `what` names the record in the typed
// errors. Returns a reader over `blob` positioned at the group's store
// directories. The recorded ownership map is only validated, never
// applied: the in-memory map is authoritative — a fail-over re-assigns
// hosts *before* restoring, and the restore must not undo that.
ReadArchive open_commit_record(std::span<const std::byte> blob,
                               const char* what, std::uint32_t p,
                               RecordHeader& h) {
  EMCGM_CHECK_MSG(blob.size() > 4, what << " truncated");
  const auto body = blob.first(blob.size() - 4);
  std::uint32_t stored_crc;
  std::memcpy(&stored_crc, blob.data() + body.size(), 4);
  if (stored_crc != pdm::crc32c(body)) {
    throw IoError(IoErrorKind::kCorruption,
                  std::string(what) + " checksum mismatch");
  }
  ReadArchive ar(body);
  const auto magic = ar.get<std::uint32_t>();
  const auto version = ar.get<std::uint32_t>();
  if (magic != kCkptMagic || version != kCkptVersion) {
    throw IoError(IoErrorKind::kCorruption,
                  std::string(what) + " has bad magic/version");
  }
  h.seq = ar.get<std::uint64_t>();
  h.round = ar.get<std::uint64_t>();
  h.phase = ar.get<std::uint32_t>();
  h.epoch = ar.get<std::uint64_t>();
  for (std::uint32_t g = 0; g < p; ++g) {
    const auto host = ar.get<std::uint32_t>();
    EMCGM_CHECK_MSG(host < p, what << " names a bad group host");
  }
  for (std::uint32_t q = 0; q < p; ++q) {
    const auto a = ar.get<std::uint32_t>();
    EMCGM_CHECK_MSG(a <= 1, what << " has a bad liveness flag");
  }
  return ar;
}

}  // namespace

// -------------------------------------------------------------- commit ----

void EmEngine::commit(cgm::Superstep at) {
  // Commit boundaries must advance strictly: every commit follows a full
  // phase, so even a post-fail-over replay lands past the restored mark.
  if (cfg_.chaos.invariants && commit_.valid && at <= commit_.at) {
    std::ostringstream os;
    os << "commit boundary " << at << " does not advance past the committed "
       << commit_.at;
    throw chaos::InvariantViolation(chaos::Invariant::kCommitMonotonic,
                                    os.str());
  }
  const std::uint64_t seq = commit_.seq + 1;
  const int slot = static_cast<int>(seq % 2);
  // Every store group commits — including those of a dead machine, whose
  // disks survive it (remounted by the adopting survivor). A fail-stop crash
  // of one machine's disks must not abort the others' records: collect the
  // casualties and let the fail-over path deal with them. commit_ is only
  // advanced when every record landed, so a partial commit leaves the
  // previous boundary (in the other slot) authoritative.
  const RecordHeader header{seq, at.round,
                            static_cast<std::uint32_t>(at.phase), epoch_};
  obs::Tracer* tr = tracer_.get();
  WriteArchive ar;  // each group's record is taken before the next is put
  for_each_group(cfg_.p, cfg_.net.failover, [&](std::uint32_t g) {
    auto& rp = *procs_[g];
    // Commit runs on the barrier thread; render the span on the group's
    // host so checkpoint cost shows up where the disks live.
    obs::SpanScope span(tr, tr ? &tr->engine_shard() : nullptr,
                        obs::SpanKind::kCommit, group_host_[g], g, g, -1,
                        phys_step_, at.round, &rp.disks->stats());
    put_commit_record(ar, header, group_host_, alive_, *rp.contexts,
                      *rp.messages);
    const auto blob = ar.take();
    span.set_aux(blob.size());

    auto& ck = *rp.ckpt[slot];
    ck.cursor.reset();
    ck.extent = ck.cursor.alloc(blob.size(), rp.disks->block_bytes());
    pdm::write_striped(*rp.disks, ck.tracks, ck.extent, blob);
    rp.disks->sync();  // a boundary is committed only once it is durable
  });
  commit_ = Commit{true, seq, at};
}

void EmEngine::restore_from_commit() {
  EMCGM_CHECK_MSG(commit_.valid, "no committed checkpoint to resume from");
  // Quiesce every async executor before touching the disks: the aborted
  // superstep may have left write-behind errors pending, and they belong to
  // the timeline the replay is about to discard — they must not resurface
  // out of the restore's own reads.
  for (auto& rp : procs_) {
    try {
      rp->disks->drain();
    } catch (const IoError&) {
      // casualty of the aborted superstep
    }
  }
  obs::Tracer* tr = tracer_.get();
  for (std::uint32_t g = 0; g < cfg_.p; ++g) {
    auto& rp = *procs_[g];
    obs::SpanScope span(tr, tr ? &tr->engine_shard() : nullptr,
                        obs::SpanKind::kRecovery, group_host_[g], g, g, -1,
                        phys_step_, commit_.at.round, &rp.disks->stats());
    EMCGM_CHECK_MSG(rp.contexts && rp.messages,
                    "resume() before run() set up the stores");
    const auto blob = read_commit_blob(g);
    RecordHeader rec;
    ReadArchive ar = open_commit_record(blob, "commit record", cfg_.p, rec);
    EMCGM_CHECK_MSG(rec.seq == commit_.seq && rec.round == commit_.at.round &&
                        rec.phase ==
                            static_cast<std::uint32_t>(commit_.at.phase),
                    "commit record does not match the in-memory commit mark");
    // Membership epoch: the epoch under which the boundary was taken. A
    // fail-over bumps the epoch *before* restoring the record committed
    // under the old epoch, so the recorded value is a floor, not an
    // equality.
    EMCGM_CHECK_MSG(rec.epoch <= epoch_,
                    "commit record from a future membership epoch");
    rp.contexts->load(ar);
    rp.messages->load(ar);
    EMCGM_CHECK_MSG(ar.exhausted(), "commit record has trailing bytes");
  }
}

// ---------------------------------------------------------- membership ----

std::vector<std::uint32_t> EmEngine::respread() {
  ++epoch_;
  net_->set_epoch(epoch_);
  if (tracer_) tracer_->record_membership_epoch(epoch_);
  rebuild_schedule();
  std::vector<std::uint32_t> old_host = group_host_;
  group_host_ = rebalance_groups();
  verify_spread();
  // Leftovers of an aborted superstep must not reach the replay.
  net_->reset_links();
  return old_host;
}

std::vector<std::uint32_t> EmEngine::rebalance_groups() const {
  // Home placement first: a group whose original owner is alive stays (or
  // returns) home — its disks live there, so the placement is free — and
  // seeds that host's load. Orphans are then spread greedily, group id
  // ascending, onto the least-loaded live host (ties to the lowest id).
  // The result is a pure function of the alive set: every replica of the
  // run — whatever its threading mode — rebalances identically, the
  // max-min load difference is at most 1, and only groups that *must*
  // move (or can go home) ever change host.
  std::vector<std::uint32_t> host(cfg_.p, kNoHost);
  std::vector<std::uint32_t> load(cfg_.p, 0);
  for (std::uint32_t g = 0; g < cfg_.p; ++g) {
    if (!alive_[g]) continue;
    host[g] = g;
    ++load[g];
  }
  for (std::uint32_t g = 0; g < cfg_.p; ++g) {
    if (host[g] != kNoHost) continue;
    std::uint32_t best = kNoHost;
    for (std::uint32_t h = 0; h < cfg_.p; ++h) {
      if (!alive_[h]) continue;
      if (best == kNoHost || load[h] < load[best]) best = h;
    }
    EMCGM_ASSERT(best != kNoHost);
    host[g] = best;
    ++load[best];
  }
  return host;
}

void EmEngine::verify_spread() const {
  if (!cfg_.chaos.invariants) return;
  std::vector<std::uint32_t> load(cfg_.p, 0);
  for (std::uint32_t g = 0; g < cfg_.p; ++g) {
    const std::uint32_t h = group_host_[g];
    if (h >= cfg_.p || !alive_[h]) {
      throw chaos::InvariantViolation(
          chaos::Invariant::kSpread,
          "store group " + std::to_string(g) + " assigned to dead host " +
              std::to_string(h));
    }
    ++load[h];
  }
  std::uint32_t lo = 0xFFFFFFFF, hi = 0;
  for (std::uint32_t h = 0; h < cfg_.p; ++h) {
    if (!alive_[h]) continue;
    lo = std::min(lo, load[h]);
    hi = std::max(hi, load[h]);
  }
  if (hi > lo + 1) {
    std::ostringstream os;
    os << "store-group spread over live hosts is " << (hi - lo)
       << " (min load " << lo << ", max load " << hi << "); rebalance must"
       << " keep it <= 1";
    throw chaos::InvariantViolation(chaos::Invariant::kSpread, os.str());
  }
}

std::vector<std::byte> EmEngine::read_commit_blob(std::uint32_t g) {
  auto& rp = *procs_[g];
  auto& ck = *rp.ckpt[static_cast<int>(commit_.seq % 2)];
  return pdm::read_striped(*rp.disks, ck.tracks, ck.extent);
}

std::uint64_t EmEngine::migrate_groups(
    const std::vector<std::uint32_t>& old_host, std::uint64_t round) {
  // The group's state lives on its own disks — the new host simply remounts
  // them — so a hand-over moves no context or message bytes. What crosses
  // the wire is the catch-up: a live old host streams the group's committed
  // record to the new host through the staged mailbox path, and the new
  // host validates it against the in-memory commit mark before taking the
  // group. A dead old host cannot stream anything; its groups are adopted
  // straight off their surviving disks (no wire traffic, counted as
  // migrations all the same). Groups are handed over in ascending order at
  // the barrier, so the round's wire activity is canonical in every
  // threading mode.
  std::vector<std::uint32_t> moved;
  for (std::uint32_t g = 0; g < cfg_.p; ++g) {
    if (old_host[g] != group_host_[g]) moved.push_back(g);
  }
  if (moved.empty()) return 0;
  obs::Tracer* tr = tracer_.get();
  obs::SpanScope span(tr, tr ? &tr->engine_shard() : nullptr,
                      obs::SpanKind::kRebalance, tr ? tr->engine_pid() : 0, 0,
                      -1, -1, phys_step_, round);
  std::uint64_t wire_bytes = 0;
  net_->begin_round();
  for (std::uint32_t g : moved) {
    const std::uint32_t from = old_host[g];
    std::uint64_t record_bytes = 0;
    if (alive_[from]) {
      auto blob = read_commit_blob(g);
      record_bytes = blob.size();
      WriteArchive ar;
      ar.put<std::uint32_t>(g);
      ar.put_bytes(blob);
      net_->post(from, group_host_[g], ar.take());
    }
    net_->count_migration(record_bytes);
    wire_bytes += record_bytes;
  }
  for (std::uint32_t h = 0; h < cfg_.p; ++h) {
    if (alive_[h]) net_->finish_sender(h);
  }
  // A cascading loss during the hand-over round itself is unrecoverable
  // from here (this may already be the fail-over path); let it surface.
  const net::LinkStreams streams = net_->collect();
  for (std::uint32_t h = 0; h < cfg_.p; ++h) {
    for (const auto& s : streams[h]) {
      ReadArchive ar(s);
      while (!ar.exhausted()) {
        const auto g = ar.get<std::uint32_t>();
        EMCGM_CHECK_MSG(g < cfg_.p && group_host_[g] == h,
                        "migrated commit record misrouted");
        // Checkpoint catch-up: the stores are not loaded from the migrated
        // copy — the group's own disks are authoritative and the new host
        // reads them directly — but a host handing over a stale or torn
        // record must be caught here, not a superstep later.
        const auto blob = ar.get_bytes();
        RecordHeader rec;
        open_commit_record(blob, "migrated commit record", cfg_.p, rec);
        EMCGM_CHECK_MSG(rec.seq == commit_.seq,
                        "group " << g << " migrated a stale commit record (seq "
                                 << rec.seq << ", committed " << commit_.seq
                                 << ")");
      }
    }
  }
  span.set_aux(moved.size(), wire_bytes);
  return wire_bytes;
}

std::uint64_t EmEngine::try_rejoin(std::uint64_t round,
                                   cgm::RunResult& result) {
  if (cfg_.net.fault.rejoins.empty() || !net_ || !commit_.valid) return 0;
  const auto candidates = net_->rejoin_round();
  if (candidates.empty()) return 0;
  obs::Tracer* tr = tracer_.get();
  obs::SpanScope span(tr, tr ? &tr->engine_shard() : nullptr,
                      obs::SpanKind::kRejoin, tr ? tr->engine_pid() : 0, 0,
                      -1, -1, phys_step_, round);
  // Re-admission runs at the barrier, before the superstep opens. The
  // returner's disks hold exactly the committed state (the layout never
  // moved while it was gone), the acks told it the committed superstep id,
  // and the catch-up — the committed record of every group it takes back,
  // streamed by the current host and validated on arrival — happens in the
  // hand-over round. Nothing else needs restoring: at a barrier the live
  // stores *are* the committed state.
  for (std::uint32_t q : candidates) {
    alive_[q] = 1;
    net_->mark_alive(q);
  }
  const std::vector<std::uint32_t> old_host = respread();
  const std::uint64_t record_bytes = migrate_groups(old_host, round);
  result.rejoins += candidates.size();
  span.set_aux(candidates.size(), record_bytes);
  return candidates.size();
}

// ------------------------------------------------------------ fail-over ---

void EmEngine::failover(const std::vector<std::uint32_t>& dead_procs,
                        std::exception_ptr cause, cgm::RunResult& result) {
  auto unrecoverable = [&](const char* why) {
    if (cause) std::rethrow_exception(cause);
    throw Error(std::string("fail-over impossible: ") + why);
  };
  if (!cfg_.net.failover || !net_) unrecoverable("fail-over is disabled");
  if (!commit_.valid) {
    unrecoverable("a real processor died before the first committed boundary");
  }

  bool any_new = false;
  for (std::uint32_t q : dead_procs) {
    EMCGM_CHECK(q < cfg_.p);
    if (!alive_[q]) continue;
    any_new = true;
    alive_[q] = 0;
    net_->mark_dead(q);
    // The machine is gone but its disks survive; the adopting survivor
    // remounts them, which ends the dead machine's injected fault schedule.
    if (auto* f = procs_[q]->disks->fault_injector()) f->disarm();
  }
  if (!any_new) unrecoverable("declared-dead processors were already dead");

  std::uint32_t live = 0;
  for (char a : alive_) live += a ? 1 : 0;
  if (live == 0) {
    // Total wipe-out: every real processor died in the same superstep, so
    // there is no survivor to degrade onto — the run aborts typed. But a
    // committed boundary exists (checked above) and commit records always
    // live on each group's *original* disks, so the machine is left in the
    // same shape a fresh run would find: everybody nominally alive, groups
    // home, links reset. A caller that repairs the fault (disarm_faults /
    // quota bump) can then resume() from the intact checkpoint to
    // bit-identical output; one whose fault plan re-kills the replay gets
    // the same typed failure again. Identical under every collective
    // schedule: respread() re-derives the schedule over the full host set.
    for (std::uint32_t q = 0; q < cfg_.p; ++q) {
      alive_[q] = 1;
      net_->mark_alive(q);
    }
    respread();
    unrecoverable("no surviving real processor");
  }

  // Membership changed: new epoch (fresh, independent fault-coin streams on
  // every link) and a full deterministic re-spread of the store groups over
  // the survivors — two runs with the same fault schedule degrade
  // identically, and the groups-per-live-host spread stays within 1.
  const std::vector<std::uint32_t> old_host = respread();
  result.failovers += 1;
  restore_from_commit();
  // Hand over the groups that changed host. The dead machines' groups are
  // adopted off their surviving disks; a group moving between two live
  // survivors (the greedy spread can shift an orphan when the host set
  // shrinks) gets its committed record streamed and re-validated.
  migrate_groups(old_host, commit_.at.round);
}

}  // namespace emcgm::em
