#include "net/net_fault.h"

#include <algorithm>

namespace emcgm::net {

namespace {

// Distinct coin streams per fault class, mixed with the link id so links
// fault independently.
enum Stream : std::uint64_t {
  kDrop = 1,
  kDup = 2,
  kCorrupt = 3,
  kReorder = 4,
  kDelay = 5,
  kJitter = 6,
};

std::uint64_t stream_id(Stream s, std::uint64_t link, std::uint64_t epoch) {
  // Pre-mix: fault_coin xors the stream id with the (small) transmission
  // index, so ids that differ only in their low bits would collide across
  // links — e.g. (link 1, idx 2) drawing the same coin as (link 2, idx 1).
  // A full mix makes every (class, link, epoch) stream independent. Epoch 0
  // leaves the pre-membership stream ids unchanged.
  return pdm::fault_mix((epoch << 44) ^ (static_cast<std::uint64_t>(s) << 32) ^
                        link);
}

}  // namespace

LinkFaultInjector::LinkFaultInjector(std::uint32_t p, NetFaultPlan plan)
    : plan_(plan),
      p_(p),
      link_index_(static_cast<std::size_t>(p) * p, 0) {}

void LinkFaultInjector::set_epoch(std::uint64_t epoch) {
  if (epoch == epoch_) return;
  epoch_ = epoch;
  // Fresh per-link transmission counters: the new epoch's coin streams are
  // indexed from 1 regardless of how much traffic earlier epochs carried —
  // this is what makes degraded and re-grown memberships replay-stable.
  std::fill(link_index_.begin(), link_index_.end(), 0);
}

bool LinkFaultInjector::fail_stopped(std::uint32_t proc) const {
  // Latest fired event wins; a kill and a reboot at the same step resolve to
  // dead. `fired` is the step of the latest fail-stop at or before step_,
  // `up` that of the latest rejoin.
  bool any_kill = false;
  std::uint64_t fired = 0;
  for (const NodeEvent& e : plan_.fail_stops) {
    if (e.proc != proc || step_ < e.step) continue;
    if (!any_kill || e.step > fired) fired = e.step;
    any_kill = true;
  }
  if (!any_kill) return false;
  for (const NodeEvent& e : plan_.rejoins) {
    if (e.proc == proc && step_ >= e.step && e.step > fired) return false;
  }
  return true;
}

bool LinkFaultInjector::rebooted(std::uint32_t proc) const {
  if (fail_stopped(proc)) return false;
  for (const NodeEvent& e : plan_.rejoins) {
    if (e.proc == proc && step_ >= e.step) return true;
  }
  return false;
}

LinkVerdict LinkFaultInjector::on_transmit(std::uint32_t src,
                                           std::uint32_t dst, PacketType type,
                                           std::size_t frame_bytes) {
  LinkVerdict v;
  if (fail_stopped(src) || fail_stopped(dst)) {
    v.drop = true;
    return v;
  }
  // Heartbeat-class frames — liveness beacons and the rejoin handshake —
  // see only fail-stop (see header).
  if (type == PacketType::kHeartbeat || type == PacketType::kRejoinReq ||
      type == PacketType::kRejoinAck) {
    return v;
  }

  const std::uint64_t link = static_cast<std::uint64_t>(src) * p_ + dst;
  const std::uint64_t idx = ++link_index_[link];
  auto coin = [&](Stream s) {
    return pdm::fault_coin(plan_.seed, stream_id(s, link, epoch_), idx);
  };
  auto jitter = [&](Stream s, std::uint64_t mod) {
    return static_cast<std::uint32_t>(
        pdm::fault_mix(plan_.seed ^ stream_id(s, link, epoch_) ^ idx) % mod);
  };

  if (plan_.drop_prob > 0 && coin(kDrop) < plan_.drop_prob) {
    v.drop = true;
    return v;
  }
  if (plan_.dup_prob > 0 && coin(kDup) < plan_.dup_prob) {
    v.duplicate = true;
    v.dup_extra_delay = 1 + jitter(kJitter, 2);
  }
  if (plan_.corrupt_prob > 0 && coin(kCorrupt) < plan_.corrupt_prob) {
    v.corrupt = true;
    v.corrupt_pos = frame_bytes == 0 ? 0 : jitter(kCorrupt, frame_bytes);
  }
  if (plan_.reorder_prob > 0 && coin(kReorder) < plan_.reorder_prob) {
    v.reordered = true;
    v.extra_delay += 1 + jitter(kReorder, 3);
  }
  if (plan_.delay_prob > 0 && coin(kDelay) < plan_.delay_prob) {
    v.delayed = true;
    v.extra_delay += kDelayTicks;
  }
  return v;
}

}  // namespace emcgm::net
