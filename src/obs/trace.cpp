#include "obs/trace.h"

#include <iterator>

#include "util/error.h"

namespace emcgm::obs {

namespace {

constexpr SpanKindInfo kSpanKinds[] = {
    {SpanKind::kSuperstep, "superstep", "engine", "phase", nullptr},
    {SpanKind::kGroupStep, "group_step", "engine", nullptr, nullptr},
    {SpanKind::kContextRead, "context_read", "io", "bytes", nullptr},
    {SpanKind::kInboxRead, "inbox_read", "io", "bytes", nullptr},
    {SpanKind::kCompute, "compute", "compute", "inbox_msgs", "outbox_msgs"},
    {SpanKind::kOutboxWrite, "outbox_write", "io", "messages", "bytes"},
    {SpanKind::kContextWrite, "context_write", "io", "bytes", nullptr},
    {SpanKind::kNetPost, "net_post", "net", "bytes", nullptr},
    {SpanKind::kNetCollect, "net_collect", "net", "wire_bytes",
     "retransmissions"},
    {SpanKind::kNetPair, "net_pair", "net", "wire_bytes",
     "delivered_messages"},
    {SpanKind::kDeliver, "deliver", "compute", "messages", "bytes"},
    {SpanKind::kCommit, "commit", "ckpt", "record_bytes", nullptr},
    {SpanKind::kRecovery, "recovery", "ckpt", nullptr, nullptr},
    {SpanKind::kHeartbeat, "heartbeat", "net", "newly_dead", nullptr},
    {SpanKind::kOutputCollect, "output_collect", "engine", "vprocs", nullptr},
    {SpanKind::kIoPrefetch, "io_prefetch", "io", nullptr, nullptr},
    {SpanKind::kIoDrain, "io_drain", "io", nullptr, nullptr},
    {SpanKind::kRejoin, "rejoin", "net", "procs", "record_bytes"},
    {SpanKind::kRebalance, "rebalance", "engine", "migrations",
     "migration_bytes"},
    {SpanKind::kSchedStep, "sched_step", "net", "posted_bytes", "transfers"},
};

constexpr bool rows_in_enum_order() {
  for (std::size_t i = 0; i < std::size(kSpanKinds); ++i) {
    if (static_cast<std::size_t>(kSpanKinds[i].kind) != i) return false;
  }
  return true;
}
// kSchedStep is the last kind, so the rows cover all 20.
static_assert(std::size(kSpanKinds) ==
                  static_cast<std::size_t>(SpanKind::kSchedStep) + 1,
              "one kSpanKinds row per SpanKind");
static_assert(rows_in_enum_order(), "kSpanKinds rows follow the enum order");

}  // namespace

const SpanKindInfo& span_info(SpanKind k) {
  return kSpanKinds[static_cast<std::size_t>(k)];
}

std::size_t TraceShard::open(SpanKind kind, std::uint32_t host,
                             std::uint32_t track, std::int64_t group,
                             std::int64_t vproc, std::uint64_t step,
                             std::uint64_t round, std::uint64_t now_ns,
                             const pdm::IoStats* io_src) {
  Span s;
  s.kind = kind;
  s.depth = static_cast<std::uint16_t>(open_.size());
  s.host = host;
  s.track = track;
  s.group = group;
  s.vproc = vproc;
  s.step = step;
  s.round = round;
  s.start_ns = now_ns;
  const std::size_t idx = spans_.size();
  spans_.push_back(std::move(s));
  open_.push_back(OpenRec{idx, io_src, io_src ? *io_src : pdm::IoStats{}});
  return idx;
}

void TraceShard::close(std::size_t idx, std::uint64_t now_ns,
                       std::uint64_t aux0, std::uint64_t aux1) {
  EMCGM_ASSERT(!open_.empty() && open_.back().idx == idx);
  const OpenRec rec = open_.back();
  open_.pop_back();
  Span& s = spans_[idx];
  s.dur_ns = now_ns >= s.start_ns ? now_ns - s.start_ns : 0;
  s.aux0 = aux0;
  s.aux1 = aux1;
  if (rec.io_src) s.io = *rec.io_src - rec.at_open;
}

Tracer::Tracer(std::uint32_t p)
    : p_(p), shards_(p + 1), epoch_(std::chrono::steady_clock::now()) {
  EMCGM_CHECK(p >= 1);
}

void Tracer::set_tenant(const std::string& t) {
  tenant_.clear();
  tenant_.reserve(t.size());
  for (char c : t) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    tenant_.push_back(ok ? c : '_');
  }
}

void Tracer::record_queue_depth(std::uint32_t host, std::size_t depth) {
  // Cap chosen so a full track is ~1.5 MB; plenty for the benchmark runs
  // the counter is meant to visualize.
  constexpr std::size_t kMaxDepthSamples = 1u << 17;
  const std::uint64_t ns = now_ns();
  std::lock_guard<std::mutex> lock(depth_mu_);
  if (depth_samples_.size() >= kMaxDepthSamples) return;
  depth_samples_.push_back(
      DepthSample{ns, host, static_cast<std::uint32_t>(depth)});
}

std::vector<DepthSample> Tracer::queue_depth_samples() const {
  std::lock_guard<std::mutex> lock(depth_mu_);
  return depth_samples_;
}

void Tracer::record_membership_epoch(std::uint64_t epoch) {
  // Barrier-owned like the engine shard: membership only changes at
  // superstep barriers, on the main thread, so no lock is needed.
  epoch_samples_.push_back(EpochSample{now_ns(), epoch});
}

std::vector<Span> Tracer::merged() const {
  std::vector<Span> out;
  std::size_t total = 0;
  for (const auto& sh : shards_) total += sh.spans().size();
  out.reserve(total);
  for (const auto& sh : shards_) {
    out.insert(out.end(), sh.spans().begin(), sh.spans().end());
  }
  return out;
}

}  // namespace emcgm::obs
