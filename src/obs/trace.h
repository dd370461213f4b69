// Phase-scoped tracing for the EM-CGM engines.
//
// A Tracer produces *spans*: closed intervals tagged with the phase of
// Algorithm 2/3 they cover (context read, inbox read, compute, outbox
// write, context write, net round post/collect, checkpoint commit, recovery
// replay, ...), the (host, store group, virtual processor, physical
// superstep, application round) coordinates, and the I/O delta the phase
// incurred (snapshotted from the owning DiskArray's IoStats at open/close —
// attribution by delta, so the disk hot path itself stays untouched).
//
// Thread-safety follows the engine's shard discipline (DESIGN.md §10/§11):
// the tracer owns p host shards plus one engine shard. Host shard h is
// written, inside run_phase and inside the barrier's arrival pass, only by
// whichever worker runs host h's task (the caller itself when the pool has
// one worker); the engine shard is written only by the caller at barriers. Shards are merged in
// canonical order — shard index ascending, record order within a shard — so
// the merged *structure* (kinds, coordinates, nesting) is bit-identical
// between use_threads on and off; only the wall-clock timestamps differ.
//
// Overhead budget: with the tracer absent (obs.trace = false, the default)
// every instrumentation site is one raw-pointer test and spans cost zero
// allocations; with it present a span is one vector slot (~160 bytes) plus
// two steady_clock reads — a few hundred spans per engine run, not per I/O.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "pdm/io_stats.h"

namespace emcgm::obs {

/// Span kinds. kSchedStep stays last: obs/trace.cpp holds one span_info()
/// row per kind, in this order.
enum class SpanKind : std::uint8_t {
  kSuperstep,      ///< one physical superstep (engine shard backbone)
  kGroupStep,      ///< one store group's work within a superstep
  kContextRead,    ///< Algorithm 2 step (a)
  kInboxRead,      ///< Algorithm 2 step (b)
  kCompute,        ///< Algorithm 2 step (c)
  kOutboxWrite,    ///< Algorithm 2 step (d) / p > 1 arrival writes
  kContextWrite,   ///< Algorithm 2 step (e)
  kNetPost,        ///< posting crossing batches into schedule step 0
  kNetCollect,     ///< closing step 0 and running the rest at the barrier
  kNetPair,        ///< one endpoint-pair protocol simulation
  kDeliver,        ///< in-memory message delivery (NativeEngine)
  kCommit,         ///< checkpoint commit record write
  kRecovery,       ///< replay restore from the last committed boundary
  kHeartbeat,      ///< failure-detector heartbeat exchange
  kOutputCollect,  ///< final context read-back into output slots
  kIoPrefetch,     ///< async submission of the next vproc's context + inbox
  kIoDrain,        ///< write-behind completion barrier at group end
  kRejoin,         ///< rejoin handshake + checkpoint catch-up of a returner
  kRebalance,      ///< store-group re-spread + migrations after a change
  kSchedStep,      ///< one barrier-side collective-schedule step (1, 2, ...)
};

/// What the exporters know about one span kind: its stable lowercase name
/// ("context_read", ..., validated by tools/validate_trace.py), its coarse
/// category for trace viewers ("engine", "io", "compute", "net", "ckpt"),
/// and the argument names of its two aux payloads (nullptr = not exported).
struct SpanKindInfo {
  SpanKind kind;
  const char* name;
  const char* category;
  const char* aux0;
  const char* aux1;
};

/// The row of kind k in the one table of span kinds.
const SpanKindInfo& span_info(SpanKind k);

/// One sample of an async I/O executor's in-flight block count, recorded
/// through DiskArrayOptions.on_queue_depth. `host` is the real processor
/// whose disks the executor serves.
struct DepthSample {
  std::uint64_t ns = 0;
  std::uint32_t host = 0;
  std::uint32_t depth = 0;
};

/// One sample of the engine's membership epoch — recorded at run start and
/// after every membership change (death or rejoin), so the counter track
/// steps exactly where the trace's recovery/rejoin spans sit.
struct EpochSample {
  std::uint64_t ns = 0;
  std::uint64_t epoch = 0;
};

struct Span {
  SpanKind kind = SpanKind::kSuperstep;
  std::uint16_t depth = 0;   ///< open-stack depth within the shard at open
  std::uint32_t host = 0;    ///< executing real processor (exporter pid)
  std::uint32_t track = 0;   ///< rendering lane within the host (exporter tid)
  std::int64_t group = -1;   ///< store group, -1 when not applicable
  std::int64_t vproc = -1;   ///< virtual processor, -1 when not applicable
  std::uint64_t step = 0;    ///< physical superstep clock
  std::uint64_t round = 0;   ///< application round
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t aux0 = 0;    ///< kind-specific payload (see export.cpp)
  std::uint64_t aux1 = 0;
  pdm::IoStats io;           ///< I/O delta attributed to this span
};

/// One shard of the trace. Written by exactly one thread at a time (see the
/// ownership discipline in the file comment); nesting is tracked with an
/// open stack so exporters and tests can validate span structure.
class TraceShard {
 public:
  /// Open a span. `io_src`, when non-null, must point at an IoStats that
  /// stays valid until close() — the span's io field becomes the delta
  /// *io_src accumulated between open and close (a DiskArray's live stats).
  std::size_t open(SpanKind kind, std::uint32_t host, std::uint32_t track,
                   std::int64_t group, std::int64_t vproc, std::uint64_t step,
                   std::uint64_t round, std::uint64_t now_ns,
                   const pdm::IoStats* io_src);

  /// Close the innermost open span (idx must be the most recent open()).
  void close(std::size_t idx, std::uint64_t now_ns, std::uint64_t aux0,
             std::uint64_t aux1);

  /// Append a pre-timed span (used for endpoint-pair simulations whose
  /// timestamps were captured by the owning thread and are published here,
  /// canonically ordered, at the barrier).
  void emit(Span s) { spans_.push_back(std::move(s)); }

  const std::vector<Span>& spans() const { return spans_; }
  bool balanced() const { return open_.empty(); }

 private:
  struct OpenRec {
    std::size_t idx;
    const pdm::IoStats* io_src;
    pdm::IoStats at_open;
  };
  std::vector<Span> spans_;
  std::vector<OpenRec> open_;
};

class Tracer {
 public:
  /// One shard per real processor plus one engine (barrier) shard.
  explicit Tracer(std::uint32_t p);

  std::uint32_t p() const { return p_; }

  TraceShard& host_shard(std::uint32_t h) { return shards_[h]; }
  TraceShard& engine_shard() { return shards_[p_]; }
  const std::vector<TraceShard>& shards() const { return shards_; }

  /// pid the exporter assigns to engine-side (barrier) spans.
  std::uint32_t engine_pid() const { return p_; }

  /// Tenant label (ObsConfig::tenant) prefixed onto exported process names.
  /// Sanitized here — anything outside [A-Za-z0-9_.-] becomes '_'. Set once
  /// at run start by the engine, before any worker thread exists.
  void set_tenant(const std::string& t);
  const std::string& tenant() const { return tenant_; }

  /// Nanoseconds since tracer construction (steady clock; thread-safe).
  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// All spans in canonical order: shard index ascending, record order
  /// within each shard. Structure (everything but timestamps) is
  /// deterministic for a fixed configuration and fault schedule.
  std::vector<Span> merged() const;

  /// Record one io_queue_depth sample. Thread-safe: the executor invokes
  /// the probe from submitter and worker threads. Samples beyond a fixed
  /// cap are dropped — depth is a visualization aid, not an accounted
  /// statistic, so a long run degrades to a truncated counter track rather
  /// than unbounded memory.
  void record_queue_depth(std::uint32_t host, std::size_t depth);

  /// Snapshot of the recorded queue-depth samples, in record order.
  std::vector<DepthSample> queue_depth_samples() const;

  /// Record one membership-epoch sample (barrier thread only; the engine
  /// calls this at run start and after each death or rejoin).
  void record_membership_epoch(std::uint64_t epoch);

  /// Snapshot of the recorded membership-epoch samples, in record order.
  const std::vector<EpochSample>& membership_epoch_samples() const {
    return epoch_samples_;
  }

 private:
  std::uint32_t p_;
  std::string tenant_;
  std::vector<TraceShard> shards_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex depth_mu_;
  std::vector<DepthSample> depth_samples_;
  std::vector<EpochSample> epoch_samples_;  ///< barrier-owned, no lock
};

/// RAII span. A null tracer (observability disabled) makes construction and
/// destruction no-ops — no allocation, one pointer test.
class SpanScope {
 public:
  SpanScope(Tracer* t, TraceShard* shard, SpanKind kind, std::uint32_t host,
            std::uint32_t track, std::int64_t group, std::int64_t vproc,
            std::uint64_t step, std::uint64_t round,
            const pdm::IoStats* io_src = nullptr)
      : t_(t), shard_(t ? shard : nullptr) {
    if (shard_) {
      idx_ = shard_->open(kind, host, track, group, vproc, step, round,
                          t_->now_ns(), io_src);
    }
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  ~SpanScope() {
    if (shard_) shard_->close(idx_, t_->now_ns(), aux0_, aux1_);
  }

  void set_aux(std::uint64_t a0, std::uint64_t a1 = 0) {
    aux0_ = a0;
    aux1_ = a1;
  }

 private:
  Tracer* t_;
  TraceShard* shard_;
  std::size_t idx_ = 0;
  std::uint64_t aux0_ = 0;
  std::uint64_t aux1_ = 0;
};

}  // namespace emcgm::obs
