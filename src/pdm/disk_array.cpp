#include "pdm/disk_array.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <type_traits>

namespace emcgm::pdm {

namespace {

// io_threads resolution: 0 = inline, kIoThreadsAuto = hw_concurrency, both
// clamped to the number of disks (more workers than disks cannot help — one
// parallel op has at most one block per disk).
std::uint32_t resolve_io_workers(std::uint32_t requested, std::uint32_t D) {
  if (requested == 0) return 0;
  if (requested == kIoThreadsAuto) {
    requested = std::thread::hardware_concurrency();
    if (requested == 0) requested = 1;
  }
  return std::min(requested, D);
}

}  // namespace

DiskArray::DiskArray(std::unique_ptr<StorageBackend> backend,
                     DiskArrayOptions opts)
    : backend_(std::move(backend)),
      opts_(std::move(opts)),
      geom_(backend_ ? backend_->geometry() : DiskGeometry{}) {
  EMCGM_CHECK(backend_ != nullptr);
  EMCGM_CHECK_MSG(num_disks() <= 64,
                  "disk-mask validation supports up to 64 disks");
  EMCGM_CHECK_MSG(opts_.retry.max_attempts >= 1,
                  "retry policy needs at least one attempt");
  if (opts_.checksums) {
    EMCGM_CHECK_MSG(geom_.block_bytes > kEnvelopeBytes + 8,
                    "physical block of " << geom_.block_bytes
                                         << " bytes too small for a "
                                         << kEnvelopeBytes
                                         << "-byte checksum envelope");
    geom_.block_bytes -= kEnvelopeBytes;  // expose the logical view
  }
  // Every backoff — inline or on an executor worker — goes through one
  // resolved sleep function, so the injectable hook covers all schedules.
  IoExecutor::SleepFn sleep = opts_.retry.sleep;
  if (!sleep) {
    sleep = [](std::uint64_t us) {
      if (us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(us));
      }
    };
  }
  injector_ = dynamic_cast<FaultInjectingBackend*>(backend_.get());
  exec_ = std::make_unique<IoExecutor>(
      *backend_, resolve_io_workers(opts_.io_threads, num_disks()), opts_,
      std::move(sleep), stats_);
}

DiskArray::~DiskArray() {
  // Quiesce: pending jobs reference buffers the owners are about to free.
  try {
    exec_->drain();
  } catch (...) {
    // A pending error has nowhere to go during teardown.
  }
}

template <typename Slot>
IoTicket DiskArray::submit(std::span<const Slot> slots) {
  constexpr bool kWrite = std::is_same_v<Slot, WriteSlot>;
  constexpr const char* kind = kWrite ? "write" : "read";
  const std::uint32_t D = num_disks();
  EMCGM_CHECK_MSG(!slots.empty(), "empty parallel " << kind);
  EMCGM_CHECK_MSG(slots.size() <= D, "parallel " << kind << " of "
                                                 << slots.size()
                                                 << " blocks on " << D
                                                 << " disks");
  std::uint64_t mask = 0;  // disk occupancy of this op
  for (const Slot& s : slots) {
    EMCGM_CHECK_MSG(s.addr.disk < D, "disk index " << s.addr.disk
                                                   << " out of range (D="
                                                   << D << ")");
    const std::uint64_t bit = 1ULL << s.addr.disk;
    EMCGM_CHECK_MSG((mask & bit) == 0,
                    "parallel op touches disk " << s.addr.disk << " twice");
    mask |= bit;
    if constexpr (kWrite) {
      EMCGM_CHECK(s.data.size() == block_bytes());
    } else {
      EMCGM_CHECK(s.out.size() == block_bytes());
    }
  }
  // With a fail-stop plan armed, the crash must land exactly between
  // completed parallel ops, as it does inline: quiesce the workers before
  // noting the next op so no in-flight job observes the transition.
  if (async() && injector_ && injector_->armed() &&
      injector_->plan().crash_after_ops != 0) {
    drain();
  }
  backend_->note_parallel_op();
  return exec_->submit(slots);
}

template IoTicket DiskArray::submit(std::span<const ReadSlot>);
template IoTicket DiskArray::submit(std::span<const WriteSlot>);

std::uint64_t DiskArray::tracks_used() const {
  drain();
  std::uint64_t total = 0;
  for (std::uint32_t d = 0; d < num_disks(); ++d) {
    total += backend_->tracks_used(d);
  }
  return total;
}

std::unique_ptr<DiskArray> make_disk_array(BackendKind kind,
                                           const DiskGeometry& logical,
                                           const std::string& file_dir,
                                           const DiskArrayOptions& opts,
                                           const FaultPlan& plan) {
  auto base =
      make_backend(kind, physical_geometry(logical, opts.checksums), file_dir);
  std::unique_ptr<StorageBackend> backend = std::move(base);
  if (plan.enabled()) {
    backend =
        std::make_unique<FaultInjectingBackend>(std::move(backend), plan);
  }
  return std::make_unique<DiskArray>(std::move(backend), opts);
}

}  // namespace emcgm::pdm
