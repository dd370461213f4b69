#include "emcgm/context_store.h"

#include "util/error.h"

namespace emcgm::em {

ContextStore::ContextStore(pdm::DiskArray& array, pdm::TrackSpace& space,
                           std::uint32_t nlocal)
    : array_(array),
      nlocal_(nlocal),
      regions_{Region(space, nlocal, array.num_disks()),
               Region(space, nlocal, array.num_disks())},
      prefetched_(nlocal) {
  EMCGM_CHECK(nlocal_ >= 1);
}

ContextStore::~ContextStore() {
  try {
    drop_prefetches();
  } catch (...) {
    // A pending I/O error has nowhere to go during teardown.
  }
}

void ContextStore::prefetch(std::uint32_t local) {
  EMCGM_CHECK(local < nlocal_);
  if (prefetched_[local].has_value()) return;
  Region& r = regions_[active_];
  EMCGM_CHECK_MSG(r.extents[local].has_value(),
                  "context " << local << " was never written");
  const pdm::Extent& e = *r.extents[local];
  Prefetched p;
  p.buf.resize(e.blocks(array_.block_bytes()) * array_.block_bytes());
  p.ticket = read_striped_async(array_, r.tracks, e, p.buf);
  prefetched_[local] = std::move(p);
}

void ContextStore::drop_prefetches() {
  for (auto& p : prefetched_) {
    if (p.has_value()) {
      // The pending read targets p->buf: wait before freeing it. A stale
      // prefetch here is an engine bug (reads consume them every superstep),
      // but recovery paths (load) may discard legitimately.
      array_.wait(p->ticket);
      p.reset();
    }
  }
}

void ContextStore::write(std::uint32_t local,
                         std::span<const std::byte> context) {
  EMCGM_CHECK(local < nlocal_);
  Region& w = regions_[1 - active_];
  EMCGM_CHECK_MSG(!w.extents[local].has_value(),
                  "context " << local << " written twice in one superstep");
  pdm::Extent e = w.cursor.alloc(context.size(), array_.block_bytes());
  write_striped(array_, w.tracks, e, context);
  w.extents[local] = e;
}

ContextBlob ContextStore::read(std::uint32_t local) {
  prefetch(local);  // no-op when already in flight
  Prefetched p = std::move(*prefetched_[local]);
  prefetched_[local].reset();
  array_.wait(p.ticket);
  p.buf.resize(context_bytes(local));  // trim the whole-block padding
  return std::move(p.buf);
}

std::size_t ContextStore::context_bytes(std::uint32_t local) const {
  EMCGM_CHECK(local < nlocal_);
  const auto& e = regions_[active_].extents[local];
  return e.has_value() ? static_cast<std::size_t>(e->bytes) : 0;
}

void ContextStore::flip() {
  drop_prefetches();
  Region& w = regions_[1 - active_];
  for (std::uint32_t j = 0; j < nlocal_; ++j) {
    EMCGM_CHECK_MSG(w.extents[j].has_value(),
                    "flip() with context " << j << " unwritten");
  }
  active_ = 1 - active_;
  Region& nw = regions_[1 - active_];
  nw.cursor.reset();
  for (auto& e : nw.extents) e.reset();
  ++epoch_;
}

namespace {

void save_region_directory(WriteArchive& ar, const pdm::StripeCursor& cursor,
                           const std::vector<std::optional<pdm::Extent>>& ext) {
  ar.put<std::uint64_t>(cursor.blocks_allocated());
  ar.put<std::uint64_t>(ext.size());
  for (const auto& e : ext) {
    ar.put<std::uint8_t>(e.has_value() ? 1 : 0);
    if (e) {
      ar.put<std::uint32_t>(e->start_disk);
      ar.put<std::uint64_t>(e->start_track);
      ar.put<std::uint64_t>(e->bytes);
    }
  }
}

void load_region_directory(ReadArchive& ar, pdm::StripeCursor& cursor,
                           std::vector<std::optional<pdm::Extent>>& ext) {
  cursor.restore(ar.get<std::uint64_t>());
  const auto n = ar.get<std::uint64_t>();
  EMCGM_CHECK_MSG(n == ext.size(), "context snapshot has wrong vproc count");
  for (auto& e : ext) {
    if (ar.get<std::uint8_t>()) {
      pdm::Extent x;
      x.start_disk = ar.get<std::uint32_t>();
      x.start_track = ar.get<std::uint64_t>();
      x.bytes = ar.get<std::uint64_t>();
      e = x;
    } else {
      e.reset();
    }
  }
}

}  // namespace

void ContextStore::save(WriteArchive& ar) const {
  ar.put<std::uint8_t>(static_cast<std::uint8_t>(active_));
  ar.put<std::uint64_t>(epoch_);
  for (const auto& r : regions_) {
    save_region_directory(ar, r.cursor, r.extents);
  }
}

void ContextStore::load(ReadArchive& ar) {
  drop_prefetches();
  active_ = ar.get<std::uint8_t>();
  EMCGM_CHECK(active_ == 0 || active_ == 1);
  epoch_ = ar.get<std::uint64_t>();
  for (auto& r : regions_) {
    load_region_directory(ar, r.cursor, r.extents);
  }
}

}  // namespace emcgm::em
