#include "emcgm/message_store.h"

#include <algorithm>
#include <optional>

#include "util/error.h"
#include "util/math.h"

namespace emcgm::em {

namespace {

// ---------------------------------------------------------------- Inbox --

// The inbox pipeline both layouts share: pending whole-block buffers per
// local destination, prefetch (one greedy async read of every block of the
// inbox), wait, assemble and drop. A layout supplies only its directory:
// which messages an inbox holds and where their blocks live.
class InboxStore : public MessageStore {
 public:
  /// Waits for prefetches still in flight (a pass that threw can leave
  /// some): their reads target buffers this store owns.
  ~InboxStore() override {
    try {
      drop_prefetches();
    } catch (...) {
      // A pending I/O error has nowhere to go during teardown.
    }
  }

  InboxStore(const InboxStore&) = delete;
  InboxStore& operator=(const InboxStore&) = delete;

  std::vector<cgm::Message> read_incoming(std::uint32_t dst_global) final {
    prefetch_incoming(dst_global);  // no-op when already in flight
    const std::uint32_t dloc = dst_global - cfg_.local_base;
    Inbox in = std::move(*prefetched_[dloc]);
    prefetched_[dloc].reset();
    array_.wait(in.ticket);

    std::vector<cgm::Message> out;
    out.reserve(in.msgs.size());
    for (auto& m : in.msgs) {
      m.buf.resize(static_cast<std::size_t>(m.bytes));
      out.push_back(cgm::Message{m.src, dst_global, std::move(m.buf)});
    }
    std::sort(out.begin(), out.end(),
              [](const cgm::Message& a, const cgm::Message& b) {
                return a.src < b.src;
              });
    return out;
  }

  void prefetch_incoming(std::uint32_t dst_global) final {
    check_local(dst_global);
    const std::uint32_t dloc = dst_global - cfg_.local_base;
    if (prefetched_[dloc].has_value()) return;
    const std::size_t B = array_.block_bytes();
    Inbox in;
    std::vector<pdm::BlockAddr> addrs;
    take_inbox(dloc, in.msgs, addrs);
    std::vector<pdm::ReadSlot> slots;
    slots.reserve(addrs.size());
    for (auto& m : in.msgs) {
      m.buf.resize(ceil_div(m.bytes, B) * B);
      for (std::size_t off = 0; off < m.buf.size(); off += B) {
        slots.push_back(pdm::ReadSlot{
            addrs[slots.size()], std::span<std::byte>(m.buf).subspan(off, B)});
      }
    }
    if (!slots.empty()) in.ticket = pdm::greedy_read_async(array_, slots);
    prefetched_[dloc] = std::move(in);
  }

 protected:
  /// One message being fetched: buffer rounded up to whole blocks.
  struct Pending {
    std::uint32_t src = 0;
    std::uint64_t bytes = 0;
    std::vector<std::byte> buf;
  };

  InboxStore(pdm::DiskArray& array, const MessageStoreConfig& cfg)
      : array_(array), cfg_(cfg), prefetched_(cfg.nlocal) {}

  /// Layout hook: consume local destination `dloc`'s directory entries,
  /// appending one Pending (src, bytes) per message and the address of
  /// every block of those messages, message by message.
  virtual void take_inbox(std::uint32_t dloc, std::vector<Pending>& msgs,
                          std::vector<pdm::BlockAddr>& addrs) = 0;

  /// Quiesce and discard unconsumed prefetches (flip/load).
  void drop_prefetches() {
    for (auto& in : prefetched_) {
      if (in.has_value()) {
        array_.wait(in->ticket);  // reads target in->msgs buffers
        in.reset();
      }
    }
  }

  void check_local(std::uint32_t dst) const {
    EMCGM_CHECK_MSG(dst >= cfg_.local_base &&
                        dst < cfg_.local_base + cfg_.nlocal,
                    "message for non-local destination " << dst);
  }

  pdm::DiskArray& array_;
  MessageStoreConfig cfg_;

 private:
  struct Inbox {
    std::vector<Pending> msgs;
    pdm::IoTicket ticket = 0;
  };
  std::vector<std::optional<Inbox>> prefetched_;  // per local dst
};

// ------------------------------------------------------------- Staggered --

class StaggeredMatrixStore final : public InboxStore {
 public:
  StaggeredMatrixStore(pdm::DiskArray& array, pdm::TrackSpace& space,
                       const MessageStoreConfig& cfg)
      : InboxStore(array, cfg),
        slot_blocks_(ceil_div(cfg.slot_bytes, array.block_bytes())),
        regions_{pdm::TrackRegion(space), pdm::TrackRegion(space)},
        lengths_{std::vector<std::uint64_t>(
                     static_cast<std::size_t>(cfg.v) * cfg.nlocal, 0),
                 std::vector<std::uint64_t>(
                     static_cast<std::size_t>(cfg.v) * cfg.nlocal, 0)},
        freed_(static_cast<std::size_t>(cfg.v) * cfg.nlocal, true) {
    EMCGM_CHECK_MSG(cfg_.slot_bytes >= 1,
                    "staggered layout needs a positive slot capacity");
    EMCGM_CHECK(slot_blocks_ >= 1);
    EMCGM_CHECK_MSG(!cfg_.single_copy || cfg_.v == cfg_.nlocal,
                    "Observation-2 single-copy mode requires p == 1 (the"
                    " paper presents it for the sequential simulation)");
  }

  void write_messages(std::span<const cgm::Message> msgs) override {
    // Gather the used blocks of every message in the batch, then batch them
    // into parallel ops together; the staggered slot starts spread the
    // blocks across the disks (paper Fig. 2).
    std::vector<std::vector<std::byte>> pads;
    std::vector<pdm::WriteSlot> slots;
    for (const auto& m : msgs) {
      check_local(m.dst);
      EMCGM_CHECK_MSG(
          m.payload.size() <= cfg_.slot_bytes,
          "message of " << m.payload.size() << " bytes exceeds staggered slot"
                        << " capacity " << cfg_.slot_bytes
                        << "; enable balanced_routing, raise"
                        << " staggered_slot_bytes, or use the chained layout");
      if (m.payload.empty()) continue;
      const std::uint32_t dloc = m.dst - cfg_.local_base;
      if (cfg_.single_copy) {
        const std::size_t ps = phys_slot(write_parity(), m.src, dloc);
        EMCGM_CHECK_MSG(freed_[ps], "Observation-2 overwrite of a live slot");
        freed_[ps] = false;
      }
      auto& len = lengths_[writing_side()][lin(m.src, dloc)];
      EMCGM_CHECK_MSG(len == 0, "pair written twice in one superstep");
      len = m.payload.size();
      pdm::append_block_slots(
          m.payload, array_.block_bytes(),
          [&](std::uint64_t q) {
            return block_addr(write_parity(), m.src, dloc, q);
          },
          slots, pads);
    }
    if (!slots.empty()) pdm::greedy_write(array_, slots);
  }

  void flip() override {
    drop_prefetches();
    ++step_;
  }

  void save(WriteArchive& ar) const override {
    ar.put<std::uint64_t>(step_);
    ar.put_vec(lengths_[0]);
    ar.put_vec(lengths_[1]);
    ar.put<std::uint64_t>(freed_.size());
    for (bool f : freed_) ar.put<std::uint8_t>(f ? 1 : 0);
  }

  void load(ReadArchive& ar) override {
    drop_prefetches();
    step_ = ar.get<std::uint64_t>();
    lengths_[0] = ar.get_vec<std::uint64_t>();
    lengths_[1] = ar.get_vec<std::uint64_t>();
    const std::size_t pairs = static_cast<std::size_t>(cfg_.v) * cfg_.nlocal;
    EMCGM_CHECK_MSG(lengths_[0].size() == pairs && lengths_[1].size() == pairs,
                    "message snapshot has wrong directory shape");
    const auto nf = ar.get<std::uint64_t>();
    EMCGM_CHECK(nf == freed_.size());
    for (std::size_t i = 0; i < freed_.size(); ++i) {
      freed_[i] = ar.get<std::uint8_t>() != 0;
    }
  }

 private:
  // Sources ascending, so the inbox is already in source order.
  void take_inbox(std::uint32_t dloc, std::vector<Pending>& msgs,
                  std::vector<pdm::BlockAddr>& addrs) override {
    const std::size_t B = array_.block_bytes();
    const int parity = read_parity();
    for (std::uint32_t s = 0; s < cfg_.v; ++s) {
      auto& len = lengths_[reading_side()][lin(s, dloc)];
      if (len == 0) continue;
      msgs.push_back(Pending{s, len, {}});
      const std::uint64_t used = ceil_div(len, B);
      for (std::uint64_t q = 0; q < used; ++q) {
        addrs.push_back(block_addr(parity, s, dloc, q));
      }
      len = 0;
      if (cfg_.single_copy) freed_[phys_slot(parity, s, dloc)] = true;
    }
  }

  std::size_t lin(std::uint32_t src, std::uint32_t dloc) const {
    return static_cast<std::size_t>(src) * cfg_.nlocal + dloc;
  }

  // Which of the two length directories / regions the current writes and
  // reads use. With single_copy both map onto region 0 physically, but the
  // directories still double-buffer.
  int writing_side() const { return step_ & 1; }
  int reading_side() const { return 1 - (step_ & 1); }
  int write_parity() const { return step_ & 1; }
  int read_parity() const { return 1 - (step_ & 1); }

  /// Physical slot identity for the Observation-2 freed-slot check. In
  /// single-copy mode (p == 1, so v == nlocal) destination-major parity 0
  /// places pair (s, d) in band d at in-band slot s, and source-major
  /// parity 1 places it in band s at slot d — virtual processor j's writes
  /// occupy exactly the band-j blocks its own inbox just freed.
  std::size_t phys_slot(int parity, std::uint32_t src,
                        std::uint32_t dloc) const {
    if (parity == 0) return static_cast<std::size_t>(dloc) * cfg_.v + src;
    return static_cast<std::size_t>(src) * cfg_.nlocal + dloc;
  }

  /// Paper Fig. 2 layout: destination d's messages form one consecutive
  /// band of v slots; within band b, slot t's blocks start at cyclic
  /// offset t*b' + (b*b' mod band) so that consecutive bands' slot starts
  /// are staggered across the disks — a source writing one message per
  /// destination lands on rotating disks and achieves fully parallel
  /// writes whenever b' mod D != 0 (the paper's condition), while reads of
  /// one band remain a consecutive run.
  pdm::BlockAddr block_addr(int parity, std::uint32_t src,
                            std::uint32_t dloc, std::uint64_t q) {
    const bool dst_major = !cfg_.single_copy || parity == 0;
    const std::uint64_t band = dst_major ? dloc : src;
    const std::uint64_t t = dst_major ? src : dloc;
    const std::uint64_t slots_per_band = dst_major ? cfg_.v : cfg_.nlocal;
    const std::uint64_t band_blocks = slots_per_band * slot_blocks_;
    const std::uint64_t rot = (band * slot_blocks_) % band_blocks;
    const std::uint64_t inband = (t * slot_blocks_ + q + rot) % band_blocks;
    const std::uint64_t g = band * band_blocks + inband;
    const std::uint32_t D = array_.num_disks();
    pdm::BlockAddr a{static_cast<std::uint32_t>(g % D), g / D};
    pdm::TrackRegion& region =
        cfg_.single_copy ? regions_[0]
                         : regions_[static_cast<std::size_t>(parity)];
    a.track = region.physical_track(a.track);
    return a;
  }

  std::uint64_t slot_blocks_;
  pdm::TrackRegion regions_[2];
  std::vector<std::uint64_t> lengths_[2];  // [side][src * nlocal + dloc]
  std::vector<bool> freed_;                // single-copy live-slot tracking
  std::uint64_t step_ = 0;
};

// --------------------------------------------------------------- Chained --

class ChainedStore final : public InboxStore {
 public:
  ChainedStore(pdm::DiskArray& array, pdm::TrackSpace& space,
               const MessageStoreConfig& cfg)
      : InboxStore(array, cfg),
        sides_{Side(space, array.num_disks(), cfg.nlocal),
               Side(space, array.num_disks(), cfg.nlocal)} {}

  void write_messages(std::span<const cgm::Message> msgs) override {
    Side& w = sides_[1 - active_];
    const std::size_t B = array_.block_bytes();
    const std::uint32_t D = array_.num_disks();
    // Extents come from one bump cursor, so the blocks of the whole batch
    // are stripe-consecutive and FIFO batching yields ceil(total/D) ops.
    std::vector<std::vector<std::byte>> pads;
    std::vector<pdm::WriteSlot> slots;
    for (const auto& m : msgs) {
      check_local(m.dst);
      if (m.payload.empty()) continue;
      const pdm::Extent e = w.cursor.alloc(m.payload.size(), B);
      pdm::append_block_slots(
          m.payload, B,
          [&](std::uint64_t q) { return pdm::extent_block(w.tracks, e, D, q); },
          slots, pads);
      w.by_dst[m.dst - cfg_.local_base].push_back(Entry{m.src, e});
    }
    if (!slots.empty()) pdm::fifo_write(array_, slots);
  }

  void flip() override {
    drop_prefetches();
    active_ = 1 - active_;
    Side& w = sides_[1 - active_];
    w.cursor.reset();
    for (auto& d : w.by_dst) d.clear();
  }

  void save(WriteArchive& ar) const override {
    ar.put<std::uint8_t>(static_cast<std::uint8_t>(active_));
    for (const Side& s : sides_) {
      ar.put<std::uint64_t>(s.cursor.blocks_allocated());
      ar.put<std::uint64_t>(s.by_dst.size());
      for (const auto& entries : s.by_dst) {
        ar.put<std::uint64_t>(entries.size());
        for (const Entry& e : entries) {
          ar.put<std::uint32_t>(e.src);
          ar.put<std::uint32_t>(e.ext.start_disk);
          ar.put<std::uint64_t>(e.ext.start_track);
          ar.put<std::uint64_t>(e.ext.bytes);
        }
      }
    }
  }

  void load(ReadArchive& ar) override {
    drop_prefetches();
    active_ = ar.get<std::uint8_t>();
    EMCGM_CHECK(active_ == 0 || active_ == 1);
    for (Side& s : sides_) {
      s.cursor.restore(ar.get<std::uint64_t>());
      const auto ndst = ar.get<std::uint64_t>();
      EMCGM_CHECK_MSG(ndst == s.by_dst.size(),
                      "message snapshot has wrong destination count");
      for (auto& entries : s.by_dst) {
        entries.clear();
        const auto n = ar.get<std::uint64_t>();
        entries.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i) {
          Entry e;
          e.src = ar.get<std::uint32_t>();
          e.ext.start_disk = ar.get<std::uint32_t>();
          e.ext.start_track = ar.get<std::uint64_t>();
          e.ext.bytes = ar.get<std::uint64_t>();
          entries.push_back(e);
        }
      }
    }
  }

 private:
  struct Entry {
    std::uint32_t src;
    pdm::Extent ext;
  };
  struct Side {
    pdm::TrackRegion tracks;
    pdm::StripeCursor cursor;
    std::vector<std::vector<Entry>> by_dst;

    Side(pdm::TrackSpace& space, std::uint32_t D, std::uint32_t nlocal)
        : tracks(space), cursor(D), by_dst(nlocal) {}
  };

  // Arrival order; read_incoming sorts by source.
  void take_inbox(std::uint32_t dloc, std::vector<Pending>& msgs,
                  std::vector<pdm::BlockAddr>& addrs) override {
    Side& r = sides_[active_];
    const std::size_t B = array_.block_bytes();
    const std::uint32_t D = array_.num_disks();
    for (const Entry& en : r.by_dst[dloc]) {
      msgs.push_back(Pending{en.src, en.ext.bytes, {}});
      const std::uint64_t used = en.ext.blocks(B);
      for (std::uint64_t q = 0; q < used; ++q) {
        addrs.push_back(pdm::extent_block(r.tracks, en.ext, D, q));
      }
    }
    r.by_dst[dloc].clear();
  }

  Side sides_[2];
  int active_ = 0;
};

}  // namespace

std::unique_ptr<MessageStore> make_message_store(
    cgm::MsgLayout layout, pdm::DiskArray& array, pdm::TrackSpace& space,
    const MessageStoreConfig& cfg) {
  switch (layout) {
    case cgm::MsgLayout::kStaggeredMatrix:
      return std::make_unique<StaggeredMatrixStore>(array, space, cfg);
    case cgm::MsgLayout::kChained:
      return std::make_unique<ChainedStore>(array, space, cfg);
  }
  EMCGM_CHECK_MSG(false, "unknown message layout");
  return nullptr;
}

}  // namespace emcgm::em
