#include "pdm/striping.h"

namespace emcgm::pdm {

namespace {

template <typename Slot, typename IssueFn>
std::uint64_t fifo_batch(std::uint32_t D, std::span<const Slot> slots,
                         IssueFn issue) {
  std::uint64_t ops = 0;
  std::vector<Slot> batch;
  batch.reserve(D);
  std::uint64_t mask = 0;

  auto flush = [&] {
    if (batch.empty()) return;
    issue(std::span<const Slot>(batch));
    batch.clear();
    mask = 0;
    ++ops;
  };

  for (const auto& s : slots) {
    const std::uint64_t bit = 1ULL << s.addr.disk;
    if ((mask & bit) != 0 || batch.size() == D) flush();
    batch.push_back(s);
    mask |= bit;
  }
  flush();
  return ops;
}

template <typename Slot, typename IssueFn>
std::uint64_t greedy_batch(std::uint32_t D, std::span<const Slot> slots,
                           IssueFn issue) {
  // Per-disk queues, drained one block per disk per op.
  std::vector<std::vector<const Slot*>> queues(D);
  for (const auto& s : slots) queues[s.addr.disk].push_back(&s);

  std::uint64_t ops = 0;
  std::vector<std::size_t> next(D, 0);
  std::vector<Slot> batch;
  batch.reserve(D);
  for (;;) {
    batch.clear();
    for (std::uint32_t d = 0; d < D; ++d) {
      if (next[d] < queues[d].size()) batch.push_back(*queues[d][next[d]++]);
    }
    if (batch.empty()) break;
    issue(std::span<const Slot>(batch));
    ++ops;
  }
  return ops;
}

}  // namespace

// Consecutive format puts every D consecutive blocks of an extent on D
// distinct disks, so FIFO batching cuts an extent's run exactly every D
// blocks, in both directions.

void write_striped(DiskArray& array, TrackRegion& region, const Extent& e,
                   std::span<const std::byte> data) {
  EMCGM_CHECK(data.size() == e.bytes);
  const std::uint32_t D = array.num_disks();
  std::vector<WriteSlot> slots;
  std::vector<std::vector<std::byte>> pads;
  append_block_slots(
      data, array.block_bytes(),
      [&](std::uint64_t q) { return extent_block(region, e, D, q); }, slots,
      pads);
  fifo_write(array, slots);
}

IoTicket read_striped_async(DiskArray& array, TrackRegion& region,
                            const Extent& e, std::span<std::byte> out) {
  const std::size_t B = array.block_bytes();
  const std::uint32_t D = array.num_disks();
  const std::uint64_t blocks = e.blocks(B);
  EMCGM_CHECK(out.size() == blocks * B);
  std::vector<ReadSlot> slots;
  slots.reserve(blocks);
  for (std::uint64_t q = 0; q < blocks; ++q) {
    slots.push_back(
        ReadSlot{extent_block(region, e, D, q), out.subspan(q * B, B)});
  }
  IoTicket last = 0;
  fifo_batch(D, std::span<const ReadSlot>(slots),
             [&](auto span) { last = array.parallel_read_async(span); });
  return last;
}

std::vector<std::byte> read_striped(DiskArray& array, TrackRegion& region,
                                    const Extent& e) {
  std::vector<std::byte> out(e.blocks(array.block_bytes()) *
                             array.block_bytes());
  array.wait(read_striped_async(array, region, e, out));
  out.resize(e.bytes);
  return out;
}

std::uint64_t fifo_write(DiskArray& array, std::span<const WriteSlot> slots) {
  return fifo_batch(array.num_disks(), slots, [&](auto span) {
    array.parallel_write(span);
  });
}

std::uint64_t greedy_write(DiskArray& array,
                           std::span<const WriteSlot> slots) {
  return greedy_batch(array.num_disks(), slots, [&](auto span) {
    array.parallel_write(span);
  });
}

IoTicket greedy_read_async(DiskArray& array, std::span<const ReadSlot> slots) {
  IoTicket last = 0;
  greedy_batch(array.num_disks(), slots, [&](auto span) {
    last = array.parallel_read_async(span);
  });
  return last;
}

}  // namespace emcgm::pdm
