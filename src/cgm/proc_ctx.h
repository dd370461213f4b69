// Per-virtual-processor view of the machine during one compound superstep.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "cgm/message.h"
#include "util/archive.h"
#include "util/error.h"

namespace emcgm::cgm {

class ProcCtx {
 public:
  ProcCtx(std::uint32_t pid, std::uint32_t nprocs, std::uint64_t seed)
      : pid_(pid), nprocs_(nprocs), seed_(seed) {}

  std::uint32_t pid() const { return pid_; }
  std::uint32_t nprocs() const { return nprocs_; }
  std::uint64_t superstep() const { return superstep_; }

  /// Run-level seed; programs derive per-processor/per-round streams from it
  /// so results are engine-independent.
  std::uint64_t seed() const { return seed_; }

  // ----------------------------------------------------------- messaging --

  /// Queue a message for delivery at the start of the next superstep.
  /// Empty payloads are dropped (an h-relation only counts real data).
  void send(std::uint32_t dst, std::vector<std::byte> payload);

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void send_items(std::uint32_t dst, std::span<const T> items) {
    if (items.empty()) return;
    auto b = std::as_bytes(items);
    send(dst, std::vector<std::byte>(b.begin(), b.end()));
  }

  template <typename T>
  void send_vec(std::uint32_t dst, const std::vector<T>& items) {
    send_items<T>(dst, std::span<const T>(items));
  }

  /// Messages received in the communication phase of the previous
  /// superstep, sorted by source (at most one message per source — multiple
  /// sends to the same destination are concatenated in send order).
  const std::vector<Message>& inbox() const { return inbox_; }

  /// All inbox payloads concatenated (in source order) as items of type T.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> recv_concat() const {
    std::size_t bytes = 0;
    for (const auto& m : inbox_) {
      EMCGM_CHECK(m.payload.size() % sizeof(T) == 0);
      bytes += m.payload.size();
    }
    std::vector<T> out(bytes / sizeof(T));
    auto* dst = reinterpret_cast<std::byte*>(out.data());
    for (const auto& m : inbox_) {
      if (m.payload.empty()) continue;  // its data() may be null
      std::memcpy(dst, m.payload.data(), m.payload.size());
      dst += m.payload.size();
    }
    return out;
  }

  /// Payload from a specific source (empty vector if none).
  template <typename T>
  std::vector<T> recv_from(std::uint32_t src) const {
    for (const auto& m : inbox_) {
      if (m.src == src) return bytes_to_vec<T>(m.payload);
    }
    return {};
  }

  // ------------------------------------------------------- input / output --

  /// Input slot k; only valid during superstep 0.
  std::span<const std::byte> input(std::size_t k = 0) const {
    EMCGM_CHECK_MSG(superstep_ == 0,
                    "input() is only available during round 0");
    EMCGM_CHECK(k < inputs_.size());
    return inputs_[k];
  }

  template <typename T>
  std::vector<T> input_items(std::size_t k = 0) const {
    return bytes_to_vec<T>(input(k));
  }

  /// Output slot k (created on demand); collected by the engine when the
  /// program finishes.
  std::vector<std::byte>& output(std::size_t k = 0) {
    if (k >= outputs_.size()) outputs_.resize(k + 1);
    return outputs_[k];
  }

  template <typename T>
  void set_output(const std::vector<T>& items, std::size_t k = 0) {
    output(k) = vec_to_bytes(items);
  }

  // ------------------------------------------------- engine-side interface --

  /// Engine: install state for the upcoming superstep.
  void begin_superstep(std::uint64_t step, std::vector<Message> inbox);
  /// Engine: take the queued outgoing messages (clears the outbox).
  std::vector<Message> take_outbox();
  /// Engine: install / clear input partitions.
  void set_inputs(std::vector<std::vector<std::byte>> inputs) {
    inputs_ = std::move(inputs);
  }
  void clear_inputs() {
    inputs_.clear();
    inputs_.shrink_to_fit();
  }
  std::vector<std::vector<std::byte>>& outputs() { return outputs_; }
  const std::vector<std::vector<std::byte>>& outputs() const {
    return outputs_;
  }
  /// Engine: resident footprint of inbox + outputs (for the M check).
  std::size_t resident_bytes() const;

 private:
  std::uint32_t pid_;
  std::uint32_t nprocs_;
  std::uint64_t seed_;
  std::uint64_t superstep_ = 0;
  std::vector<std::vector<std::byte>> inputs_;
  std::vector<std::vector<std::byte>> outputs_;
  std::vector<Message> inbox_;
  std::vector<Message> outbox_;
};

}  // namespace emcgm::cgm
