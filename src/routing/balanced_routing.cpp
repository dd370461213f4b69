#include "routing/balanced_routing.h"

#include <algorithm>
#include <cstring>
#include <span>

#include "util/error.h"

namespace emcgm::routing {

namespace {

struct FragHeader {
  std::uint32_t orig_src;
  std::uint32_t final_dst;
  std::uint64_t total_len;
  std::uint64_t frag_len;
};

constexpr std::size_t kHeaderBytes = sizeof(FragHeader);
static_assert(kHeaderBytes == 24, "the wire header has no padding");

/// Byte l of message src -> dst goes to bin (src + dst + l) mod v, so bin k
/// carries bytes l0, l0+v, l0+2v, ... with l0 = (k - src - dst) mod v.
std::uint64_t first_byte(std::uint32_t v, std::uint32_t k, std::uint32_t src,
                         std::uint32_t dst) {
  return (static_cast<std::uint64_t>(k) + 2ULL * v - (src % v) - (dst % v)) %
         v;
}

/// How many bytes of a len-byte message start at l0 with stride v.
std::uint64_t stride_count(std::uint64_t len, std::uint64_t l0,
                           std::uint32_t v) {
  return l0 < len ? (len - l0 - 1) / v + 1 : 0;
}

/// Walk the fragment records of a physical payload in place. Each header
/// must be complete and its bytes must fit the rest of the payload.
template <typename F>
void for_each_fragment(std::span<const std::byte> payload, F&& f) {
  for (std::size_t pos = 0; pos < payload.size();) {
    EMCGM_CHECK_MSG(payload.size() - pos >= kHeaderBytes,
                    "fragment header truncated at byte " << pos);
    FragHeader h;
    std::memcpy(&h, payload.data() + pos, kHeaderBytes);
    pos += kHeaderBytes;
    EMCGM_CHECK_MSG(h.frag_len <= payload.size() - pos,
                    "fragment of " << h.frag_len << " bytes overruns its "
                                   << payload.size() << "-byte payload");
    f(h, payload.data() + pos);
    pos += static_cast<std::size_t>(h.frag_len);
  }
}

/// A fragment in bin k must name two processors and carry exactly its
/// round-robin share of the message, which bounds total_len by v times the
/// payload size before anything is allocated from it. Returns its l0.
std::uint64_t check_fragment(const FragHeader& h, std::uint32_t v,
                             std::uint32_t k) {
  EMCGM_CHECK_MSG(h.orig_src < v && h.final_dst < v,
                  "fragment " << h.orig_src << " -> " << h.final_dst
                              << " names a processor outside v = " << v);
  const std::uint64_t l0 = first_byte(v, k, h.orig_src, h.final_dst);
  EMCGM_CHECK_MSG(
      h.frag_len != 0 && h.frag_len == stride_count(h.total_len, l0, v),
      "fragment in bin " << k << " carries " << h.frag_len << " bytes of a "
                         << h.total_len << "-byte message");
  return l0;
}

/// Append a fragment record's header to a payload; returns where its
/// frag_len bytes go.
std::byte* add_fragment(std::vector<std::byte>& payload, const FragHeader& h) {
  const std::size_t at = payload.size();
  payload.resize(at + kHeaderBytes + h.frag_len);
  std::memcpy(payload.data() + at, &h, kHeaderBytes);
  return payload.data() + at + kHeaderBytes;
}

}  // namespace

std::vector<cgm::Message> encode_phase_a(
    std::uint32_t v, std::uint32_t src,
    const std::vector<cgm::Message>& outbox) {
  std::vector<std::vector<std::byte>> bins(v);
  for (const auto& msg : outbox) {
    EMCGM_CHECK(msg.src == src);
    const std::uint64_t len = msg.payload.size();
    for (std::uint32_t k = 0; k < v; ++k) {
      const std::uint64_t l0 = first_byte(v, k, src, msg.dst);
      const FragHeader h{src, msg.dst, len, stride_count(len, l0, v)};
      if (h.frag_len == 0) continue;
      std::byte* data = add_fragment(bins[k], h);
      for (std::uint64_t t = 0; t < h.frag_len; ++t) {
        data[t] = msg.payload[l0 + t * v];
      }
    }
  }
  std::vector<cgm::Message> physical;
  for (std::uint32_t k = 0; k < v; ++k) {
    if (bins[k].empty()) continue;
    physical.push_back(cgm::Message{src, k, std::move(bins[k])});
  }
  return physical;
}

std::vector<cgm::Message> transform_intermediate(
    std::uint32_t v, std::uint32_t k, const std::vector<cgm::Message>& inbox) {
  // Regroup every received fragment by its final destination (Step 3 of
  // Algorithm 1), then emit one round-B message per destination (Step 4).
  struct Ref {
    FragHeader h;
    const std::byte* data;
  };
  std::vector<std::vector<Ref>> by_dst(v);
  for (const auto& msg : inbox) {
    for_each_fragment(msg.payload,
                      [&](const FragHeader& h, const std::byte* data) {
                        check_fragment(h, v, k);
                        by_dst[h.final_dst].push_back(Ref{h, data});
                      });
  }
  std::vector<cgm::Message> physical;
  for (std::uint32_t j = 0; j < v; ++j) {
    if (by_dst[j].empty()) continue;
    // Deterministic order for reproducibility across engines.
    std::sort(by_dst[j].begin(), by_dst[j].end(),
              [](const Ref& a, const Ref& b) {
                return a.h.orig_src < b.h.orig_src;
              });
    std::vector<std::byte> payload;
    for (const auto& f : by_dst[j]) {
      std::memcpy(add_fragment(payload, f.h), f.data, f.h.frag_len);
    }
    physical.push_back(cgm::Message{k, j, std::move(payload)});
  }
  return physical;
}

std::vector<cgm::Message> decode_phase_b(
    std::uint32_t v, std::uint32_t dst,
    const std::vector<cgm::Message>& inbox) {
  // Reassemble per original source; msg.src of a round-B physical message
  // is the intermediate, which fixes the byte positions of its fragments.
  struct Partial {
    std::uint64_t filled = 0;
    std::vector<std::byte> data;  // sized by its first fragment
  };
  std::vector<Partial> partials(v);

  for (const auto& msg : inbox) {
    std::uint64_t next_src = 0;  // round B lists orig_src ascending
    for_each_fragment(msg.payload, [&](const FragHeader& h,
                                       const std::byte* data) {
      const std::uint64_t l0 = check_fragment(h, v, msg.src);
      EMCGM_CHECK_MSG(h.final_dst == dst && h.orig_src >= next_src,
                      "fragment " << h.orig_src << " -> " << h.final_dst
                                  << " out of place in the payload "
                                  << msg.src << " -> " << dst);
      next_src = h.orig_src + 1ULL;
      auto& p = partials[h.orig_src];
      if (p.data.empty()) p.data.resize(static_cast<std::size_t>(h.total_len));
      EMCGM_CHECK_MSG(p.data.size() == h.total_len,
                      "fragments of message " << h.orig_src << " -> " << dst
                                              << " disagree on its length");
      for (std::uint64_t t = 0; t < h.frag_len; ++t) {
        p.data[l0 + t * v] = data[t];
      }
      p.filled += h.frag_len;
    });
  }

  std::vector<cgm::Message> out;
  for (std::uint32_t i = 0; i < v; ++i) {
    auto& p = partials[i];
    if (p.data.empty()) continue;
    EMCGM_CHECK_MSG(p.filled == p.data.size(),
                    "reassembly of message " << i << " -> " << dst
                                             << " incomplete: " << p.filled
                                             << " of " << p.data.size());
    out.push_back(cgm::Message{i, dst, std::move(p.data)});
  }
  return out;
}

std::uint64_t data_bytes(const cgm::Message& physical) {
  std::uint64_t data = 0;
  for_each_fragment(physical.payload,
                    [&](const FragHeader& h, const std::byte*) {
                      data += h.frag_len;
                    });
  return data;
}

}  // namespace emcgm::routing
