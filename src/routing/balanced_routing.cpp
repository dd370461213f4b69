#include "routing/balanced_routing.h"

#include <algorithm>
#include <cstring>
#include <span>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

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

#ifdef __SSE2__
/// out[j][i] = in[i][j] for a 16 x 16 byte block. Each round interleaves
/// registers 2i and 2i + 1 into i (low halves) and i + 8 (high halves), at
/// 8-, 16-, 32- and then 64-bit width; after the four rounds column j sits
/// in register kBitReversed[j].
void transpose16(const std::byte* const in[16], std::byte* const out[16]) {
  static constexpr int kBitReversed[16] = {0, 8, 4, 12, 2, 10, 6, 14,
                                           1, 9, 5, 13, 3, 11, 7, 15};
  __m128i a[16], b[16];
  for (int i = 0; i < 16; ++i) {
    a[i] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in[i]));
  }
  for (int i = 0; i < 8; ++i) {
    b[i] = _mm_unpacklo_epi8(a[2 * i], a[2 * i + 1]);
    b[i + 8] = _mm_unpackhi_epi8(a[2 * i], a[2 * i + 1]);
  }
  for (int i = 0; i < 8; ++i) {
    a[i] = _mm_unpacklo_epi16(b[2 * i], b[2 * i + 1]);
    a[i + 8] = _mm_unpackhi_epi16(b[2 * i], b[2 * i + 1]);
  }
  for (int i = 0; i < 8; ++i) {
    b[i] = _mm_unpacklo_epi32(a[2 * i], a[2 * i + 1]);
    b[i + 8] = _mm_unpackhi_epi32(a[2 * i], a[2 * i + 1]);
  }
  for (int i = 0; i < 8; ++i) {
    a[i] = _mm_unpacklo_epi64(b[2 * i], b[2 * i + 1]);
    a[i + 8] = _mm_unpackhi_epi64(b[2 * i], b[2 * i + 1]);
  }
  for (int j = 0; j < 16; ++j) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out[j]), a[kBitReversed[j]]);
  }
}
#endif

/// Copy a len-byte message between its rows and its columns. Row r is
/// bytes [r v, r v + v) at msg + r v; column c at cols[c] holds bytes c,
/// c + v, c + 2v, ..., which is the fragment with l0 = c. Encode copies the
/// rows into the columns, decode the columns into the rows. Every full
/// 16 x 16 block goes through transpose16 when v is a multiple of 16; the
/// row loop takes everything else.
template <bool kToColumns, typename Row, typename Col>
void transpose(std::uint32_t v, std::uint64_t len, Row* msg,
               Col* const* cols) {
  std::uint64_t r = 0;
#ifdef __SSE2__
  if (v % 16 == 0) {
    for (; r + 16 <= len / v; r += 16) {
      for (std::uint32_t c = 0; c < v; c += 16) {
        Row* rows[16];
        Col* block[16];
        for (std::uint32_t i = 0; i < 16; ++i) {
          rows[i] = msg + (r + i) * v + c;
          block[i] = cols[c + i] + r;
        }
        if constexpr (kToColumns) {
          transpose16(rows, block);
        } else {
          transpose16(block, rows);
        }
      }
    }
  }
#endif
  for (; r * v < len; ++r) {
    Row* row = msg + r * v;
    const std::uint64_t width = std::min<std::uint64_t>(v, len - r * v);
    for (std::uint64_t c = 0; c < width; ++c) {
      if constexpr (kToColumns) {
        cols[c][r] = row[c];
      } else {
        row[c] = cols[c][r];
      }
    }
  }
}

}  // namespace

std::vector<cgm::Message> encode_phase_a(
    std::uint32_t v, std::uint32_t src,
    const std::vector<cgm::Message>& outbox) {
  // Size every bin once, then write each message's headers and transpose
  // its rows into its columns: column l0 is its fragment in bin k.
  std::vector<std::uint64_t> at(v, 0);  // bin k's size, then its cursor
  for (const auto& msg : outbox) {
    EMCGM_CHECK(msg.src == src);
    for (std::uint32_t k = 0; k < v; ++k) {
      const std::uint64_t n = stride_count(
          msg.payload.size(), first_byte(v, k, src, msg.dst), v);
      if (n != 0) at[k] += kHeaderBytes + n;
    }
  }
  std::vector<std::vector<std::byte>> bins(v);
  for (std::uint32_t k = 0; k < v; ++k) {
    bins[k].resize(static_cast<std::size_t>(at[k]));
    at[k] = 0;
  }
  std::vector<std::byte*> cols(v);
  for (const auto& msg : outbox) {
    const std::uint64_t len = msg.payload.size();
    for (std::uint32_t k = 0; k < v; ++k) {
      const std::uint64_t l0 = first_byte(v, k, src, msg.dst);
      const FragHeader h{src, msg.dst, len, stride_count(len, l0, v)};
      if (h.frag_len == 0) continue;
      std::memcpy(bins[k].data() + at[k], &h, kHeaderBytes);
      cols[l0] = bins[k].data() + at[k] + kHeaderBytes;
      at[k] += kHeaderBytes + h.frag_len;
    }
    transpose<true>(v, len, msg.payload.data(), cols.data());
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
  // Algorithm 1), then emit one round-B message per destination (Step 4),
  // its records copied as they arrived, ordered by orig_src so that both
  // engines produce the same bytes.
  struct Record {
    std::uint32_t dst, src;
    const std::byte* bytes;  // header, then frag_len bytes
    std::size_t size;
  };
  std::vector<Record> records;
  std::vector<std::uint64_t> size(v, 0);
  for (const auto& msg : inbox) {
    for_each_fragment(msg.payload,
                      [&](const FragHeader& h, const std::byte* data) {
                        check_fragment(h, v, k);
                        const std::size_t n = kHeaderBytes + h.frag_len;
                        records.push_back(Record{h.final_dst, h.orig_src,
                                                 data - kHeaderBytes, n});
                        size[h.final_dst] += n;
                      });
  }
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) {
              return a.dst != b.dst ? a.dst < b.dst : a.src < b.src;
            });
  std::vector<cgm::Message> physical;
  for (auto it = records.begin(); it != records.end();) {
    const std::uint32_t j = it->dst;
    std::vector<std::byte> payload(static_cast<std::size_t>(size[j]));
    for (std::byte* at = payload.data(); it != records.end() && it->dst == j;
         ++it) {
      std::memcpy(at, it->bytes, it->size);
      at += it->size;
    }
    physical.push_back(cgm::Message{k, j, std::move(payload)});
  }
  return physical;
}

std::vector<cgm::Message> decode_phase_b(
    std::uint32_t v, std::uint32_t dst,
    const std::vector<cgm::Message>& inbox) {
  // Find every original message's columns; msg.src of a round-B physical
  // message is the intermediate, which fixes each fragment's l0.
  struct Partial {
    std::uint64_t len = 0, filled = 0;
    std::vector<const std::byte*> cols;  // [l0], sized by its first fragment
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
      if (p.cols.empty()) {
        p.len = h.total_len;
        p.cols.assign(v, nullptr);
      }
      EMCGM_CHECK_MSG(p.len == h.total_len,
                      "fragments of message " << h.orig_src << " -> " << dst
                                              << " disagree on its length");
      EMCGM_CHECK_MSG(p.cols[l0] == nullptr,
                      "fragment l0 = " << l0 << " of message " << h.orig_src
                                       << " -> " << dst
                                       << " delivered twice");
      p.cols[l0] = data;
      p.filled += h.frag_len;
    });
  }

  std::vector<cgm::Message> out;
  for (std::uint32_t i = 0; i < v; ++i) {
    auto& p = partials[i];
    if (p.cols.empty()) continue;
    EMCGM_CHECK_MSG(p.filled == p.len,
                    "reassembly of message " << i << " -> " << dst
                                             << " incomplete: " << p.filled
                                             << " of " << p.len);
    std::vector<std::byte> data(static_cast<std::size_t>(p.len));
    transpose<false>(v, p.len, data.data(), p.cols.data());
    out.push_back(cgm::Message{i, dst, std::move(data)});
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
