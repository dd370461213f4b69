#include "pdm/checksum.h"

#include <algorithm>
#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define EMCGM_CRC32C_X86 1
#include <immintrin.h>
#endif

#include "util/error.h"

namespace emcgm::pdm {

namespace {

constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  constexpr std::uint32_t poly = 0x82F63B78;  // 0x1EDC6F41 reflected
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (poly ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

constexpr auto kCrcTable = make_crc32c_table();

#ifdef EMCGM_CRC32C_X86
// CRC registers are linear: the register after X || Y is the register after
// X, carried past |Y| zero bytes, xor the register of Y alone (from zero).
// kShift carries a register past one stream's kCrc32cStreamBytes zero bytes,
// one 256-entry table per register byte.
constexpr std::array<std::array<std::uint32_t, 256>, 4> make_shift_table() {
  std::array<std::array<std::uint32_t, 256>, 4> table{};
  for (std::uint32_t k = 0; k < 4; ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      std::uint32_t c = b << (8 * k);
      for (std::size_t n = 0; n < kCrc32cStreamBytes; ++n) {
        c = kCrcTable[c & 0xFF] ^ (c >> 8);
      }
      table[k][b] = c;
    }
  }
  return table;
}

constexpr auto kShift = make_shift_table();
static_assert(kCrc32cStreamBytes % 8 == 0, "streams are whole words");

std::uint64_t shift_stream(std::uint64_t c) {
  return kShift[0][c & 0xFF] ^ kShift[1][(c >> 8) & 0xFF] ^
         kShift[2][(c >> 16) & 0xFF] ^ kShift[3][(c >> 24) & 0xFF];
}

// The crc32 instruction implements the same reflected Castagnoli CRC, eight
// little-endian bytes per step. A step takes three cycles but one can start
// every cycle, so one dependent chain uses a third of it. Three interleaved
// streams (A, B, C: consecutive kCrc32cStreamBytes runs) keep it busy; A's
// register is carried past B, then past C, to join them. The tail runs one
// stream. kCopy stores each word to `dst` as it is summed.
// Compiled for SSE4.2 in this function only; the dispatch calls it only on a
// CPU that reports the extension.
template <bool kCopy>
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::byte* dst, const std::byte* src, std::size_t n, std::uint32_t seed) {
  constexpr std::size_t L = kCrc32cStreamBytes;
  std::uint64_t a = ~seed;
  std::size_t at = 0;
  for (; n - at >= 3 * L; at += 3 * L) {
    std::uint64_t b = 0, c = 0;
    for (std::size_t i = at; i < at + L; i += 8) {
      std::uint64_t wa, wb, wc;
      std::memcpy(&wa, src + i, 8);
      std::memcpy(&wb, src + L + i, 8);
      std::memcpy(&wc, src + 2 * L + i, 8);
      a = _mm_crc32_u64(a, wa);
      b = _mm_crc32_u64(b, wb);
      c = _mm_crc32_u64(c, wc);
      if constexpr (kCopy) {
        std::memcpy(dst + i, &wa, 8);
        std::memcpy(dst + L + i, &wb, 8);
        std::memcpy(dst + 2 * L + i, &wc, 8);
      }
    }
    a = shift_stream(shift_stream(a) ^ b) ^ c;
  }
  for (; n - at >= 8; at += 8) {
    std::uint64_t w;
    std::memcpy(&w, src + at, 8);
    a = _mm_crc32_u64(a, w);
    if constexpr (kCopy) std::memcpy(dst + at, &w, 8);
  }
  auto a32 = static_cast<std::uint32_t>(a);
  for (; at < n; ++at) {
    a32 = _mm_crc32_u8(a32, static_cast<std::uint8_t>(src[at]));
    if constexpr (kCopy) dst[at] = src[at];
  }
  return ~a32;
}

// kFold's constants. In the reflected bit order of a little-endian load,
// the low 64-bit half of a 128-bit lane holds the lane's higher-degree
// terms: lane = lo * x^64 + hi. Carrying the lane kCrc32cFoldBytes (2048
// bits) ahead multiplies it by x^2048, so lo must be multiplied by
// x^(2048+64) mod P and hi by x^2048 mod P. Read back as a 128-bit lane,
// the carry-less product of two reflected 64-bit operands is their product
// times x, and the 33-bit operand reflect32(c) << 1 stands for c * x^31;
// with that x^32, K_lo = x^(2048+32) mod P and K_hi = x^(2048-32) mod P.
// A product has at most 96 bits, so each lane stays 128 bits wide and
// congruent, mod P, to everything folded into it.
constexpr std::uint32_t reflect32(std::uint32_t v) {
  std::uint32_t r = 0;
  for (int i = 0; i < 32; ++i) r |= ((v >> i) & 1u) << (31 - i);
  return r;
}

// x^n mod P, P = x^32 + 0x1EDC6F41, in the normal (unreflected) bit order.
constexpr std::uint32_t xpow_mod(std::size_t n) {
  std::uint32_t r = 1;
  for (std::size_t i = 0; i < n; ++i) {
    r = (r << 1) ^ ((r >> 31) != 0 ? 0x1EDC6F41u : 0u);
  }
  return r;
}

constexpr std::uint64_t fold_constant(std::size_t exponent) {
  return std::uint64_t{reflect32(xpow_mod(exponent))} << 1;
}

constexpr std::uint64_t kFoldLo = fold_constant(8 * kCrc32cFoldBytes + 32);
constexpr std::uint64_t kFoldHi = fold_constant(8 * kCrc32cFoldBytes - 32);
static_assert(kCrc32cFoldBytes == 4 * sizeof(__m512i), "four accumulators");

// The CRC register starts at ~seed; XORing it into the first 4 bytes and
// starting from register 0 is the same. Four accumulators load the first
// 256 bytes, then fold each following 256 bytes in: per 128-bit lane,
// clmul(lo, K_lo) ^ clmul(hi, K_hi) ^ data. What the accumulators hold,
// read as 256 bytes, has the CRC of everything folded (from register 0),
// and kCrc32x3 chains on over the tail. kCopy stores each 64 bytes to
// `dst` as they load, before the seed goes in.
// Compiled for AVX-512 in this function only; the dispatch calls it only
// on a CPU that reports the extensions.
template <bool kCopy>
__attribute__((target("avx512f,vpclmulqdq,sse4.2"))) std::uint32_t
crc32c_fold(std::byte* dst, const std::byte* src, std::size_t n,
            std::uint32_t seed) {
  constexpr std::size_t L = kCrc32cFoldBytes;
  if (n < L) return crc32c_sse42<kCopy>(dst, src, n, seed);
  constexpr auto lo = static_cast<long long>(kFoldLo);
  constexpr auto hi = static_cast<long long>(kFoldHi);
  const __m512i k = _mm512_set_epi64(hi, lo, hi, lo, hi, lo, hi, lo);
  __m512i acc[4];
  for (std::size_t j = 0; j < 4; ++j) {
    acc[j] = _mm512_loadu_si512(src + 64 * j);
    if constexpr (kCopy) _mm512_storeu_si512(dst + 64 * j, acc[j]);
  }
  acc[0] = _mm512_xor_si512(
      acc[0], _mm512_maskz_set1_epi32(1, static_cast<int>(~seed)));
  std::size_t at = L;
  for (; n - at >= L; at += L) {
#pragma GCC unroll 4
    for (std::size_t j = 0; j < 4; ++j) {
      const __m512i data = _mm512_loadu_si512(src + at + 64 * j);
      if constexpr (kCopy) _mm512_storeu_si512(dst + at + 64 * j, data);
      acc[j] = _mm512_ternarylogic_epi64(
          _mm512_clmulepi64_epi128(acc[j], k, 0x00),
          _mm512_clmulepi64_epi128(acc[j], k, 0x11), data, 0x96);  // a^b^c
    }
  }
  alignas(64) std::byte folded[L];
  for (std::size_t j = 0; j < 4; ++j) {
    _mm512_store_si512(folded + 64 * j, acc[j]);
  }
  // Clear the upper vector state, which GCC leaves dirty in a function
  // compiled for AVX-512 by attribute alone: dirty, it slows every later
  // SSE instruction in the process (DESIGN.md §8).
  _mm256_zeroupper();
  const std::uint32_t head =
      crc32c_sse42<false>(nullptr, folded, L, 0xFFFFFFFFu);
  std::byte* const tail_dst = kCopy ? dst + at : nullptr;
  return crc32c_sse42<kCopy>(tail_dst, src + at, n - at, head);
}
#endif

template <bool kCopy>
std::uint32_t crc32c_table(std::byte* dst, const std::byte* src,
                           std::size_t n, std::uint32_t seed) {
  if constexpr (kCopy) {
    if (n != 0) std::memcpy(dst, src, n);
  }
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    c = kCrcTable[(c ^ static_cast<std::uint8_t>(src[i])) & 0xFF] ^ (c >> 8);
  }
  return ~c;
}

template <bool kCopy>
std::uint32_t run_kernel(Crc32cKernel k, std::byte* dst, const std::byte* src,
                         std::size_t n, std::uint32_t seed) {
  switch (k) {
#ifdef EMCGM_CRC32C_X86
    case Crc32cKernel::kFold:
      return crc32c_fold<kCopy>(dst, src, n, seed);
    case Crc32cKernel::kCrc32x3:
      return crc32c_sse42<kCopy>(dst, src, n, seed);
#endif
    default:
      return crc32c_table<kCopy>(dst, src, n, seed);
  }
}

// The fastest kernel this CPU runs, checked once, at the first call.
Crc32cKernel best_kernel() {
  static const Crc32cKernel best = [] {
#ifdef EMCGM_CRC32C_X86
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2") == 0) return Crc32cKernel::kPortable;
    if (__builtin_cpu_supports("avx512f") != 0 &&
        __builtin_cpu_supports("vpclmulqdq") != 0) {
      return Crc32cKernel::kFold;
    }
    return Crc32cKernel::kCrc32x3;
#else
    return Crc32cKernel::kPortable;
#endif
  }();
  return best;
}

template <bool kCopy>
std::uint32_t dispatch(std::byte* dst, const std::byte* src, std::size_t n,
                       std::uint32_t seed) {
  Crc32cKernel k = best_kernel();
  if (k == Crc32cKernel::kFold && n < kCrc32cFoldMinBytes) {
    k = Crc32cKernel::kCrc32x3;
  }
  return run_kernel<kCopy>(k, dst, src, n, seed);
}

// Header field offsets within the 24-byte envelope.
constexpr std::size_t kOffMagic = 0;
constexpr std::size_t kOffCrc = 4;
constexpr std::size_t kOffDisk = 8;
constexpr std::size_t kOffTrack = 16;  // 12..16 reserved (zero)

template <typename T>
void store_le(std::span<std::byte> buf, std::size_t off, T v) {
  std::memcpy(buf.data() + off, &v, sizeof(T));
}

template <typename T>
T load_le(std::span<const std::byte> buf, std::size_t off) {
  T v;
  std::memcpy(&v, buf.data() + off, sizeof(T));
  return v;
}

/// The CRC of the address tag, which seeds the payload's: a block copied
/// verbatim to another (disk, track) fails verification even though its
/// bytes are intact.
std::uint32_t tag_crc(std::uint32_t disk, std::uint64_t track) {
  std::array<std::byte, 12> tag{};
  store_le(tag, 0, disk);
  store_le(tag, 4, track);
  return crc32c(tag);
}

}  // namespace

std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t seed) {
  return dispatch<false>(nullptr, data.data(), data.size(), seed);
}

std::uint32_t crc32c_copy(std::span<std::byte> dst,
                          std::span<const std::byte> src,
                          std::uint32_t seed) {
  EMCGM_CHECK(dst.size() == src.size());
  return dispatch<true>(dst.data(), src.data(), src.size(), seed);
}

bool crc32c_supported(Crc32cKernel k) {
  // The kernels are declared slowest first, and a CPU that runs one runs
  // every slower one.
  return static_cast<int>(k) <= static_cast<int>(best_kernel());
}

std::uint32_t crc32c_by(Crc32cKernel k, std::span<std::byte> dst,
                        std::span<const std::byte> src, std::uint32_t seed) {
  EMCGM_CHECK_MSG(crc32c_supported(k), "CRC32C kernel "
                                           << static_cast<int>(k)
                                           << " is not supported here");
  if (dst.empty()) {
    return run_kernel<false>(k, nullptr, src.data(), src.size(), seed);
  }
  EMCGM_CHECK(dst.size() == src.size());
  return run_kernel<true>(k, dst.data(), src.data(), src.size(), seed);
}

void seal_block(std::uint32_t disk, std::uint64_t track,
                std::span<const std::byte> payload,
                std::span<std::byte> phys) {
  EMCGM_CHECK(phys.size() == payload.size() + kEnvelopeBytes);
  std::memset(phys.data(), 0, kEnvelopeBytes);
  store_le(phys, kOffMagic, kBlockMagic);
  store_le(phys, kOffDisk, disk);
  store_le(phys, kOffTrack, track);
  store_le(phys, kOffCrc,
           crc32c_copy(phys.subspan(kEnvelopeBytes), payload,
                       tag_crc(disk, track)));
}

void unseal_block(std::uint32_t disk, std::uint64_t track,
                  std::span<const std::byte> phys, std::span<std::byte> out) {
  EMCGM_CHECK(phys.size() == out.size() + kEnvelopeBytes);
  const auto magic = load_le<std::uint32_t>(phys, kOffMagic);
  if (magic != kBlockMagic) {
    // Sparse track: the backends return all-zero bytes for never-written
    // tracks, which cannot carry a valid magic.
    const bool all_zero = std::all_of(phys.begin(), phys.end(), [](std::byte b) {
      return b == std::byte{0};
    });
    if (all_zero) {
      std::memset(out.data(), 0, out.size());
      return;
    }
    std::ostringstream os;
    os << "bad block magic 0x" << std::hex << magic << std::dec << " at disk "
       << disk << " track " << track;
    throw IoError(IoErrorKind::kCorruption, os.str());
  }
  const auto tag_disk = load_le<std::uint32_t>(phys, kOffDisk);
  const auto reserved = load_le<std::uint32_t>(phys, kOffDisk + 4);
  const auto tag_track = load_le<std::uint64_t>(phys, kOffTrack);
  if (reserved != 0) {
    // Sealed as zero; anything else is header rot the CRC does not cover.
    std::ostringstream os;
    os << "corrupt envelope (reserved bytes) at disk " << disk << " track "
       << track;
    throw IoError(IoErrorKind::kCorruption, os.str());
  }
  if (tag_disk != disk || tag_track != track) {
    std::ostringstream os;
    os << "misdirected block: expected disk " << disk << " track " << track
       << ", envelope says disk " << tag_disk << " track " << tag_track;
    throw IoError(IoErrorKind::kCorruption, os.str());
  }
  const auto want = load_le<std::uint32_t>(phys, kOffCrc);
  const auto got = crc32c_copy(out, phys.subspan(kEnvelopeBytes),
                               tag_crc(disk, track));
  if (want != got) {
    std::ostringstream os;
    os << "checksum mismatch at disk " << disk << " track " << track
       << ": stored 0x" << std::hex << want << ", computed 0x" << got;
    throw IoError(IoErrorKind::kCorruption, os.str());
  }
}

}  // namespace emcgm::pdm
