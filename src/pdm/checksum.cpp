#include "pdm/checksum.h"

#include <algorithm>
#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define EMCGM_CRC32C_SSE42 1
#include <nmmintrin.h>
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

#ifdef EMCGM_CRC32C_SSE42
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
// Compiled for SSE4.2 in this function only; crc32c() and crc32c_copy() call
// it only on a CPU that reports the extension.
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

// The CPU check runs once, at the first call.
bool use_sse42() {
  static const bool yes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return yes;
}
#endif

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

std::uint32_t crc32c_portable(std::span<const std::byte> data,
                              std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (std::byte b : data) {
    c = kCrcTable[(c ^ static_cast<std::uint8_t>(b)) & 0xFF] ^ (c >> 8);
  }
  return ~c;
}

std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t seed) {
#ifdef EMCGM_CRC32C_SSE42
  if (use_sse42()) {
    return crc32c_sse42<false>(nullptr, data.data(), data.size(), seed);
  }
#endif
  return crc32c_portable(data, seed);
}

std::uint32_t crc32c_copy(std::span<std::byte> dst,
                          std::span<const std::byte> src,
                          std::uint32_t seed) {
  EMCGM_CHECK(dst.size() == src.size());
#ifdef EMCGM_CRC32C_SSE42
  if (use_sse42()) {
    return crc32c_sse42<true>(dst.data(), src.data(), src.size(), seed);
  }
#endif
  if (!src.empty()) std::memcpy(dst.data(), src.data(), src.size());
  return crc32c_portable(src, seed);
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
