// Checksummed block envelope for the PDM storage layer.
//
// When checksums are enabled, every physical block stored by a backend is an
// *envelope*: a fixed 24-byte header followed by the logical payload. The
// header carries a magic, a CRC32C over (disk || track || payload), and the
// block's own address tag. DiskArray verifies the envelope on every read, so
// three distinct failure modes all surface as typed emcgm::IoError
// (IoErrorKind::kCorruption) instead of silent wrong answers:
//
//   * bit rot        — payload bytes changed at rest (CRC mismatch),
//   * torn writes    — only a prefix of the block reached the media
//                      (CRC mismatch),
//   * misdirection   — a valid block landed on / was fetched from the wrong
//                      (disk, track) (address-tag mismatch).
//
// An all-zero physical block is a sparse, never-written track and unseals to
// an all-zero payload — preserving the backends' sparse-read contract.
//
// The same CRC32C serves the network frames and the commit records. It has
// three kernels (Crc32cKernel), all computing the same value; one CPU check,
// at the first call, picks the fastest this CPU runs, and the input length
// picks between the two fast ones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "pdm/geometry.h"

namespace emcgm::pdm {

/// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected). `seed` chains
/// incremental computations: crc32c(b, crc32c(a)) == crc32c(a || b). Runs
/// kFold on inputs of at least kCrc32cFoldMinBytes when this CPU has it,
/// else kCrc32x3 when it has that, else kPortable. Every kernel gives the
/// same value for every input.
std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t seed = 0);

/// crc32c(src, seed), copying `src` into `dst` (same size) in the same pass,
/// by the kernel crc32c() would pick. kPortable copies first, with memcpy.
std::uint32_t crc32c_copy(std::span<std::byte> dst,
                          std::span<const std::byte> src,
                          std::uint32_t seed = 0);

/// The CRC32C kernels:
///  * kPortable — a byte-at-a-time table loop; runs everywhere.
///  * kCrc32x3 — the SSE4.2 crc32 instruction over 8-byte words in three
///    interleaved streams of kCrc32cStreamBytes each.
///  * kFold — carry-less multiplies (AVX-512F + VPCLMULQDQ) fold 256 bytes
///    per step into four 512-bit accumulators; kCrc32x3 sums what is left.
enum class Crc32cKernel { kPortable, kCrc32x3, kFold };

/// Whether this CPU runs kernel `k`: the check crc32c() picks by.
bool crc32c_supported(Crc32cKernel k);

/// crc32c_copy(dst, src, seed) by kernel `k`, whatever the length; with an
/// empty `dst`, crc32c(src, seed) by `k`. `k` must be supported. This lets
/// tests check each kernel against a reference.
std::uint32_t crc32c_by(Crc32cKernel k, std::span<std::byte> dst,
                        std::span<const std::byte> src, std::uint32_t seed);

/// Bytes per stream per step of kCrc32x3: inputs of at least
/// 3 * kCrc32cStreamBytes run interleaved, the rest as one stream.
inline constexpr std::size_t kCrc32cStreamBytes = 256;

/// Bytes kFold folds per step (its four 64-byte accumulators).
inline constexpr std::size_t kCrc32cFoldBytes = 256;

/// Shortest input crc32c() gives kFold. kFold ends with a kCrc32x3 pass over
/// its kCrc32cFoldBytes of accumulators, so on shorter inputs it saves
/// little or nothing.
inline constexpr std::size_t kCrc32cFoldMinBytes = 2 * kCrc32cFoldBytes;

/// Envelope header: magic(4) | crc(4) | disk(4) | reserved(4) | track(8).
inline constexpr std::size_t kEnvelopeBytes = 24;
inline constexpr std::uint32_t kBlockMagic = 0x454D4342;  // "EMCB"

/// Geometry the *backend* must be built with so that DiskArray can expose
/// `logical` to the layers above: each physical track gains header room.
inline DiskGeometry physical_geometry(const DiskGeometry& logical,
                                      bool checksums) {
  if (!checksums) return logical;
  DiskGeometry phys = logical;
  phys.block_bytes += kEnvelopeBytes;
  return phys;
}

/// Seal `payload` for storage at (disk, track). `phys` must be exactly
/// payload.size() + kEnvelopeBytes long.
void seal_block(std::uint32_t disk, std::uint64_t track,
                std::span<const std::byte> payload, std::span<std::byte> phys);

/// Verify `phys` (read from (disk, track)) and extract its payload into
/// `out` (exactly phys.size() - kEnvelopeBytes long). An all-zero physical
/// block is sparse: `out` is zero-filled. Throws IoError
/// (IoErrorKind::kCorruption) on a CRC or address-tag mismatch. The payload
/// is copied while its CRC is computed, so after a throw the contents of
/// `out` are unspecified: callers discard it.
void unseal_block(std::uint32_t disk, std::uint64_t track,
                  std::span<const std::byte> phys, std::span<std::byte> out);

}  // namespace emcgm::pdm
