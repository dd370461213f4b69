#include "net/packet.h"

#include <array>
#include <cstring>

#include "pdm/checksum.h"

namespace emcgm::net {

namespace {

void put_u32(std::byte* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
void put_u64(std::byte* p, std::uint64_t v) { std::memcpy(p, &v, 8); }
std::uint32_t get_u32(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
std::uint64_t get_u64(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

}  // namespace

std::vector<std::byte> frame_packet(const Packet& p) {
  std::vector<std::byte> f(kPacketHeaderBytes + p.payload.size());
  put_u32(f.data() + 0, kPacketMagic);
  put_u32(f.data() + 4, static_cast<std::uint32_t>(p.type));
  put_u32(f.data() + 8, p.src);
  put_u32(f.data() + 12, p.dst);
  put_u64(f.data() + 16, p.seq);
  put_u32(f.data() + 24, static_cast<std::uint32_t>(p.payload.size()));
  put_u32(f.data() + 28, 0);  // CRC field participates in the CRC as zero
  const std::uint32_t header_crc =
      pdm::crc32c(std::span<const std::byte>(f).first(kPacketHeaderBytes));
  put_u32(f.data() + 28,
          pdm::crc32c_copy(std::span<std::byte>(f).subspan(kPacketHeaderBytes),
                           p.payload, header_crc));
  return f;
}

std::optional<Packet> parse_packet(std::span<const std::byte> frame) {
  if (frame.size() < kPacketHeaderBytes) return std::nullopt;
  if (get_u32(frame.data() + 0) != kPacketMagic) return std::nullopt;
  const std::uint32_t type = get_u32(frame.data() + 4);
  if (type < 1 || type > 5) return std::nullopt;
  const std::uint32_t length = get_u32(frame.data() + 24);
  if (frame.size() != kPacketHeaderBytes + length) return std::nullopt;

  // Chain the CRC around its own field, which frame_packet sealed as zero,
  // and copy the payload out as it is summed.
  constexpr std::array<std::byte, 4> kZeroCrcField{};
  std::uint32_t crc = pdm::crc32c(frame.first(28));
  crc = pdm::crc32c(kZeroCrcField, crc);
  Packet p;
  p.payload.resize(length);
  crc = pdm::crc32c_copy(p.payload, frame.subspan(kPacketHeaderBytes), crc);
  if (crc != get_u32(frame.data() + 28)) return std::nullopt;

  p.type = static_cast<PacketType>(type);
  p.src = get_u32(frame.data() + 8);
  p.dst = get_u32(frame.data() + 12);
  p.seq = get_u64(frame.data() + 16);
  return p;
}

}  // namespace emcgm::net
