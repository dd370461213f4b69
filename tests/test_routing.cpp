// BalancedRouting (Algorithm 1): content preservation, the physical byte
// layout of both rounds, and the Theorem 1 / Corollary 1 message-size
// bounds, over parameterized v and adversarial message-size distributions.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "routing/balanced_routing.h"
#include "util/error.h"
#include "util/rng.h"

using namespace emcgm;

namespace {

// Run the full two-round protocol centrally and return (delivered app
// messages, per-phase physical data-byte matrix).
struct RoutedResult {
  std::vector<std::vector<cgm::Message>> delivered;  // [dst]
  std::vector<std::uint64_t> phase_a_sizes;          // data bytes per msg
  std::vector<std::uint64_t> phase_b_sizes;
};

RoutedResult route_all(std::uint32_t v,
                       const std::vector<std::vector<cgm::Message>>& outbox) {
  RoutedResult res;
  res.delivered.resize(v);
  std::vector<std::vector<cgm::Message>> inter(v);
  for (std::uint32_t i = 0; i < v; ++i) {
    for (auto& m : routing::encode_phase_a(v, i, outbox[i])) {
      res.phase_a_sizes.push_back(routing::data_bytes(m));
      inter[m.dst].push_back(std::move(m));
    }
  }
  std::vector<std::vector<cgm::Message>> final_phys(v);
  for (std::uint32_t k = 0; k < v; ++k) {
    for (auto& m : routing::transform_intermediate(v, k, inter[k])) {
      res.phase_b_sizes.push_back(routing::data_bytes(m));
      final_phys[m.dst].push_back(std::move(m));
    }
  }
  for (std::uint32_t j = 0; j < v; ++j) {
    res.delivered[j] = routing::decode_phase_b(v, j, final_phys[j]);
  }
  return res;
}

std::vector<std::byte> make_payload(Rng& rng, std::size_t n) {
  std::vector<std::byte> p(n);
  for (auto& b : p) b = static_cast<std::byte>(rng.next() & 0xFF);
  return p;
}

class RoutingSuite : public ::testing::TestWithParam<std::uint32_t> {};

}  // namespace

TEST_P(RoutingSuite, RandomTrafficRoundTrips) {
  const std::uint32_t v = GetParam();
  Rng rng(100 + v);
  std::vector<std::vector<cgm::Message>> outbox(v);
  std::vector<std::vector<std::vector<std::byte>>> expect(
      v, std::vector<std::vector<std::byte>>(v));
  for (std::uint32_t i = 0; i < v; ++i) {
    for (std::uint32_t j = 0; j < v; ++j) {
      if (rng.next_bool()) continue;  // sparse pattern
      auto payload = make_payload(rng, 1 + rng.next_below(300));
      expect[j][i] = payload;
      outbox[i].push_back(cgm::Message{i, j, std::move(payload)});
    }
  }
  auto res = route_all(v, outbox);
  for (std::uint32_t j = 0; j < v; ++j) {
    for (const auto& m : res.delivered[j]) {
      EXPECT_EQ(m.payload, expect[j][m.src])
          << "message " << m.src << " -> " << j;
      expect[j][m.src].clear();
    }
    for (std::uint32_t i = 0; i < v; ++i) {
      EXPECT_TRUE(expect[j][i].empty()) << "lost message " << i << "->" << j;
    }
  }
}

TEST_P(RoutingSuite, SkewedTrafficIsBalanced) {
  // Adversarial h-relation: processor i sends everything to one target.
  const std::uint32_t v = GetParam();
  if (v < 2) return;
  Rng rng(200 + v);
  const std::size_t big = 400 * v;
  std::vector<std::vector<cgm::Message>> outbox(v);
  for (std::uint32_t i = 0; i < v; ++i) {
    outbox[i].push_back(
        cgm::Message{i, (i + 1) % v, make_payload(rng, big)});
  }
  auto res = route_all(v, outbox);
  // Theorem 1 with per-source volume S = big: every physical message's
  // data bytes lie within S/v +- (v/2 + 1).
  const double mean = static_cast<double>(big) / v;
  for (auto s : res.phase_a_sizes) {
    EXPECT_NEAR(static_cast<double>(s), mean, v / 2.0 + 1.0);
  }
  // Round B: every destination receives exactly S, again split v ways.
  for (auto s : res.phase_b_sizes) {
    EXPECT_NEAR(static_cast<double>(s), mean, v / 2.0 + 1.0);
  }
  // And the content survives.
  for (std::uint32_t j = 0; j < v; ++j) {
    ASSERT_EQ(res.delivered[j].size(), 1u);
    EXPECT_EQ(res.delivered[j][0].payload.size(), big);
  }
}

TEST_P(RoutingSuite, UniformAllToAllBounds) {
  const std::uint32_t v = GetParam();
  Rng rng(300 + v);
  const std::size_t msg = 64 * v;
  std::vector<std::vector<cgm::Message>> outbox(v);
  for (std::uint32_t i = 0; i < v; ++i) {
    for (std::uint32_t j = 0; j < v; ++j) {
      outbox[i].push_back(cgm::Message{i, j, make_payload(rng, msg)});
    }
  }
  auto res = route_all(v, outbox);
  const double mean = static_cast<double>(msg) * v / v;  // S/v = msg
  for (auto s : res.phase_a_sizes) {
    EXPECT_NEAR(static_cast<double>(s), mean, v / 2.0 + 1.0);
  }
  std::uint64_t total = 0;
  for (std::uint32_t j = 0; j < v; ++j) {
    for (const auto& m : res.delivered[j]) total += m.payload.size();
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(msg) * v * v);
}

TEST_P(RoutingSuite, VariedLengthsRoundTrip) {
  // Lengths 0, 1, v-1, v, v+1, large: exercise every stride edge case;
  // 33v + 5 bytes are two 16-row blocks of tiles, one more row and a tail.
  const std::uint32_t v = GetParam();
  Rng rng(400 + v);
  const std::size_t lens[] = {0, 1, v - 1 + 1, v, v + 1, 7 * v + 3,
                              33 * v + 5};
  std::vector<std::vector<cgm::Message>> outbox(v);
  std::vector<std::vector<std::vector<std::byte>>> expect(
      v, std::vector<std::vector<std::byte>>(v));
  std::size_t li = 0;
  for (std::uint32_t i = 0; i < v; ++i) {
    for (std::uint32_t j = 0; j < v; ++j) {
      const std::size_t len = lens[li++ % std::size(lens)];
      if (len == 0) continue;
      auto payload = make_payload(rng, len);
      expect[j][i] = payload;
      outbox[i].push_back(cgm::Message{i, j, std::move(payload)});
    }
  }
  auto res = route_all(v, outbox);
  for (std::uint32_t j = 0; j < v; ++j) {
    std::size_t matched = 0;
    for (const auto& m : res.delivered[j]) {
      EXPECT_EQ(m.payload, expect[j][m.src]);
      ++matched;
    }
    std::size_t expected_count = 0;
    for (std::uint32_t i = 0; i < v; ++i) {
      if (!expect[j][i].empty()) ++expected_count;
    }
    EXPECT_EQ(matched, expected_count);
  }
}

TEST(Routing, PhysicalBytesFollowAlgorithm1) {
  // Build both rounds' payloads straight from the rule (byte l of src -> dst
  // travels in bin (src + dst + l) mod v) and compare them byte for byte
  // with what encode and regroup write; decode must invert the rule-built
  // round B. The lengths hit every 16 x 16 tile edge and every tail.

  // records[k]: the fragment record of message m in bin k, or nothing.
  auto rule_records = [](std::uint32_t v, const cgm::Message& m) {
    std::vector<std::vector<std::byte>> bytes(v), records(v);
    for (std::size_t l = 0; l < m.payload.size(); ++l) {
      bytes[(m.src + m.dst + l) % v].push_back(m.payload[l]);
    }
    for (std::uint32_t k = 0; k < v; ++k) {
      if (bytes[k].empty()) continue;
      const std::uint32_t ids[2] = {m.src, m.dst};
      const std::uint64_t lens[2] = {m.payload.size(), bytes[k].size()};
      const auto* a = reinterpret_cast<const std::byte*>(ids);
      const auto* b = reinterpret_cast<const std::byte*>(lens);
      records[k].insert(records[k].end(), a, a + sizeof ids);
      records[k].insert(records[k].end(), b, b + sizeof lens);
      records[k].insert(records[k].end(), bytes[k].begin(), bytes[k].end());
    }
    return records;
  };
  for (std::uint32_t v : {1u, 3u, 8u, 16u, 32u, 48u}) {
    const std::size_t lens[] = {1,          v - 1,  v,          v + 1,
                                15 * v + 7, 16 * v, 17 * v + 1, 33 * v + 5};
    // Message i -> j gets lens[(i + j + shift) % 8]; i + j takes 2v - 1
    // values, so the small v need several passes to see every length.
    for (std::size_t shift = 0; shift < std::size(lens); shift += 2 * v - 1) {
      SCOPED_TRACE("v = " + std::to_string(v) + ", shift " +
                   std::to_string(shift));
      Rng rng(500 + v + shift);
      // Outbox order is a rotation of the destinations, not ascending.
      std::vector<std::vector<cgm::Message>> outbox(v);
      for (std::uint32_t i = 0; i < v; ++i) {
        for (std::uint32_t t = 0; t < v; ++t) {
          const std::uint32_t j = (i + v - t) % v;
          const std::size_t len = lens[(i + j + shift) % std::size(lens)];
          if (len == 0) continue;
          outbox[i].push_back(cgm::Message{i, j, make_payload(rng, len)});
        }
      }
      // want_a[i][k]: round A, src -> k; want_b[j][k]: round B, k -> j.
      std::vector<std::vector<std::vector<std::byte>>> want_a(
          v, std::vector<std::vector<std::byte>>(v)),
          want_b = want_a;
      std::vector<std::vector<const cgm::Message*>> to(v);  // [dst][src]
      for (std::uint32_t i = 0; i < v; ++i) {  // so round B is by src
        for (const auto& m : outbox[i]) {
          const auto records = rule_records(v, m);
          for (std::uint32_t k = 0; k < v; ++k) {
            auto& a = want_a[i][k];
            auto& b = want_b[m.dst][k];
            a.insert(a.end(), records[k].begin(), records[k].end());
            b.insert(b.end(), records[k].begin(), records[k].end());
          }
          to[m.dst].push_back(&m);
        }
      }
      // Round A as encoded, and regroup fed the rule-built round A.
      std::vector<std::vector<cgm::Message>> inter(v);
      for (std::uint32_t i = 0; i < v; ++i) {
        std::vector<std::vector<std::byte>> got(v);
        for (auto& m : routing::encode_phase_a(v, i, outbox[i])) {
          ASSERT_EQ(m.src, i);
          got[m.dst] = std::move(m.payload);
        }
        for (std::uint32_t k = 0; k < v; ++k) {
          EXPECT_EQ(got[k], want_a[i][k]) << "round A " << i << " -> " << k;
          if (!want_a[i][k].empty()) {
            inter[k].push_back(cgm::Message{i, k, want_a[i][k]});
          }
        }
      }
      std::vector<std::vector<cgm::Message>> final_phys(v);
      for (std::uint32_t k = 0; k < v; ++k) {
        std::vector<std::vector<std::byte>> got(v);
        for (auto& m : routing::transform_intermediate(v, k, inter[k])) {
          ASSERT_EQ(m.src, k);
          got[m.dst] = std::move(m.payload);
        }
        for (std::uint32_t j = 0; j < v; ++j) {
          EXPECT_EQ(got[j], want_b[j][k]) << "round B " << k << " -> " << j;
          if (!want_b[j][k].empty()) {
            final_phys[j].push_back(cgm::Message{k, j, want_b[j][k]});
          }
        }
      }
      for (std::uint32_t j = 0; j < v; ++j) {
        const auto got = routing::decode_phase_b(v, j, final_phys[j]);
        ASSERT_EQ(got.size(), to[j].size());
        for (std::size_t s = 0; s < got.size(); ++s) {
          EXPECT_EQ(got[s].src, to[j][s]->src);
          EXPECT_EQ(got[s].payload, to[j][s]->payload)
              << "message " << got[s].src << " -> " << j;
        }
      }
    }
  }
}

TEST(Routing, MalformedFragmentsAreTypedErrors) {
  // One 8-byte message 0 -> 1 on v = 4: every intermediate k forwards one
  // round-B fragment carrying 2 of its bytes.
  const std::uint32_t v = 4, dst = 1;
  const std::vector<cgm::Message> outbox{
      cgm::Message{0, dst, std::vector<std::byte>(8, std::byte{7})}};
  std::vector<std::vector<cgm::Message>> inter(v);
  for (auto& m : routing::encode_phase_a(v, 0, outbox)) {
    inter[m.dst].push_back(std::move(m));
  }
  std::vector<cgm::Message> good;  // good[k] comes from intermediate k
  for (std::uint32_t k = 0; k < v; ++k) {
    for (auto& m : routing::transform_intermediate(v, k, inter[k])) {
      good.push_back(std::move(m));
    }
  }
  ASSERT_EQ(good.size(), v);
  ASSERT_EQ(routing::decode_phase_b(v, dst, good).at(0).payload,
            outbox[0].payload);

  // Header: u32 orig_src @0, u32 final_dst @4, u64 total_len @8,
  // u64 frag_len @16, then frag_len bytes.
  auto patched = [](std::vector<cgm::Message> msgs, std::size_t i,
                    std::size_t off, auto value) {
    std::memcpy(msgs[i].payload.data() + off, &value, sizeof value);
    return msgs;
  };
  auto decode_fails = [&](const std::vector<cgm::Message>& inbox,
                          const char* what) {
    EXPECT_THROW(routing::decode_phase_b(v, dst, inbox), Error) << what;
  };
  auto truncated = good;
  truncated[0].payload.resize(10);
  decode_fails(truncated, "incomplete header");
  decode_fails(patched(good, 0, 16, std::uint64_t{100}),
               "frag_len overruns the payload");
  decode_fails(patched(good, 0, 0, std::uint32_t{1000}), "orig_src >= v");
  decode_fails(patched(good, 0, 4, std::uint32_t{9}), "final_dst >= v");
  decode_fails(patched(good, 0, 4, std::uint32_t{2}), "final_dst != dst");
  decode_fails(patched(good, 0, 8, std::uint64_t{1} << 62),
               "frag_len is not the round-robin count of total_len");
  // From k = 1 the fragment starts at byte 0, and 2 bytes is also its
  // share of a 7-byte message: a consistent header that disagrees with the
  // 8 bytes fragment 0 announced.
  decode_fails(patched(good, 1, 8, std::uint64_t{7}),
               "total_len disagrees across fragments");
  auto repeated = good;
  repeated[0].payload.insert(repeated[0].payload.end(),
                             good[0].payload.begin(), good[0].payload.end());
  decode_fails(repeated, "a fragment repeated in one payload");
  decode_fails(std::vector<cgm::Message>(good.begin(), good.end() - 1),
               "incomplete reassembly");
  // Intermediate 0's payload twice and intermediate 1's lost: the byte
  // count still adds up to 8, but bytes 0 and 4 would never arrive.
  decode_fails({good[0], good[0], good[2], good[3]},
               "a fragment delivered twice in place of a missing one");

  // Regroup and data_bytes walk the same headers.
  EXPECT_THROW(
      routing::transform_intermediate(v, 1, patched(inter[1], 0, 0,
                                                    std::uint32_t{1000})),
      Error);
  auto cut = inter[1];
  cut[0].payload.pop_back();
  EXPECT_THROW(routing::transform_intermediate(v, 1, cut), Error);
  EXPECT_THROW(routing::data_bytes(truncated[0]), Error);
}

INSTANTIATE_TEST_SUITE_P(Vs, RoutingSuite,
                         ::testing::Values(1u, 2u, 3u, 4u, 7u, 8u, 16u, 32u,
                                           33u, 48u),
                         [](const ::testing::TestParamInfo<std::uint32_t>& i) {
                           return "v" + std::to_string(i.param);
                         });
