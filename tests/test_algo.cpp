// Fundamental algorithms (Fig. 5 Group A) under adversarial inputs and
// parameter sweeps, plus the archive/serde substrate and primitives.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "algo/permute.h"
#include "algo/scan.h"
#include "algo/sort.h"
#include "algo/transpose.h"
#include "cgm/machine.h"
#include "cgm/proc_ctx.h"
#include "cgm/program.h"
#include "util/archive.h"
#include "util/fenwick.h"
#include "util/math.h"
#include "util/rng.h"

using namespace emcgm;

// ---------------------------------------------------------------- archive --

TEST(Archive, PodRoundTrip) {
  WriteArchive w;
  w.put<std::uint32_t>(7);
  w.put<double>(3.25);
  w.put<std::int64_t>(-12);
  ReadArchive r(w.buffer());
  EXPECT_EQ(r.get<std::uint32_t>(), 7u);
  EXPECT_DOUBLE_EQ(r.get<double>(), 3.25);
  EXPECT_EQ(r.get<std::int64_t>(), -12);
  EXPECT_TRUE(r.exhausted());
}

TEST(Archive, VectorsAndStrings) {
  WriteArchive w;
  std::vector<std::uint64_t> xs{1, 2, 3, 99};
  w.put_vec(xs);
  w.put_string("hello emcgm");
  w.put_vec(std::vector<std::uint16_t>{});
  ReadArchive r(w.buffer());
  EXPECT_EQ(r.get_vec<std::uint64_t>(), xs);
  EXPECT_EQ(r.get_string(), "hello emcgm");
  EXPECT_TRUE(r.get_vec<std::uint16_t>().empty());
}

TEST(Archive, UnderrunThrows) {
  WriteArchive w;
  w.put<std::uint32_t>(1);
  ReadArchive r(w.buffer());
  r.get<std::uint32_t>();
  EXPECT_THROW(r.get<std::uint64_t>(), Error);

  // A corrupt length prefix is a typed underrun before anything is
  // allocated from it: 12 bytes that claim 2^40 of payload, or a count
  // whose byte size wraps to 8.
  WriteArchive huge;
  huge.put<std::uint64_t>(std::uint64_t{1} << 40);
  huge.put<std::uint32_t>(0);
  ReadArchive bytes(huge.buffer());
  EXPECT_THROW(bytes.get_bytes(), Error);
  ReadArchive str(huge.buffer());
  EXPECT_THROW(str.get_string(), Error);
  WriteArchive wrap;
  wrap.put<std::uint64_t>((std::uint64_t{1} << 61) + 1);
  wrap.put<std::uint64_t>(0);
  ReadArchive vec(wrap.buffer());
  EXPECT_THROW(vec.get_vec<std::uint64_t>(), Error);
  // A raw read cannot wrap the bound either.
  ReadArchive raw(huge.buffer());
  raw.get<std::uint32_t>();
  std::byte sink{};
  EXPECT_THROW(raw.read_raw(&sink, std::numeric_limits<std::size_t>::max()),
               Error);
}

TEST(Archive, BytesHelpers) {
  std::vector<std::uint32_t> xs{10, 20, 30};
  auto bytes = vec_to_bytes(xs);
  EXPECT_EQ(bytes.size(), 12u);
  EXPECT_EQ(bytes_to_vec<std::uint32_t>(bytes), xs);
  EXPECT_THROW(bytes_to_vec<std::uint64_t>(bytes), Error);  // 12 % 8 != 0
}

TEST(Archive, FieldListMatchesHandWrittenEncoding) {
  // A ProgramT state derives its context encoding from one field list; the
  // bytes must be exactly the hand-written put / put_vec sequence.
  struct Padded {
    std::uint8_t tag;
    std::uint64_t val;  // 7 padding bytes precede it
  };
  static_assert(sizeof(Padded) == 16);
  struct EncState {
    std::uint32_t phase = 0;
    double x = 0;
    std::vector<std::uint8_t> bytes;
    std::vector<Padded> items;
    auto fields() { return std::tie(phase, x, bytes, items); }
  };
  class EncProgram final : public cgm::ProgramT<EncState> {
   public:
    std::string name() const override { return "field_list_probe"; }
    void round(cgm::ProcCtx&, EncState& st) const override { seen = st; }
    bool done(const cgm::ProcCtx&, const EncState&) const override {
      return true;
    }
    mutable EncState seen;
  };

  std::vector<Padded> items(2);  // value-initialized: padding is zero
  items[0].tag = 1;
  items[0].val = 10;
  items[1].tag = 2;
  items[1].val = 1ull << 40;
  WriteArchive hand;
  hand.put<std::uint32_t>(7);
  hand.put<double>(2.5);
  hand.put_vec(std::vector<std::uint8_t>{1, 2, 3});
  hand.put_vec(items);

  EncProgram prog;
  auto state = prog.make_state();
  ReadArchive in(hand.buffer());
  state->load(in);
  EXPECT_TRUE(in.exhausted());
  cgm::ProcCtx ctx(0, 1, 0);
  static_cast<const cgm::Program&>(prog).round(ctx, *state);
  EXPECT_EQ(prog.seen.phase, 7u);
  EXPECT_EQ(prog.seen.x, 2.5);
  EXPECT_EQ(prog.seen.bytes, (std::vector<std::uint8_t>{1, 2, 3}));
  ASSERT_EQ(prog.seen.items.size(), 2u);
  EXPECT_EQ(prog.seen.items[1].tag, 2u);
  EXPECT_EQ(prog.seen.items[1].val, 1ull << 40);

  WriteArchive out;
  state->save(out);
  EXPECT_EQ(out.buffer(), hand.buffer());
}

// ------------------------------------------------------------------- math --

TEST(Math, ChunkPartitioning) {
  for (std::uint64_t n : {0ull, 1ull, 7ull, 100ull, 101ull}) {
    for (std::uint64_t k : {1ull, 3ull, 7ull, 16ull}) {
      std::uint64_t total = 0;
      for (std::uint64_t i = 0; i < k; ++i) {
        EXPECT_EQ(chunk_begin(n, k, i), total);
        total += chunk_size(n, k, i);
      }
      EXPECT_EQ(total, n);
      for (std::uint64_t x = 0; x < n; ++x) {
        const auto o = chunk_owner(n, k, x);
        EXPECT_GE(x, chunk_begin(n, k, o));
        EXPECT_LT(x, chunk_begin(n, k, o) + chunk_size(n, k, o));
      }
    }
  }
}

TEST(Math, SmallHelpers) {
  EXPECT_EQ(ceil_div(10, 3), 4u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
  EXPECT_EQ(floor_pow2(1), 1u);
  EXPECT_EQ(floor_pow2(63), 32u);
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(16), 4u);
  EXPECT_EQ(floor_log2(17), 4u);
}

TEST(Fenwick, PrefixSums) {
  Fenwick f(10);
  f.add(0, 5);
  f.add(3, 2);
  f.add(9, 7);
  EXPECT_EQ(f.prefix(0), 0u);
  EXPECT_EQ(f.prefix(1), 5u);
  EXPECT_EQ(f.prefix(4), 7u);
  EXPECT_EQ(f.prefix(10), 14u);
  f.add(3, 1);
  EXPECT_EQ(f.prefix(4), 8u);
}

// ------------------------------------------------------------------- sort --

namespace {

struct SortParam {
  cgm::EngineKind kind;
  std::uint32_t v;
  std::uint32_t p;
};

class SortSuite : public ::testing::TestWithParam<SortParam> {
 protected:
  cgm::Machine machine() const {
    cgm::MachineConfig cfg;
    cfg.v = GetParam().v;
    cfg.p = GetParam().p;
    cfg.disk.num_disks = 2;
    cfg.disk.block_bytes = 256;
    return cgm::Machine(GetParam().kind, cfg);
  }
};

}  // namespace

TEST_P(SortSuite, AdversarialInputs) {
  auto m = machine();
  const std::size_t n = 4000;
  std::vector<std::vector<std::uint64_t>> inputs;
  inputs.push_back(random_keys(1, n));                    // random
  inputs.push_back(std::vector<std::uint64_t>(n, 42));    // all equal
  std::vector<std::uint64_t> asc(n), desc(n), fewvals(n);
  for (std::size_t i = 0; i < n; ++i) {
    asc[i] = i;
    desc[i] = n - i;
    fewvals[i] = i % 3;
  }
  inputs.push_back(asc);
  inputs.push_back(desc);
  inputs.push_back(fewvals);
  inputs.push_back({});               // empty
  inputs.push_back({5});              // singleton
  inputs.push_back(random_keys(2, GetParam().v));  // N == v

  for (const auto& keys : inputs) {
    auto expect = keys;
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(algo::sort_keys(m, keys), expect) << "n=" << keys.size();
  }
}

TEST_P(SortSuite, OutputPartitionsAreExactChunks) {
  auto m = machine();
  const std::size_t n = 3001;  // deliberately not divisible by v
  auto keys = random_keys(3, n);
  auto dv = m.scatter<std::uint64_t>(keys);
  auto sorted = algo::sample_sort<std::uint64_t>(m, std::move(dv));
  for (std::uint32_t j = 0; j < m.v(); ++j) {
    EXPECT_EQ(sorted.part(j).size(), chunk_size(n, m.v(), j)) << "proc " << j;
  }
}

TEST_P(SortSuite, BucketBalanceUnderDuplicates) {
  // All-equal keys must not overload one processor in the bucket round:
  // the gid tie-break guarantees <= 2N/v + v per bucket. Verify via the
  // per-superstep h statistics of the native engine.
  if (GetParam().kind != cgm::EngineKind::kNative) return;
  auto m = machine();
  const std::size_t n = 8000;
  std::vector<std::uint64_t> keys(n, 7);
  algo::sort_keys(m, keys);
  const auto& steps = m.total().comm.steps;
  ASSERT_FALSE(steps.empty());
  const double bound =
      (2.0 * n / GetParam().v + GetParam().v + 8) * sizeof(std::uint64_t) * 2;
  for (const auto& s : steps) {
    EXPECT_LT(static_cast<double>(s.max_recv), bound);
  }
}

TEST_P(SortSuite, CustomComparatorAndType) {
  struct ByMod {
    bool operator()(std::uint64_t a, std::uint64_t b) const {
      return a % 97 < b % 97 || (a % 97 == b % 97 && a < b);
    }
  };
  auto m = machine();
  auto keys = random_keys(4, 2000);
  auto dv = m.scatter<std::uint64_t>(keys);
  auto sorted = m.gather(
      algo::sample_sort<std::uint64_t, ByMod>(m, std::move(dv)));
  auto expect = keys;
  std::sort(expect.begin(), expect.end(), ByMod{});
  EXPECT_EQ(sorted, expect);
}

// ---------------------------------------------------------------- permute --

TEST_P(SortSuite, PermuteSpecialPatterns) {
  auto m = machine();
  const std::size_t n = 2048;
  auto values = random_keys(5, n);
  std::vector<std::uint64_t> identity(n), reverse(n), cyclic(n);
  for (std::size_t i = 0; i < n; ++i) {
    identity[i] = i;
    reverse[i] = n - 1 - i;
    cyclic[i] = (i + n / 3) % n;
  }
  for (const auto& perm : {identity, reverse, cyclic}) {
    auto dv = m.scatter<std::uint64_t>(values);
    auto dp = m.scatter<std::uint64_t>(perm);
    auto out = m.gather(algo::permute<std::uint64_t>(m, dv, dp));
    std::vector<std::uint64_t> expect(n);
    for (std::size_t i = 0; i < n; ++i) expect[perm[i]] = values[i];
    EXPECT_EQ(out, expect);
  }
}

TEST_P(SortSuite, PermuteRejectsNonPermutation) {
  auto m = machine();
  std::vector<std::uint64_t> values{1, 2, 3, 4};
  std::vector<std::uint64_t> bad{0, 0, 1, 2};  // duplicate target
  auto dv = m.scatter<std::uint64_t>(values);
  auto dp = m.scatter<std::uint64_t>(bad);
  EXPECT_THROW(algo::permute<std::uint64_t>(m, dv, dp), Error);
}

// -------------------------------------------------------------- transpose --

TEST_P(SortSuite, TransposeShapes) {
  auto m = machine();
  for (auto [rows, cols] : std::vector<std::pair<std::uint64_t, std::uint64_t>>{
           {1, 64}, {64, 1}, {8, 8}, {5, 200}, {200, 5}, {33, 47}}) {
    std::vector<std::uint64_t> mat(rows * cols);
    for (std::size_t i = 0; i < mat.size(); ++i) mat[i] = i;
    auto dv = m.scatter<std::uint64_t>(mat);
    auto out = m.gather(algo::transpose<std::uint64_t>(m, dv, rows, cols));
    for (std::uint64_t r = 0; r < rows; ++r) {
      for (std::uint64_t c = 0; c < cols; ++c) {
        ASSERT_EQ(out[c * rows + r], mat[r * cols + c])
            << rows << "x" << cols;
      }
    }
  }
}

TEST_P(SortSuite, TransposeIsInvolution) {
  auto m = machine();
  const std::uint64_t rows = 24, cols = 17;
  std::vector<std::uint64_t> mat(rows * cols);
  for (std::size_t i = 0; i < mat.size(); ++i) mat[i] = i * 3 + 1;
  auto dv = m.scatter<std::uint64_t>(mat);
  auto once = algo::transpose<std::uint64_t>(m, dv, rows, cols);
  auto twice = algo::transpose<std::uint64_t>(m, once, cols, rows);
  EXPECT_EQ(m.gather(twice), mat);
}

// ------------------------------------------------------------------- scan --

TEST_P(SortSuite, PrefixScan) {
  auto m = machine();
  const std::size_t n = 1000;
  std::vector<std::int64_t> xs(n);
  Rng rng(6);
  for (auto& x : xs) x = static_cast<std::int64_t>(rng.next_below(100)) - 50;
  auto dv = m.scatter<std::int64_t>(xs);
  auto inc = m.gather(algo::prefix_scan(m, dv, true));
  auto dv2 = m.scatter<std::int64_t>(xs);
  auto exc = m.gather(algo::prefix_scan(m, dv2, false));
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(exc[i], acc);
    acc += xs[i];
    EXPECT_EQ(inc[i], acc);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SortSuite,
    ::testing::Values(SortParam{cgm::EngineKind::kNative, 4, 1},
                      SortParam{cgm::EngineKind::kNative, 16, 1},
                      SortParam{cgm::EngineKind::kEm, 4, 1},
                      SortParam{cgm::EngineKind::kEm, 8, 4},
                      SortParam{cgm::EngineKind::kEm, 1, 1}),
    [](const ::testing::TestParamInfo<SortParam>& info) {
      const auto& p = info.param;
      std::string s = p.kind == cgm::EngineKind::kNative ? "native" : "em";
      return s + "_v" + std::to_string(p.v) + "_p" + std::to_string(p.p);
    });
