// Fundamental algorithms (Fig. 5 Group A) under adversarial inputs and
// parameter sweeps, plus the archive/serde substrate and primitives.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <utility>

#include "algo/permute.h"
#include "algo/scan.h"
#include "algo/sort.h"
#include "algo/transpose.h"
#include "cgm/machine.h"
#include "cgm/proc_ctx.h"
#include "cgm/program.h"
#include "geom/point.h"
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

TEST(Archive, FieldsBytesMatchesPutFields) {
  // The context store sizes each archive from the field list before writing
  // it; the size must be exactly what put_fields then writes.
  struct Item {
    std::uint32_t id;
    double w;
  };
  struct SizedState {
    std::uint64_t round = 0;
    std::vector<std::uint32_t> empty;
    std::vector<std::uint8_t> bytes;
    std::vector<std::uint64_t> words;
    std::vector<Item> items;
    auto fields() { return std::tie(round, empty, bytes, words, items); }
  };
  class SizedProgram final : public cgm::ProgramT<SizedState> {
   public:
    std::string name() const override { return "fields_bytes_probe"; }
    void round(cgm::ProcCtx&, SizedState& st) const override {
      st.round = 3;
      st.bytes = {1, 2, 3, 4, 5};
      st.words = {7, 8};
      st.items.resize(3);
    }
    bool done(const cgm::ProcCtx&, const SizedState&) const override {
      return true;
    }
  };
  SizedProgram prog;
  auto state = prog.make_state();
  for (int filled = 0; filled < 2; ++filled) {
    if (filled) {
      cgm::ProcCtx ctx(0, 1, 0);
      static_cast<const cgm::Program&>(prog).round(ctx, *state);
    }
    WriteArchive out;
    state->save(out);
    EXPECT_EQ(state->saved_bytes(), out.size()) << "filled " << filled;
  }
  // 8 + (8 + 0) + (8 + 5) + (8 + 16) + (8 + 3 * sizeof(Item))
  EXPECT_EQ(state->saved_bytes(), 61 + 3 * sizeof(Item));
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

struct ByMod {
  bool operator()(std::uint64_t a, std::uint64_t b) const {
    return a % 97 < b % 97 || (a % 97 == b % 97 && a < b);
  }
};

/// std::less's order under a type of its own, so the sort keeps the
/// comparator path in round 0.
struct PlainLess {
  bool operator()(std::uint64_t a, std::uint64_t b) const { return a < b; }
};

/// The 3D maxima's order (geom/maxima3d.cpp).
struct SortByXDesc {
  bool operator()(const geom::Point3& a, const geom::Point3& b) const {
    return a.x > b.x;
  }
};

// The key type and the order alone choose round 0's kernel.
static_assert(algo::SampleSortProgram<std::uint64_t>::kRadixRound0);
static_assert(!algo::SampleSortProgram<std::uint64_t, ByMod>::kRadixRound0);
static_assert(
    !algo::SampleSortProgram<std::uint64_t, PlainLess>::kRadixRound0);
static_assert(!algo::SampleSortProgram<double>::kRadixRound0);
static_assert(
    !algo::SampleSortProgram<geom::Point3, SortByXDesc>::kRadixRound0);

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
  auto m = machine();
  auto keys = random_keys(4, 2000);
  auto dv = m.scatter<std::uint64_t>(keys);
  auto sorted = m.gather(
      algo::sample_sort<std::uint64_t, ByMod>(m, std::move(dv)));
  auto expect = keys;
  std::sort(expect.begin(), expect.end(), ByMod{});
  EXPECT_EQ(sorted, expect);
}

TEST_P(SortSuite, RadixAndComparatorPathsRunAlike) {
  // Round 0 of the uint64_t sort runs the radix kernel, that of the
  // PlainLess sort the comparator sort. Ties taken in another order would
  // move the splitters, and with them the message sizes the run check
  // compares.
  const std::size_t n = 4000;
  std::vector<std::vector<std::uint64_t>> inputs{
      random_keys(7, n), std::vector<std::uint64_t>(n, 42)};
  std::vector<std::uint64_t> fewvals(n);
  for (std::size_t i = 0; i < n; ++i) fewvals[i] = i % 3;
  inputs.push_back(fewvals);
  for (const auto& keys : inputs) {
    const auto run = [&keys](cgm::Machine& m, const cgm::Program& prog) {
      std::vector<cgm::PartitionSet> in;
      in.push_back(m.scatter<std::uint64_t>(keys).set);
      return m.run(prog, std::move(in));
    };
    auto radix = machine();
    auto plain = machine();
    const auto a = run(radix, algo::SampleSortProgram<std::uint64_t>{});
    const auto b =
        run(plain, algo::SampleSortProgram<std::uint64_t, PlainLess>{});
    EXPECT_TRUE(a == b) << "keys[1] = " << keys[1];
    EXPECT_EQ(cgm::run_mismatches(radix.last_result(), plain.last_result()),
              "")
        << "keys[1] = " << keys[1];
  }
}

TEST_P(SortSuite, RejectsSlotOfPartialItems) {
  // The last processor's slot holds 43 = 8 * 5 + 3 bytes, no whole number
  // of keys: both round-0 paths raise a typed Error naming its size.
  const auto run = [this](const cgm::Program& prog) {
    auto m = machine();
    auto in = m.scatter<std::uint64_t>(random_keys(8, 64 * m.v())).set;
    in.parts.back().resize(43);
    std::vector<cgm::PartitionSet> inputs;
    inputs.push_back(std::move(in));
    try {
      m.run(prog, std::move(inputs));
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  for (const std::string& what :
       {run(algo::SampleSortProgram<std::uint64_t>{}),
        run(algo::SampleSortProgram<std::uint64_t, PlainLess>{})}) {
    EXPECT_NE(what.find("byte range of 43 not a multiple of item size 8"),
              std::string::npos)
        << what;
  }
}

// ------------------------------------------------------------ radix sort --

namespace {

template <typename T>
class RadixSortKernel : public ::testing::Test {};

using RadixKeyTypes = ::testing::Types<std::uint8_t, std::uint16_t,
                                       std::uint32_t, std::uint64_t>;
TYPED_TEST_SUITE(RadixSortKernel, RadixKeyTypes);

/// `base` with byte `byte` (0 = least significant) replaced by b's low byte.
template <typename T>
T with_byte(T base, unsigned byte, std::uint64_t b) {
  const unsigned shift = 8 * byte;
  const std::uint64_t mask = std::uint64_t{0xFF} << shift;
  return static_cast<T>((std::uint64_t{base} & ~mask) | ((b & 0xFF) << shift));
}

/// n keys of each pattern the kernel test sorts. Between them they give
/// digits on which all keys agree, digits on which only some differ, and
/// many ties; the key types give one pass (uint8_t) and even pass counts.
template <typename T>
std::vector<std::pair<std::string, std::vector<T>>> radix_inputs(
    std::size_t n) {
  const T base = static_cast<T>(0xA5C3E1F00F1E3C5AULL);
  const unsigned top = sizeof(T) - 1;
  const unsigned mid = sizeof(T) / 2;
  Rng rng(n);
  std::vector<std::pair<std::string, std::vector<T>>> out;
  const auto add = [&](std::string name, auto key_of) {
    std::vector<T> keys(n);
    for (std::size_t i = 0; i < n; ++i) keys[i] = key_of(i);
    out.emplace_back(std::move(name), std::move(keys));
  };
  add("random", [&](std::size_t) { return static_cast<T>(rng.next()); });
  add("all equal", [&](std::size_t) { return base; });
  add("i % 3", [](std::size_t i) { return static_cast<T>(i % 3); });
  add("ascending", [](std::size_t i) { return static_cast<T>(i); });
  add("descending", [n](std::size_t i) { return static_cast<T>(n - i); });
  add("top byte varies",
      [&](std::size_t) { return with_byte(base, top, rng.next()); });
  add("bottom byte varies",
      [&](std::size_t) { return with_byte(base, 0, rng.next()); });
  add("middle byte varies",
      [&](std::size_t) { return with_byte(base, mid, rng.next()); });
  return out;
}

}  // namespace

TYPED_TEST(RadixSortKernel, MatchesComparatorSortItemForItem) {
  using T = TypeParam;
  using Item = algo::WithId<T>;
  const auto by_val_gid = [](const Item& a, const Item& b) {
    return a.val < b.val || (a.val == b.val && a.gid < b.gid);
  };
  for (std::size_t n : {0, 1, 2, 255, 256, 257, 4097, 65537}) {
    for (const auto& [name, keys] : radix_inputs<T>(n)) {
      const auto bytes = std::as_bytes(std::span<const T>(keys));
      for (std::uint32_t v : {1u, 5u, 16u}) {
        for (std::uint32_t pid : {0u, v - 1}) {
          std::vector<Item> want;
          want.reserve(n);
          for (std::size_t i = 0; i < n; ++i) {
            want.push_back(Item{keys[i], std::uint64_t{i} * v + pid});
          }
          std::sort(want.begin(), want.end(), by_val_gid);
          const auto got = algo::radix_sort_with_ids<T>(bytes, v, pid);
          ASSERT_EQ(got.size(), n) << name;
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_TRUE(got[i].val == want[i].val && got[i].gid == want[i].gid)
                << name << ", n " << n << ", v " << v << ", pid " << pid
                << ": item " << i << " is (" << std::uint64_t{got[i].val}
                << ", " << got[i].gid << "), want ("
                << std::uint64_t{want[i].val} << ", " << want[i].gid << ")";
          }
        }
      }
    }
  }
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
    // v = 5 and v = 6 are not powers of two: some pass of the sort's merge
    // round has an odd number of runs.
    ::testing::Values(SortParam{cgm::EngineKind::kNative, 4, 1},
                      SortParam{cgm::EngineKind::kNative, 16, 1},
                      SortParam{cgm::EngineKind::kNative, 5, 1},
                      SortParam{cgm::EngineKind::kEm, 4, 1},
                      SortParam{cgm::EngineKind::kEm, 8, 4},
                      SortParam{cgm::EngineKind::kEm, 6, 3},
                      SortParam{cgm::EngineKind::kEm, 1, 1}),
    [](const ::testing::TestParamInfo<SortParam>& info) {
      const auto& p = info.param;
      std::string s = p.kind == cgm::EngineKind::kNative ? "native" : "em";
      return s + "_v" + std::to_string(p.v) + "_p" + std::to_string(p.p);
    });
