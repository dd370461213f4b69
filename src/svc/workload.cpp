#include "svc/workload.h"

#include <algorithm>
#include <cstring>

#include "algo/sort.h"
#include "geom/maxima3d.h"
#include "geom/point.h"
#include "graph/graph.h"
#include "graph/list_ranking.h"
#include "util/archive.h"
#include "util/error.h"
#include "util/rng.h"

namespace emcgm::svc {

namespace {

template <typename T>
std::vector<cgm::PartitionSet> scatter_one(const std::vector<T>& items,
                                           std::uint32_t v) {
  std::vector<cgm::PartitionSet> inputs;
  inputs.push_back(cgm::even_chunks<T>(items, v));
  return inputs;
}

/// Uniform random keys, totally sorted by the 6-round sample sort.
class SortWorkload final : public Workload {
 public:
  SortWorkload(std::uint64_t n, std::uint64_t seed) : n_(n), seed_(seed) {}

  const char* kind() const override { return "sort"; }
  std::uint32_t stages() const override { return 1; }

  std::unique_ptr<cgm::Program> program(std::uint32_t,
                                        std::uint64_t) const override {
    return std::make_unique<algo::SampleSortProgram<std::uint64_t>>();
  }

  std::vector<cgm::PartitionSet> initial_inputs(
      std::uint32_t v) const override {
    return scatter_one(random_keys(seed_, n_), v);
  }

  void check(const std::vector<cgm::PartitionSet>& outs) const override {
    EMCGM_CHECK_MSG(outs.size() == 1, "sort: expected one output slot");
    std::uint64_t count = 0;
    bool have_prev = false;
    std::uint64_t prev = 0;
    for (const auto& part : outs[0].parts) {
      for (std::uint64_t k : bytes_to_vec<std::uint64_t>(part)) {
        EMCGM_CHECK_MSG(!have_prev || prev <= k, "sort: output not sorted");
        prev = k;
        have_prev = true;
        ++count;
      }
    }
    EMCGM_CHECK_MSG(count == n_, "sort: output lost or grew items");
  }

 private:
  std::uint64_t n_, seed_;
};

/// A random forest of linked lists, ranked by ruling-set contraction.
class ListRankWorkload final : public Workload {
 public:
  ListRankWorkload(std::uint64_t n, std::uint64_t seed)
      : n_(n), seed_(seed) {}

  const char* kind() const override { return "list_rank"; }
  std::uint32_t stages() const override { return 1; }

  std::unique_ptr<cgm::Program> program(std::uint32_t,
                                        std::uint64_t seed) const override {
    return graph::make_list_rank_program(n_, seed, false);
  }

  std::vector<cgm::PartitionSet> initial_inputs(
      std::uint32_t v) const override {
    auto nodes = graph::random_list(seed_, n_);
    std::sort(nodes.begin(), nodes.end(),
              [](const graph::ListNode& a, const graph::ListNode& b) {
                return a.id < b.id;
              });
    return scatter_one(nodes, v);
  }

  void check(const std::vector<cgm::PartitionSet>& outs) const override {
    EMCGM_CHECK_MSG(outs.size() == 1, "list_rank: expected one output slot");
    std::uint64_t count = 0;
    for (const auto& part : outs[0].parts) {
      for (const auto& r : bytes_to_vec<graph::ListRank>(part)) {
        EMCGM_CHECK_MSG(r.rank < n_, "list_rank: rank out of range");
        ++count;
      }
    }
    EMCGM_CHECK_MSG(count == n_, "list_rank: output lost or grew nodes");
  }

 private:
  std::uint64_t n_, seed_;
};

/// Random 3D points: sort by x descending, then staircase-filter maxima.
class MaximaWorkload final : public Workload {
 public:
  MaximaWorkload(std::uint64_t n, std::uint64_t seed) : n_(n), seed_(seed) {}

  const char* kind() const override { return "maxima"; }
  std::uint32_t stages() const override { return 2; }

  std::unique_ptr<cgm::Program> program(std::uint32_t s,
                                        std::uint64_t) const override {
    return s == 0 ? geom::make_maxima_sort_program()
                  : geom::make_maxima_program();
  }

  std::vector<cgm::PartitionSet> initial_inputs(
      std::uint32_t v) const override {
    return scatter_one(geom::random_points3(seed_, n_), v);
  }

  void check(const std::vector<cgm::PartitionSet>& outs) const override {
    EMCGM_CHECK_MSG(outs.size() == 1, "maxima: expected one output slot");
    // Maxima arrive in descending-x order across the partition sequence.
    std::uint64_t count = 0;
    bool have_prev = false;
    double prev_x = 0;
    for (const auto& part : outs[0].parts) {
      for (const auto& p : bytes_to_vec<geom::Point3>(part)) {
        EMCGM_CHECK_MSG(!have_prev || p.x < prev_x,
                        "maxima: output not x-descending");
        prev_x = p.x;
        have_prev = true;
        ++count;
      }
    }
    EMCGM_CHECK_MSG(count >= 1 && count <= n_, "maxima: empty or oversized");
  }

 private:
  std::uint64_t n_, seed_;
};

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& kind,
                                        std::uint64_t n, std::uint64_t seed) {
  if (kind == "sort") return std::make_unique<SortWorkload>(n, seed);
  if (kind == "list_rank") return std::make_unique<ListRankWorkload>(n, seed);
  if (kind == "maxima") return std::make_unique<MaximaWorkload>(n, seed);
  throw IoError(IoErrorKind::kConfig,
                "unknown workload '" + kind +
                    "' (know: sort, list_rank, maxima)");
}

std::uint64_t output_hash(const std::vector<cgm::PartitionSet>& outs) {
  std::uint64_t h = kFnvOffset;
  for (const auto& slot : outs) {
    for (const auto& part : slot.parts) {
      for (std::byte b : part) {
        h ^= static_cast<std::uint64_t>(b);
        h *= kFnvPrime;
      }
    }
  }
  return h;
}

std::vector<std::vector<std::byte>> chunk_parts(const std::byte* data,
                                                std::size_t bytes,
                                                std::size_t item_size,
                                                std::uint32_t v) {
  return cgm::even_chunks(std::span(data, bytes), item_size, v).parts;
}

}  // namespace emcgm::svc
