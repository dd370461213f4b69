// User-facing entry point: a Machine owns an engine (native CGM or EM-CGM
// simulation) and provides typed scatter/gather between ordinary vectors
// and distributed partitions.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "cgm/engine.h"
#include "util/math.h"

namespace emcgm::cgm {

enum class EngineKind {
  kNative,  ///< in-memory CGM machine (Fig. 3a comparator)
  kEm,      ///< EM-CGM simulation (the paper's Algorithms 2–3)
};

/// A vector of T distributed over the v virtual processors in even
/// contiguous chunks (virtual processor j holds global indices
/// [chunk_begin(n,v,j), chunk_begin(n,v,j+1))).
template <typename T>
struct DistVec {
  PartitionSet set;
  std::uint64_t total = 0;

  std::vector<T> part(std::uint32_t j) const {
    return bytes_to_vec<T>(set.parts.at(j));
  }
};

class Machine {
 public:
  Machine(EngineKind kind, MachineConfig cfg);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  Engine& engine() { return *engine_; }
  const MachineConfig& config() const { return engine_->config(); }
  std::uint32_t v() const { return config().v; }

  std::vector<PartitionSet> run(const Program& program,
                                std::vector<PartitionSet> inputs) {
    return engine_->run(program, std::move(inputs));
  }

  const RunResult& last_result() const { return engine_->last_result(); }
  const RunResult& total() const { return engine_->total(); }

  /// Split data into v even contiguous chunks.
  template <typename T>
  DistVec<T> scatter(std::span<const T> data) const {
    return DistVec<T>{even_chunks(data, v()), data.size()};
  }

  template <typename T>
  DistVec<T> scatter(const std::vector<T>& data) const {
    return scatter(std::span<const T>(data));
  }

  /// Concatenate all partitions back into one vector.
  template <typename T>
  std::vector<T> gather(const DistVec<T>& dv) const {
    std::vector<T> out;
    out.reserve(dv.total);
    for (const auto& part : dv.set.parts) {
      auto v = bytes_to_vec<T>(part);
      out.insert(out.end(), v.begin(), v.end());
    }
    return out;
  }

  /// Wrap an engine output slot as a typed distributed vector.
  template <typename T>
  static DistVec<T> as_dist(PartitionSet set) {
    DistVec<T> dv;
    dv.total = 0;
    for (const auto& p : set.parts) dv.total += p.size() / sizeof(T);
    dv.set = std::move(set);
    return dv;
  }

 private:
  std::unique_ptr<Engine> engine_;
};

}  // namespace emcgm::cgm
