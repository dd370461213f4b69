// In-memory CGM machine: all v virtual processors and all messages live in
// RAM. This is the conventional-parallel comparator of the paper's Fig. 3a
// and the reference implementation that the EM engine must match
// byte-for-byte (test suite invariant 4).
#pragma once

#include <memory>

#include "cgm/engine.h"

namespace emcgm::cgm {

class NativeEngine final : public Engine {
 public:
  explicit NativeEngine(MachineConfig cfg);
  ~NativeEngine() override;

  const MachineConfig& config() const override { return cfg_; }

  std::vector<PartitionSet> run(const Program& program,
                                std::vector<PartitionSet> inputs) override;

  const RunResult& last_result() const override { return last_; }
  const RunResult& total() const override { return total_; }

  const obs::Tracer* tracer() const override { return tracer_.get(); }
  const obs::MetricsRegistry* metrics() const override {
    return metrics_.get();
  }

 private:
  MachineConfig cfg_;
  RunResult last_;
  RunResult total_;
  // Observability (cfg_.obs.trace; both null when off). The native machine
  // has no disks: spans cover compute and delivery, and each physical
  // superstep gets one superstep span and one metrics row, which carries its
  // h-relation with zero I/O.
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
};

}  // namespace emcgm::cgm
