// The run check (engine.h): which parts of a run must repeat.
#include "cgm/engine.h"

#include <algorithm>

namespace emcgm::cgm {

namespace {

// A field added to RunResult fails this until run_mismatches decides
// whether it must repeat.
static_assert(sizeof(RunResult) ==
              4 * sizeof(std::uint64_t) + sizeof(CommStats) +
                  sizeof(pdm::IoStats) + sizeof(std::vector<pdm::IoStats>) +
                  sizeof(net::NetStats) + sizeof(double));

template <class Row>
void note_rows(std::string& out, const std::string& name,
               const std::vector<Row>& a, const std::vector<Row>& b) {
  note_mismatch(out, name + " rows", a.size(), b.size());
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (a[i] != b[i]) note_mismatch(out, name + "[" + std::to_string(i) + "]");
  }
}

}  // namespace

void note_mismatch(std::string& text, const std::string& entry) {
  if (!entry.empty()) text += (text.empty() ? "" : "; ") + entry;
}

void note_mismatch(std::string& text, const std::string& name,
                   std::uint64_t a, std::uint64_t b) {
  if (a == b) return;
  note_mismatch(text, name + " " + std::to_string(a) + " != " +
                          std::to_string(b));
}

std::string run_mismatches(const RunResult& a, const RunResult& b) {
  std::string out;
  note_mismatch(out, "app_rounds", a.app_rounds, b.app_rounds);
  note_mismatch(out, "comm_steps", a.comm_steps, b.comm_steps);
  note_rows(out, "comm.steps", a.comm.steps, b.comm.steps);
  if (a.io != b.io) note_mismatch(out, "io");
  note_rows(out, "io_per_step", a.io_per_step, b.io_per_step);
  if (a.net != b.net) note_mismatch(out, "net");
  note_mismatch(out, "failovers", a.failovers, b.failovers);
  note_mismatch(out, "rejoins", a.rejoins, b.rejoins);
  return out;
}

}  // namespace emcgm::cgm
