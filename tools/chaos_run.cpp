// chaos_run — drive the chaos harness from the command line.
//
//   chaos_run fuzz   [--seed S] [--plans N] [--p P] [--v V]
//                    [--io-threads W] [--threads] [--keys K]
//                    [--quota-min BYTES --quota-max BYTES]
//                    [--schedules] [--out DIR]
//       Run N seeded plans against the clean reference. Exit 0 when every
//       plan is bit-identical or a typed graceful failure; on findings,
//       auto-shrink each one and write the minimized plan JSON to
//       DIR/finding-<i>.json (default: current directory), exit 1.
//
//   chaos_run run    --plan FILE [--p P] [--v V] [--io-threads W]
//                    [--threads] [--keys K]
//       Replay one plan JSON (a repro artifact) and report the outcome.
//       Exit 0 on a benign outcome, 1 on a finding.
//
//   chaos_run shrink --plan FILE [--p P] [--v V] [--io-threads W]
//                    [--threads] [--keys K] [--out FILE]
//       Minimize a failing plan with ddmin and print / write the result.
//       Exits 2 if the plan does not fail (nothing to shrink).
//
// The machine shape flags must match between the failing fuzz run and the
// replay/shrink — a plan is only a repro on the shape that produced it.
#include <cstdint>
#include <iostream>
#include <string>

#include "chaos/fuzzer.h"
#include "chaos/plan.h"
#include "chaos/shrink.h"
#include "util/file.h"
#include "util/json.h"

using namespace emcgm;
using namespace emcgm::chaos;

namespace {

struct Args {
  std::string cmd;
  std::uint64_t seed = 1;
  std::uint32_t plans = 50;
  FuzzMachine machine;
  PlanShape shape;
  std::string plan_file;
  std::string out = ".";
  bool out_set = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "chaos_run: " << why << "\n"
            << "usage: chaos_run fuzz|run|shrink [options]\n"
            << "  common: --p P --v V --io-threads W --threads --keys K\n"
            << "  fuzz:   --seed S --plans N --quota-min B --quota-max B"
            << " --schedules --out DIR\n"
            << "  run:    --plan FILE\n"
            << "  shrink: --plan FILE --out FILE\n";
  std::exit(2);
}

template <typename T>
T num_arg(int argc, char** argv, int& i) {
  if (i + 1 >= argc) usage(std::string("missing value for ") + argv[i]);
  const std::string flag = argv[i];
  if (const auto v = json::parse_integer<T>(argv[++i])) return *v;
  usage("malformed value '" + std::string(argv[i]) + "' for " + flag);
}

std::string str_arg(int argc, char** argv, int& i) {
  if (i + 1 >= argc) usage(std::string("missing value for ") + argv[i]);
  return argv[++i];
}

Args parse(int argc, char** argv) {
  Args a;
  if (argc < 2) usage("missing command");
  a.cmd = argv[1];
  if (a.cmd != "fuzz" && a.cmd != "run" && a.cmd != "shrink") {
    usage("unknown command '" + a.cmd + "'");
  }
  for (int i = 2; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--seed") a.seed = num_arg<std::uint64_t>(argc, argv, i);
    else if (f == "--plans") a.plans = num_arg<std::uint32_t>(argc, argv, i);
    else if (f == "--p") a.machine.p = num_arg<std::uint32_t>(argc, argv, i);
    else if (f == "--v") a.machine.v = num_arg<std::uint32_t>(argc, argv, i);
    else if (f == "--io-threads") a.machine.io_threads = num_arg<std::uint32_t>(argc, argv, i);
    else if (f == "--threads") a.machine.use_threads = true;
    else if (f == "--keys") a.machine.keys = num_arg<std::size_t>(argc, argv, i);
    else if (f == "--quota-min") a.shape.quota_min_bytes = num_arg<std::uint64_t>(argc, argv, i);
    else if (f == "--quota-max") a.shape.quota_max_bytes = num_arg<std::uint64_t>(argc, argv, i);
    else if (f == "--schedules") a.shape.allow_schedule = true;
    else if (f == "--plan") a.plan_file = str_arg(argc, argv, i);
    else if (f == "--out") { a.out = str_arg(argc, argv, i); a.out_set = true; }
    else usage("unknown flag '" + f + "'");
  }
  a.shape.p = a.machine.p;
  return a;
}

void print_outcome(const FuzzOutcome& o) {
  std::cout << "outcome: " << to_string(o.status);
  if (!o.detail.empty()) std::cout << " — " << o.detail;
  std::cout << "\nplan (" << o.plan.events.size() << " events):\n"
            << o.plan.to_json();
}

int cmd_fuzz(const Args& a) {
  std::cout << "fuzzing " << a.plans << " plans, seed " << a.seed << ", p="
            << a.machine.p << " v=" << a.machine.v << " io_threads="
            << a.machine.io_threads
            << (a.machine.use_threads ? " threads" : " serial") << "\n";
  const FuzzReport report = fuzz(a.seed, a.plans, a.machine, a.shape);
  std::cout << report.summary() << "\n";
  if (report.ok()) return 0;
  const auto reference = run_reference(a.machine);
  int idx = 0;
  for (const FuzzOutcome& finding : report.findings) {
    std::cout << "\nfinding " << idx << ": " << to_string(finding.status)
              << " — " << finding.detail << "\n";
    // Shrink against "same status class still reproduces".
    const FuzzStatus want = finding.status;
    const auto still_fails = [&](const ChaosPlan& candidate) {
      return run_plan(candidate, a.machine, reference).status == want;
    };
    const ShrinkResult small = shrink(finding.plan, still_fails);
    std::cout << "shrunk " << finding.plan.events.size() << " -> "
              << small.plan.events.size() << " events in " << small.tests
              << " tests\n";
    const std::string path =
        a.out + "/finding-" + std::to_string(idx) + ".json";
    write_file(path, small.plan.to_json());
    std::cout << "minimized repro written to " << path << "\n";
    ++idx;
  }
  return 1;
}

int cmd_run(const Args& a) {
  if (a.plan_file.empty()) usage("run needs --plan FILE");
  const ChaosPlan plan = ChaosPlan::parse_json(read_file(a.plan_file));
  const auto reference = run_reference(a.machine);
  const FuzzOutcome out = run_plan(plan, a.machine, reference);
  print_outcome(out);
  return fuzz_ok(out.status) ? 0 : 1;
}

int cmd_shrink(const Args& a) {
  if (a.plan_file.empty()) usage("shrink needs --plan FILE");
  const ChaosPlan plan = ChaosPlan::parse_json(read_file(a.plan_file));
  const auto reference = run_reference(a.machine);
  const FuzzOutcome first = run_plan(plan, a.machine, reference);
  if (fuzz_ok(first.status)) {
    std::cout << "plan does not fail on this machine shape ("
              << to_string(first.status) << "); nothing to shrink\n";
    return 2;
  }
  const FuzzStatus want = first.status;
  const auto still_fails = [&](const ChaosPlan& candidate) {
    return run_plan(candidate, a.machine, reference).status == want;
  };
  const ShrinkResult small = shrink(plan, still_fails);
  std::cout << "shrunk " << plan.events.size() << " -> "
            << small.plan.events.size() << " events in " << small.tests
            << " tests\n";
  print_outcome(run_plan(small.plan, a.machine, reference));
  if (a.out_set) {
    write_file(a.out, small.plan.to_json());
    std::cout << "minimized repro written to " << a.out << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  try {
    if (a.cmd == "fuzz") return cmd_fuzz(a);
    if (a.cmd == "run") return cmd_run(a);
    return cmd_shrink(a);
  } catch (const std::exception& e) {
    std::cerr << "chaos_run: " << e.what() << "\n";
    return 2;
  }
}
