// Observability subsystem: the two hard guarantees and the exporters.
//
//  * Zero-interference: with obs.trace off (the default) the engines hold
//    no tracer at all; with it on, the outputs are bit-identical to the
//    untraced run and the run check (cgm::run_mismatches) names nothing,
//    across p and threading modes. The trace observes the schedule; it must
//    never perturb it.
//  * Structural determinism: the merged span structure (kinds, coordinates,
//    nesting, aux payloads, I/O deltas — everything except wall-clock
//    timestamps) is identical between use_threads on and off, because each
//    shard is written by exactly one thread and shards merge in canonical
//    order (DESIGN.md §11).
//
// Plus: span nesting matches the superstep structure of Algorithms 2/3,
// the Chrome trace and metrics JSON are well-formed, and the metrics rows
// reconcile with RunResult (the S6 barrier-owned counter invariant).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algo/sort.h"
#include "cgm/native_engine.h"
#include "emcgm/em_engine.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pdm/cost_model.h"
#include "util/file.h"
#include "util/rng.h"

using namespace emcgm;

namespace {

std::vector<cgm::PartitionSet> sort_inputs(
    std::uint32_t v, const std::vector<std::uint64_t>& keys) {
  cgm::PartitionSet input;
  input.parts.resize(v);
  const std::size_t n = keys.size();
  for (std::uint32_t j = 0; j < v; ++j) {
    const std::size_t b = n * j / v, e = n * (j + 1) / v;
    input.parts[j] = vec_to_bytes(
        std::vector<std::uint64_t>(keys.begin() + b, keys.begin() + e));
  }
  std::vector<cgm::PartitionSet> inputs;
  inputs.push_back(std::move(input));
  return inputs;
}

cgm::MachineConfig em_cfg(std::uint32_t v, std::uint32_t p, bool threads,
                          bool trace) {
  cgm::MachineConfig cfg;
  cfg.v = v;
  cfg.p = p;
  cfg.disk.num_disks = 2;
  cfg.disk.block_bytes = 512;
  cfg.use_threads = threads;
  cfg.obs.trace = trace;
  if (p > 1) {
    cfg.net.enabled = true;
    cfg.checkpointing = true;  // exercise commit + net spans too
  }
  return cfg;
}

/// A sort's outputs and run statistics.
std::pair<std::vector<cgm::PartitionSet>, cgm::RunResult> run_em(
    const cgm::MachineConfig& cfg, const std::vector<std::uint64_t>& keys,
    const em::EmEngine** engine_out = nullptr) {
  // Engines whose tracer/metrics a caller wants to inspect must outlive the
  // call; park them here for the lifetime of the test binary.
  static std::vector<std::unique_ptr<em::EmEngine>> keep_alive;
  algo::SampleSortProgram<std::uint64_t> prog;
  auto e = std::make_unique<em::EmEngine>(cfg);
  auto out = e->run(prog, sort_inputs(cfg.v, keys));
  std::pair<std::vector<cgm::PartitionSet>, cgm::RunResult> run{
      std::move(out), e->last_result()};
  if (engine_out) {
    *engine_out = e.get();
    keep_alive.push_back(std::move(e));
  }
  return run;
}

/// The structural fingerprint of a span: everything except timestamps.
struct SpanShape {
  obs::SpanKind kind;
  std::uint16_t depth;
  std::uint32_t host, track;
  std::int64_t group, vproc;
  std::uint64_t step, round, aux0, aux1;
  pdm::IoStats io;

  friend bool operator==(const SpanShape&, const SpanShape&) = default;
};

std::vector<SpanShape> shapes(const std::vector<obs::Span>& spans) {
  std::vector<SpanShape> out;
  out.reserve(spans.size());
  for (const auto& s : spans) {
    out.push_back({s.kind, s.depth, s.host, s.track, s.group, s.vproc, s.step,
                   s.round, s.aux0, s.aux1, s.io});
  }
  return out;
}

std::uint64_t count_kind(const std::vector<obs::Span>& spans,
                         obs::SpanKind k) {
  std::uint64_t n = 0;
  for (const auto& s : spans) n += s.kind == k;
  return n;
}

/// Minimal well-formedness check: braces/brackets balance outside strings,
/// strings terminate, nothing trails the root value. (The full schema check
/// lives in tools/validate_trace.py, which CI runs on real trace output.)
bool json_balanced(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false, escaped = false, root_closed = false;
  for (char ch : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (ch == '\\') {
        escaped = true;
      } else if (ch == '"') {
        in_string = false;
      }
      continue;
    }
    switch (ch) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        if (root_closed) return false;
        stack.push_back(ch);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        root_closed = stack.empty();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        root_closed = stack.empty();
        break;
      default:
        break;
    }
  }
  return !in_string && stack.empty() && root_closed;
}

}  // namespace

// ------------------------------------------------------- zero-interference --

TEST(Obs, DisabledEngineHoldsNoTracer) {
  em::EmEngine e(em_cfg(8, 1, false, false));
  EXPECT_EQ(e.tracer(), nullptr);
  EXPECT_EQ(e.metrics(), nullptr);
  cgm::NativeEngine n(em_cfg(8, 1, false, false));
  EXPECT_EQ(n.tracer(), nullptr);
  EXPECT_EQ(n.metrics(), nullptr);
}

TEST(Obs, TracingOffIsBitIdentical) {
  // p in {1, 2, 4} x threads off/on (threads need p > 1): tracing must not
  // move one output byte or one counter anywhere.
  const auto keys = random_keys(515, 1500);
  for (std::uint32_t p : {1u, 2u, 4u}) {
    for (bool threads : {false, true}) {
      if (threads && p == 1) continue;
      const auto [plain_out, plain] =
          run_em(em_cfg(8, p, threads, false), keys);
      const auto [traced_out, traced] =
          run_em(em_cfg(8, p, threads, true), keys);
      EXPECT_TRUE(plain_out == traced_out)
          << "p=" << p << " threads=" << threads;
      EXPECT_EQ(cgm::run_mismatches(plain, traced), "")
          << "p=" << p << " threads=" << threads;
    }
  }
}

// --------------------------------------------------------- span structure --

TEST(Obs, SpanNestingMatchesSuperstepStructure) {
  const auto keys = random_keys(616, 1500);
  const std::uint32_t v = 8, p = 2;
  const em::EmEngine* engine = nullptr;
  const auto c = run_em(em_cfg(v, p, false, true), keys, &engine).second;
  ASSERT_NE(engine->tracer(), nullptr);
  const auto& tracer = *engine->tracer();

  // Every shard closed everything it opened.
  for (const auto& shard : tracer.shards()) {
    EXPECT_TRUE(shard.balanced());
  }

  const auto spans = tracer.merged();
  ASSERT_FALSE(spans.empty());

  // Every virtual processor computes exactly once per application round.
  EXPECT_EQ(count_kind(spans, obs::SpanKind::kCompute), c.app_rounds * v);
  // ...and its context is read back in before each compute.
  EXPECT_EQ(count_kind(spans, obs::SpanKind::kContextRead), c.app_rounds * v);
  // The physical-superstep backbone matches the per-step I/O attribution.
  EXPECT_GE(count_kind(spans, obs::SpanKind::kSuperstep), c.app_rounds);
  // p = 2 with checkpointing: commits and net rounds happened and traced.
  EXPECT_GE(count_kind(spans, obs::SpanKind::kCommit), 1u);
  EXPECT_GE(count_kind(spans, obs::SpanKind::kNetPost), 1u);
  EXPECT_GE(count_kind(spans, obs::SpanKind::kNetCollect), 1u);
  EXPECT_GE(count_kind(spans, obs::SpanKind::kNetPair), 1u);
  EXPECT_EQ(count_kind(spans, obs::SpanKind::kOutputCollect), 1u);

  std::uint64_t last_superstep = 0;
  pdm::IoStats group_io;
  for (const auto& s : spans) {
    // Coordinates stay inside the machine.
    EXPECT_LE(s.host, tracer.engine_pid());
    EXPECT_LT(s.group, static_cast<std::int64_t>(v));
    EXPECT_LT(s.vproc, static_cast<std::int64_t>(v));
    switch (s.kind) {
      case obs::SpanKind::kSuperstep:
        // Backbone spans live on the engine shard at depth 0, and the
        // physical clock never runs backwards.
        EXPECT_EQ(s.host, tracer.engine_pid());
        EXPECT_EQ(s.depth, 0u);
        EXPECT_GE(s.step, last_superstep);
        last_superstep = s.step;
        break;
      case obs::SpanKind::kContextRead:
      case obs::SpanKind::kInboxRead:
      case obs::SpanKind::kCompute:
      case obs::SpanKind::kContextWrite:
        // Per-vproc phases nest inside their group_step span (except the
        // initial context scatter, which runs before any group span).
        if (s.vproc >= 0) {
          EXPECT_GE(s.depth, 1u) << "kind " << int(s.kind);
        }
        break;
      default:
        break;
    }
    if (s.kind == obs::SpanKind::kGroupStep) group_io += s.io;
  }
  // The group-level spans attributed real parallel I/O by delta.
  EXPECT_GT(group_io.total_ops(), 0u);
}

TEST(Obs, StructureDeterministicAcrossThreading) {
  // The merged span structure — everything but timestamps — must be
  // bit-identical between serial and threaded execution (shard-merge
  // determinism, DESIGN.md §11).
  const auto keys = random_keys(717, 1500);
  const em::EmEngine* serial = nullptr;
  const em::EmEngine* threaded = nullptr;
  run_em(em_cfg(8, 4, false, true), keys, &serial);
  run_em(em_cfg(8, 4, true, true), keys, &threaded);
  ASSERT_NE(serial->tracer(), nullptr);
  ASSERT_NE(threaded->tracer(), nullptr);
  EXPECT_EQ(shapes(serial->tracer()->merged()),
            shapes(threaded->tracer()->merged()));
}

TEST(Obs, AsyncIoDeltasRepeatAcrossRuns) {
  // With executor workers, the I/O counters a span takes its delta from are
  // applied when ops are reaped. Each wait reaps exactly the ops up to its
  // ticket, so the deltas repeat from run to run even while a jittering
  // retry hook shifts the workers' timing.
  const auto keys = random_keys(919, 4000);
  cgm::MachineConfig cfg = em_cfg(8, 1, false, true);
  cfg.disk.num_disks = 4;
  cfg.io_threads = 4;
  cfg.checksums = true;
  cfg.retry.max_attempts = 8;
  cfg.fault.seed = 31;
  cfg.fault.transient_read_prob = 0.05;
  cfg.fault.transient_write_prob = 0.05;
  cfg.retry.sleep = [](std::uint64_t) {
    thread_local Rng rng(
        std::hash<std::thread::id>{}(std::this_thread::get_id()));
    std::this_thread::sleep_for(std::chrono::microseconds(rng.next_below(60)));
  };
  const em::EmEngine* first = nullptr;
  const auto [out, run] = run_em(cfg, keys, &first);
  EXPECT_GT(run.io.retries, 0u) << "the fault plan never fired the hook";
  for (int rep = 0; rep < 2; ++rep) {
    const em::EmEngine* again = nullptr;
    const auto [out_again, run_again] = run_em(cfg, keys, &again);
    EXPECT_TRUE(out == out_again) << "rerun " << rep;
    EXPECT_EQ(cgm::run_mismatches(run, run_again), "") << "rerun " << rep;
    EXPECT_EQ(shapes(first->tracer()->merged()),
              shapes(again->tracer()->merged()))
        << "rerun " << rep;
  }
}

// ---------------------------------------------------------------- metrics --

TEST(Obs, MetricsReconcileWithRunResult) {
  const auto keys = random_keys(818, 1500);
  const em::EmEngine* engine = nullptr;
  const auto c = run_em(em_cfg(8, 2, false, true), keys, &engine).second;
  ASSERT_NE(engine->metrics(), nullptr);
  const auto& m = *engine->metrics();

  // One metrics row per physical superstep, same deltas the engine reports.
  ASSERT_EQ(m.steps().size(), c.io_per_step.size());
  EXPECT_EQ(m.total_io(), c.io);
  for (std::size_t i = 0; i < m.steps().size(); ++i) {
    const auto& row = m.steps()[i];
    EXPECT_EQ(row.io, c.io_per_step[i]) << "step " << i;
    EXPECT_GE(row.wall_s, 0.0);
    const std::string phase = row.phase;
    EXPECT_TRUE(phase == "compute" || phase == "regroup" ||
                phase == "final" || phase == "output")
        << phase;
    // Predicted PDM cost: G x ops under the disk service-time model.
    const double want =
        pdm::DiskCostModel{}.io_seconds(row.io, 512);
    EXPECT_DOUBLE_EQ(row.model_io_s, want) << "step " << i;
    if (row.io.total_ops() > 0) {
      EXPECT_GT(row.model_io_s, 0.0);
    }
  }
  // Wire activity attributed per step sums to the run total.
  net::NetStats net_sum;
  for (const auto& row : m.steps()) net_sum += row.net;
  EXPECT_EQ(net_sum, c.net);
}

// -------------------------------------------------------------- exporters --

TEST(Obs, TraceJsonWellFormed) {
  const auto keys = random_keys(919, 1500);
  const em::EmEngine* engine = nullptr;
  run_em(em_cfg(8, 2, false, true), keys, &engine);
  const std::string dir = "/tmp/emcgm_obs_export";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string tpath = dir + "/run.trace.json";
  const std::string mpath = obs::metrics_path_for(tpath);
  EXPECT_EQ(mpath, dir + "/run.trace.metrics.json");

  obs::write_chrome_trace(tpath, *engine->tracer(), engine->metrics());
  obs::write_metrics_json(mpath, *engine->metrics(), 2, 512);

  const std::string trace = read_file(tpath);
  ASSERT_FALSE(trace.empty());
  EXPECT_TRUE(json_balanced(trace));
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"displayTimeUnit\""), std::string::npos);
  // Process/thread naming metadata and all three event types are present.
  EXPECT_NE(trace.find("\"process_name\""), std::string::npos);
  EXPECT_NE(trace.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"C\""), std::string::npos);
  // The acceptance span kinds all materialized.
  for (const char* name :
       {"context_read", "inbox_read", "compute", "outbox_write",
        "context_write", "net_post", "net_collect", "commit"}) {
    EXPECT_NE(trace.find(std::string("\"name\":\"") + name + "\""),
              std::string::npos)
        << name;
  }

  const std::string metrics = read_file(mpath);
  ASSERT_FALSE(metrics.empty());
  EXPECT_TRUE(json_balanced(metrics));
  EXPECT_NE(metrics.find(std::string("\"") + obs::kMetricsSchema + "\""),
            std::string::npos);
  EXPECT_NE(metrics.find("\"predicted_io_s\""), std::string::npos);
  EXPECT_NE(metrics.find("\"wall_s\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(Obs, ExportersReportAFailedWrite) {
  // fprintf buffers, so a full device may only show when the file is
  // flushed or closed; the exporters must not return normally past it.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const auto keys = random_keys(919, 1500);
  const em::EmEngine* engine = nullptr;
  run_em(em_cfg(8, 2, false, true), keys, &engine);
  const auto expect_error_naming_path = [](const auto& write) {
    try {
      write();
      ADD_FAILURE() << "writing /dev/full returned normally";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
          << e.what();
    }
  };
  expect_error_naming_path([&] {
    obs::write_chrome_trace("/dev/full", *engine->tracer(), engine->metrics());
  });
  expect_error_naming_path([&] {
    obs::write_metrics_json("/dev/full", *engine->metrics(), 2, 512);
  });
}

TEST(Obs, FileHelpersNameThePathOnFailure) {
  // The one write and the one read every exporter, bench and tool uses:
  // a full device and a missing file are typed errors naming the path.
  const auto expect_system_error = [](const std::string& path,
                                      const auto& access) {
    try {
      access();
      ADD_FAILURE() << path << ": returned normally";
    } catch (const IoError& e) {
      EXPECT_EQ(e.kind(), IoErrorKind::kSystem);
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
  };
  if (std::filesystem::exists("/dev/full")) {
    expect_system_error("/dev/full", [] { write_file("/dev/full", "{}\n"); });
  }
  const std::string missing = "/tmp/emcgm_obs_no_such_dir/missing.json";
  std::filesystem::remove_all("/tmp/emcgm_obs_no_such_dir");
  expect_system_error(missing, [&] { read_file(missing); });
  expect_system_error(missing, [&] { write_file(missing, "{}\n"); });
}

// ------------------------------------------- S6: barrier-owned invariant ---

TEST(ObsThreaded, ShardCountersBarrierInvariant) {
  // The documented counter discipline (io_stats.h / comm_stats.h /
  // net_stats.h): shard-merged counters are written by one thread per shard
  // and merged at barriers; barrier-owned counters only ever change on the
  // main thread. Consequence asserted here: every per-step stat triple is
  // bit-identical between serial and threaded runs even with tracing on and
  // a lossy network forcing retransmissions.
  const auto keys = random_keys(229, 1500);
  auto lossy = [&](bool threads) {
    auto cfg = em_cfg(8, 4, threads, true);
    cfg.net.fault.seed = 42;
    cfg.net.fault.drop_prob = 0.05;
    cfg.net.fault.dup_prob = 0.02;
    cfg.net.fault.reorder_prob = 0.05;
    cfg.net.retry.max_attempts = 16;
    return cfg;
  };
  const auto [serial_out, serial] = run_em(lossy(false), keys);
  const auto [threaded_out, threaded] = run_em(lossy(true), keys);
  EXPECT_GT(serial.net.retransmissions, 0u);
  EXPECT_TRUE(serial_out == threaded_out);
  EXPECT_EQ(cgm::run_mismatches(serial, threaded), "");
}

// ---------------------------------------------------------- native engine --

TEST(Obs, NativeEngineTraces) {
  const auto keys = random_keys(331, 1500);
  algo::SampleSortProgram<std::uint64_t> prog;

  cgm::NativeEngine plain(em_cfg(8, 1, false, false));
  const auto expected = plain.run(prog, sort_inputs(8, keys));

  cgm::NativeEngine traced(em_cfg(8, 1, false, true));
  const auto got = traced.run(prog, sort_inputs(8, keys));
  EXPECT_TRUE(expected == got);

  ASSERT_NE(traced.tracer(), nullptr);
  const auto spans = traced.tracer()->merged();
  EXPECT_EQ(count_kind(spans, obs::SpanKind::kCompute),
            traced.last_result().app_rounds * 8);
  EXPECT_GE(count_kind(spans, obs::SpanKind::kSuperstep),
            traced.last_result().app_rounds);
  EXPECT_GE(count_kind(spans, obs::SpanKind::kDeliver), 1u);
  ASSERT_NE(traced.metrics(), nullptr);
  EXPECT_GE(traced.metrics()->steps().size(),
            traced.last_result().app_rounds);
}
