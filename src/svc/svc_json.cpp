#include "svc/svc_json.h"

#include <charconv>
#include <string_view>

#include "util/error.h"
#include "util/json.h"

namespace emcgm::svc {

namespace {

JobSpec parse_job(json::Reader& r) {
  JobSpec j;
  r.object([&](const std::string& key) {
    if (key == "name") {
      j.name = r.string();
    } else if (key == "workload") {
      j.workload = r.string();
    } else if (key == "n") {
      j.n = r.integer<std::uint64_t>();
    } else if (key == "seed") {
      j.seed = r.integer<std::uint64_t>();
    } else if (key == "v") {
      j.v = r.integer<std::uint32_t>();
    } else if (key == "hosts") {
      j.hosts = r.integer<std::uint32_t>();
    } else if (key == "disks") {
      j.disks = r.integer<std::uint32_t>();
    } else if (key == "priority") {
      j.priority = r.integer<std::uint32_t>();
    } else if (key == "arrival_tick") {
      j.arrival_tick = r.integer<std::uint64_t>();
    } else if (key == "use_threads") {
      j.use_threads = r.boolean();
    } else if (key == "io_threads") {
      j.io_threads = r.integer<std::uint32_t>();
    } else if (key == "prefetch_depth") {
      j.prefetch_depth = r.integer<std::uint32_t>();
    } else if (key == "chaos") {
      j.chaos_json = r.raw_object();
    } else {
      r.fail("unknown job field '" + key + "'");
    }
  });
  return j;
}

void parse_pool(json::Reader& r, PoolConfig& pool) {
  r.object([&](const std::string& key) {
    if (key == "hosts") {
      pool.hosts = r.integer<std::uint32_t>();
    } else if (key == "disks_per_host") {
      pool.disks_per_host = r.integer<std::uint32_t>();
    } else if (key == "block_bytes") {
      pool.block_bytes = r.integer<std::size_t>();
    } else if (key == "placement") {
      const std::string policy = r.string();
      if (policy == "pack") {
        pool.placement = PlacementPolicy::kPack;
      } else if (policy == "spread") {
        pool.placement = PlacementPolicy::kSpread;
      } else {
        r.fail("unknown placement policy '" + policy +
               "' (want \"pack\" or \"spread\")");
      }
    } else {
      r.fail("unknown pool field '" + key + "'");
    }
  });
}

void parse_chaos(json::Reader& r, ServiceSpec& spec) {
  chaos::PlanShape& sh = spec.chaos_shape;
  r.object([&](const std::string& key) {
    if (key == "seed") {
      spec.chaos_seed = r.integer<std::uint64_t>();
    } else if (key == "target_tenant") {
      sh.target_tenant = r.integer<std::int32_t>();
    } else if (key == "max_events") {
      sh.max_events = r.integer<std::uint32_t>();
    } else if (key == "max_disk_op") {
      sh.max_disk_op = r.integer<std::uint64_t>();
    } else if (key == "max_step") {
      sh.max_step = r.integer<std::uint64_t>();
    } else if (key == "max_prob") {
      sh.max_prob = r.number();
    } else if (key == "quota_min_bytes") {
      sh.quota_min_bytes = r.integer<std::uint64_t>();
    } else if (key == "quota_max_bytes") {
      sh.quota_max_bytes = r.integer<std::uint64_t>();
    } else if (key == "allow_disk_crash") {
      sh.allow_disk_crash = r.boolean();
    } else if (key == "allow_kill") {
      sh.allow_kill = r.boolean();
    } else if (key == "allow_rejoin") {
      sh.allow_rejoin = r.boolean();
    } else if (key == "allow_schedule") {
      sh.allow_schedule = r.boolean();
    } else {
      r.fail("unknown chaos field '" + key + "'");
    }
  });
}

}  // namespace

ServiceSpec parse_service_json(const std::string& text) {
  json::Reader r(text, "job file");
  ServiceSpec spec;
  r.object([&](const std::string& key) {
    if (key == "pool") {
      parse_pool(r, spec.service.pool);
    } else if (key == "quantum_bytes") {
      spec.service.quantum_bytes = r.integer<std::uint64_t>();
    } else if (key == "workers") {
      spec.service.workers = r.integer<std::uint32_t>();
    } else if (key == "trace") {
      spec.service.trace = r.boolean();
    } else if (key == "jobs") {
      r.array([&] { spec.jobs.push_back(parse_job(r)); });
    } else if (key == "chaos") {
      parse_chaos(r, spec);
    } else {
      r.fail("unknown key '" + key + "'");
    }
  });
  r.finish();
  if (spec.jobs.empty()) r.fail("no jobs");
  return spec;
}

void arm_service_chaos(ServiceSpec& spec) {
  if (spec.chaos_seed == 0) return;
  const std::int32_t t = spec.chaos_shape.target_tenant;
  if (t < 0 || static_cast<std::size_t>(t) >= spec.jobs.size()) {
    throw IoError(IoErrorKind::kConfig,
                  "chaos target_tenant " + std::to_string(t) + " outside 0.." +
                      std::to_string(spec.jobs.size() - 1));
  }
  JobSpec& target = spec.jobs[static_cast<std::size_t>(t)];
  if (!target.chaos_json.empty()) {
    throw IoError(IoErrorKind::kConfig,
                  "job '" + target.name +
                      "' already carries a per-job chaos plan; refusing to"
                      " overwrite it with the service-level campaign");
  }
  // The generated plan draws over the *target's* machine, not the pool.
  chaos::PlanShape shape = spec.chaos_shape;
  shape.p = target.hosts;
  target.chaos_json =
      chaos::ChaosPlan::generate(spec.chaos_seed, shape).to_json();
}

std::string results_json(const std::vector<JobResult>& results,
                         std::uint64_t ticks) {
  json::Writer w;
  w.begin_object().field("ticks", ticks).key("jobs").begin_array();
  for (const JobResult& r : results) {
    char hash[18] = "0x";
    const char* end = std::to_chars(hash + 2, hash + 18, r.output_hash, 16).ptr;
    w.begin_object().field("name", r.name).field("ok", r.ok);
    w.field("error", r.error).field("output_hash", std::string_view(hash, end));
    w.field("supersteps", r.supersteps).field("preemptions", r.preemptions);
    w.field("admit_tick", r.admit_tick).field("end_tick", r.end_tick);
    w.field("charged_bytes", r.charged_bytes);
    w.field("app_rounds", r.app_rounds).field("failovers", r.failovers);
    w.field("rejoins", r.rejoins).key("io").begin_object();
    w.field("read_ops", r.io.read_ops).field("write_ops", r.io.write_ops);
    w.field("blocks_read", r.io.blocks_read);
    w.field("blocks_written", r.io.blocks_written);
    w.field("retries", r.io.retries).end_object();
    w.key("net").begin_object().field("wire_bytes", r.net.wire_bytes);
    w.field("data_sent", r.net.data_sent);
    w.field("retransmissions", r.net.retransmissions);
    w.field("delivered_messages", r.net.delivered_messages);
    w.end_object().end_object();
  }
  w.end_array().end_object();
  return w.take();
}

}  // namespace emcgm::svc
