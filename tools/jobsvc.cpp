// jobsvc — run a multi-tenant job file through the job service.
//
//   jobsvc --jobs FILE [--out FILE] [--workers N] [--verify-solo]
//          [--trace] [--trace-out FILE]
//
//       Parse the job file (see src/svc/svc_json.h for the schema), arm the
//       optional service-level chaos campaign on its target tenant, run every
//       job through one shared JobService, and print the per-job results
//       JSON (or write it to --out).
//
//       --workers N overrides the job file's execution-phase worker count
//       (N >= 1; default = hardware concurrency). The schedule — and every
//       per-tenant observable — is identical for every worker count; N
//       changes wall time only.
//
//       --trace-out FILE (implies --trace) exports the combined per-tenant
//       Chrome trace: every tenant's spans in canonical submission order on
//       disjoint pid ranges (loadable in Perfetto, checked by
//       tools/validate_trace.py).
//
//       --verify-solo additionally re-runs every job alone on an empty pool
//       of the same geometry and applies the tenant check
//       (svc::tenant_mismatches) — the per-tenant isolation contract: ok,
//       error, output hash, supersteps, charged bytes, app rounds,
//       failovers, rejoins and every IoStats and NetStats counter must
//       equal the solo run's; names, ticks and preemptions may differ. Exit
//       2 on any mismatch, naming the tenant and each differing field.
//
//       Exit 0 when every job completed ok (and, with --verify-solo, solo
//       runs matched); exit 1 when a job failed; exit 2 on a usage or config
//       error (a malformed flag value included), a file that cannot be read
//       or written, or an isolation violation.
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "svc/service.h"
#include "svc/svc_json.h"
#include "util/error.h"
#include "util/file.h"
#include "util/json.h"

using namespace emcgm;
using namespace emcgm::svc;

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "jobsvc: " << why << "\n"
            << "usage: jobsvc --jobs FILE [--out FILE] [--workers N]"
            << " [--verify-solo] [--trace] [--trace-out FILE]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string jobs_file;
  std::string out_file;
  std::string trace_out;
  std::optional<std::uint32_t> workers;  // unset = keep the job file's
  bool verify_solo = false;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--jobs") {
      if (i + 1 >= argc) usage("missing value for --jobs");
      jobs_file = argv[++i];
    } else if (f == "--out") {
      if (i + 1 >= argc) usage("missing value for --out");
      out_file = argv[++i];
    } else if (f == "--workers") {
      if (i + 1 >= argc) usage("missing value for --workers");
      workers = json::parse_integer<std::uint32_t>(argv[++i]);
      if (!workers || *workers == 0) usage("--workers wants a count >= 1");
    } else if (f == "--verify-solo") {
      verify_solo = true;
    } else if (f == "--trace") {
      trace = true;
    } else if (f == "--trace-out") {
      if (i + 1 >= argc) usage("missing value for --trace-out");
      trace_out = argv[++i];
      trace = true;
    } else {
      usage("unknown flag '" + f + "'");
    }
  }
  if (jobs_file.empty()) usage("--jobs is required");

  try {
    ServiceSpec spec = parse_service_json(read_file(jobs_file));
    arm_service_chaos(spec);
    if (trace) spec.service.trace = true;
    if (workers) spec.service.workers = *workers;

    JobService service(spec.service);
    for (const JobSpec& j : spec.jobs) service.submit(j);
    const std::vector<JobResult> results = service.run_all();
    const std::string doc = results_json(results, service.ticks());
    if (!trace_out.empty()) service.write_trace(trace_out);

    if (out_file.empty()) {
      std::cout << doc;
    } else {
      write_file(out_file, doc);
    }

    int rc = 0;
    for (const JobResult& r : results) {
      if (!r.ok) {
        std::cerr << "jobsvc: job '" << r.name << "' failed: " << r.error
                  << "\n";
        rc = 1;
      }
    }

    if (verify_solo) {
      for (std::size_t i = 0; i < results.size(); ++i) {
        const std::string diffs = tenant_mismatches(
            results[i], run_job_solo(spec.jobs[i], spec.service.pool));
        if (diffs.empty()) continue;
        std::cerr << "jobsvc: tenant '" << results[i].name
                  << "' diverged from its solo run (service != solo): "
                  << diffs << "\n";
        rc = 2;
      }
      if (rc != 2) {
        std::cerr << "jobsvc: all " << results.size()
                  << " tenants bit-identical to solo runs\n";
      }
    }
    return rc;
  } catch (const IoError& e) {
    std::cerr << "jobsvc: " << e.what() << "\n";
    return 2;
  }
}
