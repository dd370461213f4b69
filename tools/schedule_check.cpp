// schedule_check — prove a collective schedule before anything runs it.
//
//   schedule_check --kind NAME [--p P] [--hosts A,B,...] [--roots R0,R1,...]
//                  [--json-out FILE]
//       Generate the built-in schedule NAME (direct | ring | tree |
//       hyper_systolic) over P processors (default 4), run the verifier
//       against the uniform h-relation, and print the balance report.
//       --hosts restricts to a degraded live set; --roots derives the
//       host -> machine placement from per-host file roots exactly the way
//       the engine does (shared parent directory = same machine).
//       --json-out dumps the verified schedule in the JSON form
//       parse_schedule_json accepts.
//
//   schedule_check --file FILE [--json-out FILE]
//       Parse a schedule JSON (hand-written or a --json-out artifact) and
//       verify it. This is the path for user-supplied schedules: a plan
//       that drops, duplicates, or self-sends is rejected here with the
//       same typed diagnostic the engine would raise pre-run.
//
//   schedule_check --all [--p P] [--roots R0,R1,...]
//       Verify every built-in generator on one machine shape — the CI
//       invocation. Exit 1 on the first rejection.
//
// Exit status: 0 = every schedule verified; 1 = verifier rejection;
// 2 = usage / unreadable input / a failed write.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "routing/schedule.h"
#include "util/error.h"
#include "util/file.h"
#include "util/json.h"

using namespace emcgm;
using namespace emcgm::routing;

namespace {

struct Args {
  std::string kind;
  std::string file;
  std::string json_out;
  std::uint32_t p = 4;
  std::vector<std::uint32_t> hosts;  // empty = all of 0..p-1
  std::vector<std::string> roots;
  bool all = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "schedule_check: " << why << "\n"
            << "usage: schedule_check --kind NAME | --file FILE | --all\n"
            << "  [--p P] [--hosts A,B,...] [--roots R0,R1,...]"
            << " [--json-out FILE]\n"
            << "  kinds: direct ring tree hyper_systolic\n";
  std::exit(2);
}

std::string str_arg(int argc, char** argv, int& i) {
  if (i + 1 >= argc) usage(std::string("missing value for ") + argv[i]);
  return argv[++i];
}

std::uint32_t id_arg(const std::string& flag, const std::string& text) {
  if (const auto v = json::parse_integer<std::uint32_t>(text)) return *v;
  usage("malformed value '" + text + "' for " + flag);
}

std::vector<std::string> split(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--kind") a.kind = str_arg(argc, argv, i);
    else if (f == "--file") a.file = str_arg(argc, argv, i);
    else if (f == "--json-out") a.json_out = str_arg(argc, argv, i);
    else if (f == "--all") a.all = true;
    else if (f == "--p") {
      a.p = id_arg(f, str_arg(argc, argv, i));
    } else if (f == "--hosts") {
      for (const std::string& h : split(str_arg(argc, argv, i))) {
        a.hosts.push_back(id_arg(f, h));
      }
    } else if (f == "--roots") {
      a.roots = split(str_arg(argc, argv, i));
    } else {
      usage("unknown flag '" + f + "'");
    }
  }
  const int modes = !a.kind.empty() + !a.file.empty() + (a.all ? 1 : 0);
  if (modes != 1) usage("pick exactly one of --kind, --file, --all");
  return a;
}

void print_report(const CommSchedule& s, const BalanceReport& r) {
  std::cout << to_string(s.kind) << ": p=" << s.p
            << " live=" << s.hosts.size() << " steps=" << r.steps
            << " transfers=" << r.transfers << " h=" << r.h
            << " max_step_sent=" << r.max_step_sent
            << " max_step_recv=" << r.max_step_recv
            << " max_degree=" << r.max_degree
            << " relay_weight=" << r.relay_weight << " slack=" << s.slack
            << "\n";
}

/// Verify one schedule; prints the balance report or the typed rejection.
bool check(const CommSchedule& s, const std::string& json_out) {
  try {
    const BalanceReport r = verify_schedule(s);
    print_report(s, r);
  } catch (const IoError& e) {
    std::cout << "REJECTED: " << e.what() << "\n";
    return false;
  }
  if (!json_out.empty()) {
    write_file(json_out, s.to_json());
    std::cout << "schedule written to " << json_out << "\n";
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  try {
    if (!a.file.empty()) {
      const CommSchedule s = parse_schedule_json(read_file(a.file));
      return check(s, a.json_out) ? 0 : 1;
    }

    const auto machines = machines_from_roots(a.p, a.roots);
    std::vector<std::uint32_t> hosts = a.hosts;
    if (hosts.empty()) {
      for (std::uint32_t q = 0; q < a.p; ++q) hosts.push_back(q);
    }
    if (!a.all) {
      const ScheduleKind kind = schedule_kind_from_string(a.kind);
      return check(make_schedule(kind, a.p, hosts, machines), a.json_out)
                 ? 0
                 : 1;
    }
    bool ok = true;
    for (ScheduleKind kind :
         {ScheduleKind::kDirect, ScheduleKind::kRing, ScheduleKind::kTree,
          ScheduleKind::kHyperSystolic}) {
      ok = check(make_schedule(kind, a.p, hosts, machines), "") && ok;
    }
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    // Malformed JSON, bad host sets and file failures arrive as IoError.
    std::cerr << "schedule_check: " << e.what() << "\n";
    return 2;
  }
}
