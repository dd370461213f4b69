#include "routing/schedule.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/error.h"
#include "util/json.h"

namespace emcgm::routing {

namespace {

[[noreturn]] void bad_config(const std::string& what) {
  throw IoError(IoErrorKind::kConfig, what);
}

/// Canonicalize a step: merge flows that share a (src, dst) link into one
/// transfer, sort transfers by (src, dst) and flows by (orig, fin). The
/// engine posts transfers in container order, so canonical form is what
/// keeps every replica's per-link byte stream identical.
ScheduleStep canonical_step(
    const std::map<std::pair<std::uint32_t, std::uint32_t>,
                   std::vector<Flow>>& links) {
  ScheduleStep step;
  for (const auto& [link, flows] : links) {
    Transfer t;
    t.src = link.first;
    t.dst = link.second;
    t.flows = flows;
    std::sort(t.flows.begin(), t.flows.end());
    step.transfers.push_back(std::move(t));
  }
  return step;
}

void push_nonempty(CommSchedule& s, ScheduleStep step) {
  if (!step.transfers.empty()) s.steps.push_back(std::move(step));
}

std::uint32_t observed_degree(const CommSchedule& s) {
  std::uint32_t deg = 0;
  for (const auto& step : s.steps) {
    std::map<std::uint32_t, std::uint32_t> out, in;
    for (const auto& t : step.transfers) {
      deg = std::max(deg, ++out[t.src]);
      deg = std::max(deg, ++in[t.dst]);
    }
  }
  return deg;
}

/// The single all-to-all step: one link per ordered live pair.
void gen_direct(CommSchedule& s) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<Flow>> links;
  for (std::uint32_t a : s.hosts) {
    for (std::uint32_t b : s.hosts) {
      if (a == b) continue;
      links[{a, b}].push_back({a, b});
    }
  }
  push_nonempty(s, canonical_step(links));
  s.slack = 1.0;
}

/// n-1 steps over the live ring: in step k every flow still k or more hops
/// from home moves one position forward. Each host forwards the flows of
/// exactly one orig per step, so per-step weight stays within 1.0 * h even
/// on a single-hot-spot h-relation.
void gen_ring(CommSchedule& s) {
  const auto n = static_cast<std::uint32_t>(s.hosts.size());
  for (std::uint32_t k = 1; k < n; ++k) {
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<Flow>> links;
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t src = s.hosts[i];
      const std::uint32_t dst = s.hosts[(i + 1) % n];
      const std::uint32_t orig = s.hosts[(i + n - (k - 1)) % n];
      for (std::uint32_t d = k; d < n; ++d) {
        const std::uint32_t fin = s.hosts[(i + n - (k - 1) + d) % n];
        links[{src, dst}].push_back({orig, fin});
      }
    }
    push_nonempty(s, canonical_step(links));
  }
  s.slack = 1.0;
}

struct Machines {
  /// Live hosts grouped per machine, each group ascending; groups ordered
  /// by machine id. leaders[m] is the lowest live host of group m.
  std::vector<std::vector<std::uint32_t>> groups;
  std::vector<std::uint32_t> leaders;
  std::vector<std::uint32_t> machine_of;  ///< indexed by host id
  std::size_t max_size = 0;
};

Machines group_by_machine(const CommSchedule& s,
                          const std::vector<std::uint32_t>& machines) {
  Machines m;
  m.machine_of.assign(s.p, 0);
  std::map<std::uint32_t, std::vector<std::uint32_t>> by_id;
  for (std::uint32_t h : s.hosts) by_id[machines[h]].push_back(h);
  for (auto& [id, hosts] : by_id) {
    for (std::uint32_t h : hosts) {
      m.machine_of[h] = static_cast<std::uint32_t>(m.groups.size());
    }
    m.leaders.push_back(hosts.front());
    m.max_size = std::max(m.max_size, hosts.size());
    m.groups.push_back(std::move(hosts));
  }
  return m;
}

/// Hierarchical steps shared by tree and hyper_systolic: the local step
/// (same-machine pairs delivered directly; crossing flows gathered onto the
/// machine leader) and the scatter step (leaders fan crossing arrivals out
/// to their members). The exchange between leaders differs per kind.
void local_step(CommSchedule& s, const Machines& m) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<Flow>> links;
  for (const auto& group : m.groups) {
    const std::uint32_t leader = group.front();
    for (std::uint32_t a : group) {
      for (std::uint32_t b : group) {
        if (a != b) links[{a, b}].push_back({a, b});
      }
      if (a == leader) continue;
      for (std::uint32_t f : s.hosts) {
        if (m.machine_of[f] != m.machine_of[a]) {
          links[{a, leader}].push_back({a, f});
        }
      }
    }
  }
  push_nonempty(s, canonical_step(links));
}

void scatter_step(CommSchedule& s, const Machines& m) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<Flow>> links;
  for (const auto& group : m.groups) {
    const std::uint32_t leader = group.front();
    for (std::uint32_t b : group) {
      if (b == leader) continue;
      for (std::uint32_t o : s.hosts) {
        if (m.machine_of[o] != m.machine_of[b]) {
          links[{leader, b}].push_back({o, b});
        }
      }
    }
  }
  push_nonempty(s, canonical_step(links));
}

/// All flows from machine mi to machine mj, in canonical order.
std::vector<Flow> machine_bundle(const Machines& m, std::size_t mi,
                                 std::size_t mj) {
  std::vector<Flow> flows;
  for (std::uint32_t o : m.groups[mi]) {
    for (std::uint32_t f : m.groups[mj]) flows.push_back({o, f});
  }
  return flows;
}

/// tree: one exchange step, every ordered leader pair its own link carrying
/// the whole machine-to-machine bundle.
void gen_tree(CommSchedule& s, const Machines& m) {
  local_step(s, m);
  const std::size_t nm = m.groups.size();
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<Flow>> links;
  for (std::size_t mi = 0; mi < nm; ++mi) {
    for (std::size_t mj = 0; mj < nm; ++mj) {
      if (mi == mj) continue;
      auto bundle = machine_bundle(m, mi, mj);
      auto& fl = links[{m.leaders[mi], m.leaders[mj]}];
      fl.insert(fl.end(), bundle.begin(), bundle.end());
    }
  }
  push_nonempty(s, canonical_step(links));
  scatter_step(s, m);
  s.slack = static_cast<double>(std::max<std::size_t>(m.max_size, 1));
}

/// hyper_systolic: the leader exchange runs Galli's two-phase strided
/// pattern over the nm leaders — ceil((nm-1)/K) hops of stride K, then K-1
/// hops of stride 1, K = ceil(sqrt(nm)) — replacing nm*(nm-1) leader links
/// with O(nm*sqrt(nm)) at the price of store-and-forward relays. With the
/// identity machine map (no file_roots) every host is its own leader and
/// this is the pure hyper-systolic all-to-all.
void gen_hyper(CommSchedule& s, const Machines& m) {
  local_step(s, m);
  const auto nm = static_cast<std::uint32_t>(m.groups.size());
  if (nm > 1) {
    const auto k = static_cast<std::uint32_t>(
        std::ceil(std::sqrt(static_cast<double>(nm))));
    // bundle (i, j) travels d = (j - i) mod nm positions: d / K hops of
    // stride K, then d % K hops of stride 1, store-and-forwarded whole.
    const std::uint32_t a_max = (nm - 1) / k;
    for (std::uint32_t t = 1; t <= a_max; ++t) {
      std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<Flow>>
          links;
      for (std::uint32_t i = 0; i < nm; ++i) {
        const std::uint32_t x = (i + (t - 1) * k) % nm;
        for (std::uint32_t d = t * k; d < nm; ++d) {
          auto bundle = machine_bundle(m, i, (i + d) % nm);
          auto& fl = links[{m.leaders[x], m.leaders[(x + k) % nm]}];
          fl.insert(fl.end(), bundle.begin(), bundle.end());
        }
      }
      push_nonempty(s, canonical_step(links));
    }
    for (std::uint32_t u = 1; u < k; ++u) {
      std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<Flow>>
          links;
      for (std::uint32_t i = 0; i < nm; ++i) {
        for (std::uint32_t d = 1; d < nm; ++d) {
          if (d % k < u) continue;
          const std::uint32_t y = (i + (d / k) * k + (u - 1)) % nm;
          auto bundle = machine_bundle(m, i, (i + d) % nm);
          auto& fl = links[{m.leaders[y], m.leaders[(y + 1) % nm]}];
          fl.insert(fl.end(), bundle.begin(), bundle.end());
        }
      }
      push_nonempty(s, canonical_step(links));
    }
    // A stride-1 relay holds bundles of up to ceil(nm / K) distinct source
    // machines at once, each bounded by its machine's sent weight.
    s.slack = static_cast<double>((nm + k - 1) / k) *
              static_cast<double>(std::max<std::size_t>(m.max_size, 1));
  } else {
    s.slack = static_cast<double>(std::max<std::size_t>(m.max_size, 1));
  }
  scatter_step(s, m);
}

}  // namespace

const char* to_string(ScheduleKind kind) {
  switch (kind) {
    case ScheduleKind::kDirect:        return "direct";
    case ScheduleKind::kRing:          return "ring";
    case ScheduleKind::kTree:          return "tree";
    case ScheduleKind::kHyperSystolic: return "hyper_systolic";
    case ScheduleKind::kCustom:        return "custom";
  }
  return "unknown";
}

ScheduleKind schedule_kind_from_string(const std::string& name) {
  for (ScheduleKind k :
       {ScheduleKind::kDirect, ScheduleKind::kRing, ScheduleKind::kTree,
        ScheduleKind::kHyperSystolic, ScheduleKind::kCustom}) {
    if (name == to_string(k)) return k;
  }
  bad_config("unknown schedule '" + name +
             "' (expected direct, ring, tree, hyper_systolic, or custom)");
}

std::vector<std::uint32_t> machines_from_roots(
    std::uint32_t p, const std::vector<std::string>& roots) {
  std::vector<std::uint32_t> machines(p);
  if (roots.empty()) {
    for (std::uint32_t r = 0; r < p; ++r) machines[r] = r;
    return machines;
  }
  std::vector<std::string> parents;
  for (std::uint32_t r = 0; r < p; ++r) {
    std::string root = roots[r % roots.size()];
    while (root.size() > 1 && root.back() == '/') root.pop_back();
    const auto slash = root.find_last_of('/');
    const std::string parent =
        slash == std::string::npos ? std::string() : root.substr(0, slash);
    auto it = std::find(parents.begin(), parents.end(), parent);
    if (it == parents.end()) {
      parents.push_back(parent);
      it = std::prev(parents.end());
    }
    machines[r] = static_cast<std::uint32_t>(it - parents.begin());
  }
  return machines;
}

CommSchedule make_schedule(ScheduleKind kind, std::uint32_t p,
                           const std::vector<std::uint32_t>& live_hosts,
                           const std::vector<std::uint32_t>& machines) {
  if (p == 0) bad_config("schedule over an empty machine");
  if (machines.size() != p) {
    bad_config("machine map must name all " + std::to_string(p) +
               " processors");
  }
  CommSchedule s;
  s.kind = kind;
  s.p = p;
  s.hosts = live_hosts;
  std::sort(s.hosts.begin(), s.hosts.end());
  for (std::size_t i = 0; i < s.hosts.size(); ++i) {
    if (s.hosts[i] >= p || (i > 0 && s.hosts[i] == s.hosts[i - 1])) {
      bad_config("live host set must be unique processor ids < p");
    }
  }
  if (s.hosts.size() < 2) {
    s.max_degree = 0;
    return s;  // nothing can cross: the empty schedule
  }
  switch (kind) {
    case ScheduleKind::kDirect:
      gen_direct(s);
      break;
    case ScheduleKind::kRing:
      gen_ring(s);
      break;
    case ScheduleKind::kTree:
      gen_tree(s, group_by_machine(s, machines));
      break;
    case ScheduleKind::kHyperSystolic:
      gen_hyper(s, group_by_machine(s, machines));
      break;
    case ScheduleKind::kCustom:
      bad_config("kCustom is not a generator: load the schedule with"
                 " parse_schedule_json (NetConfig::custom_schedule_json)");
  }
  s.max_degree = observed_degree(s);
  return s;
}

// ------------------------------------------------------------------- JSON --

std::string CommSchedule::to_json() const {
  json::Writer w;
  w.begin_object().field("kind", routing::to_string(kind)).field("p", p);
  w.key("hosts").begin_array();
  for (std::uint32_t h : hosts) w.value(h);
  w.end_array().field("max_degree", max_degree).field("slack", slack);
  w.key("steps").begin_array();
  for (const ScheduleStep& step : steps) {
    w.begin_array();
    for (const Transfer& t : step.transfers) {
      w.begin_object().field("src", t.src).field("dst", t.dst);
      w.key("flows").begin_array();
      for (const auto& [origin, final_dst] : t.flows) {
        w.begin_array().value(origin).value(final_dst).end_array();
      }
      w.end_array().end_object();
    }
    w.end_array();
  }
  w.end_array().end_object();
  return w.take();
}

namespace {

Transfer parse_transfer(json::Reader& r) {
  Transfer t;
  r.object([&](const std::string& field) {
    if (field == "src") {
      t.src = r.integer<std::uint32_t>();
    } else if (field == "dst") {
      t.dst = r.integer<std::uint32_t>();
    } else if (field == "flows") {
      r.array([&] {
        std::vector<std::uint32_t> pair;
        r.array([&] { pair.push_back(r.integer<std::uint32_t>()); });
        if (pair.size() != 2) r.fail("a flow is an [origin, final] pair");
        t.flows.push_back({pair[0], pair[1]});
      });
    } else {
      r.fail("unknown transfer field '" + field + "'");
    }
  });
  return t;
}

}  // namespace

CommSchedule parse_schedule_json(const std::string& text) {
  json::Reader r(text, "schedule");
  CommSchedule s;
  bool have_p = false;
  r.object([&](const std::string& key) {
    if (key == "kind") {
      s.kind = schedule_kind_from_string(r.string());
    } else if (key == "p") {
      s.p = r.integer<std::uint32_t>();
      have_p = true;
    } else if (key == "hosts") {
      r.array([&] { s.hosts.push_back(r.integer<std::uint32_t>()); });
    } else if (key == "max_degree") {
      s.max_degree = r.integer<std::uint32_t>();
    } else if (key == "slack") {
      s.slack = r.number();
    } else if (key == "steps") {
      r.array([&] {
        ScheduleStep step;
        r.array([&] { step.transfers.push_back(parse_transfer(r)); });
        s.steps.push_back(std::move(step));
      });
    } else {
      r.fail("unknown key '" + key + "'");
    }
  });
  r.finish();
  if (!have_p || s.p == 0) r.fail("missing or zero \"p\"");
  return s;
}

}  // namespace emcgm::routing
