// Declarative collective communication schedules for the superstep round.
//
// The simulation theorem's h-relation bound holds for *any* delivery order,
// so the shape of the communication round is a free parameter: the engine
// only needs every crossing (source host, destination host) byte stream to
// arrive exactly once before the barrier closes. A CommSchedule makes that
// shape explicit — an ordered list of steps, each a set of transfers, each
// transfer moving a set of *flows* (orig-host, fin-host) one hop — and the
// engine runs every superstep through one: the all-to-all round is simply
// the one-step direct schedule. Multi-hop schedules aggregate: a tree
// routes all of a machine's crossing traffic through one leader link and a
// hyper-systolic exchange (Galli) replaces the n*(n-1) direct links with
// O(n*sqrt(n)) strided hops, which is what cuts host-crossing wire bytes
// (frames, acks, headers) on multi-node `file_roots` layouts.
//
// Schedules are *data*, so they can be proven before they run: the verifier
// (schedule_verify.cpp) simulates flow locations step by step against a
// concrete h-relation weight matrix and rejects — with a typed
// IoError(kConfig), before the engine moves a byte — any schedule that
// self-sends, delivers a pair twice or never, exceeds its declared per-step
// degree, or breaks its declared h-balance slack. The engine re-derives and
// re-verifies the schedule on every membership epoch, so fail-over and
// rejoin keep the proof current.
//
// This header is dependency-light on purpose: net/net_fault.h embeds a
// ScheduleKind in NetConfig, so nothing network- or engine-side may be
// included from here.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace emcgm::routing {

/// Built-in schedule generators. kDirect (the default) is one step with
/// every crossing pair its own link; the others trade extra hops for fewer
/// (or better-placed) links.
enum class ScheduleKind : std::uint32_t {
  kDirect = 0,         ///< single all-to-all step, one link per crossing pair
  kRing = 1,           ///< n-1 steps, each host forwards to its successor
  kTree = 2,           ///< hierarchical: gather -> leader exchange -> scatter
  kHyperSystolic = 3,  ///< hierarchical with a strided leader exchange
  /// User-supplied schedule JSON (NetConfig::custom_schedule_json), parsed
  /// with parse_schedule_json and proven by the verifier before the run
  /// starts. Not a generator: make_schedule rejects it — the engine loads
  /// the JSON itself and falls back to kDirect when a membership change
  /// invalidates the custom host set (the JSON names fixed hosts, so it
  /// cannot be re-derived for a shrunken machine).
  kCustom = 4,
};

const char* to_string(ScheduleKind kind);

/// Parse a schedule name ("direct", "ring", "tree", "hyper_systolic",
/// "custom"). Throws IoError(kConfig) on an unknown name.
ScheduleKind schedule_kind_from_string(const std::string& name);

/// A flow is one (orig host, fin host) byte stream of the superstep's
/// h-relation. Flows move as indivisible units: a transfer carries a flow
/// one hop, and store-and-forward holds it whole at the intermediate host.
using Flow = std::pair<std::uint32_t, std::uint32_t>;

/// One hop within a step: host `src` forwards every listed flow (which the
/// verifier proves is currently held at `src`) to host `dst`.
struct Transfer {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::vector<Flow> flows;

  friend bool operator==(const Transfer&, const Transfer&) = default;
};

/// One synchronized round of transfers. Transfers within a step are
/// concurrent; the declared degree/slack bounds are per step.
struct ScheduleStep {
  std::vector<Transfer> transfers;

  friend bool operator==(const ScheduleStep&, const ScheduleStep&) = default;
};

/// A complete schedule over the live hosts of a p-processor machine, plus
/// the balance contract its generator declares (and the verifier enforces).
struct CommSchedule {
  ScheduleKind kind = ScheduleKind::kDirect;
  std::uint32_t p = 0;               ///< processor id space (hosts index it)
  std::vector<std::uint32_t> hosts;  ///< live hosts, ascending
  std::vector<ScheduleStep> steps;
  /// Max transfers any host may appear in as src (or as dst) per step.
  std::uint32_t max_degree = 0;
  /// Per-step per-host sent/received weight may reach slack * h, where h is
  /// the h-relation parameter of the verified weight matrix. Aggregating
  /// schedules declare slack > 1 (a leader forwards its whole machine).
  double slack = 1.0;

  std::size_t transfer_count() const {
    std::size_t n = 0;
    for (const auto& s : steps) n += s.transfers.size();
    return n;
  }

  /// JSON form consumed by tools/schedule_check and parse_schedule_json.
  std::string to_json() const;

  friend bool operator==(const CommSchedule&, const CommSchedule&) = default;
};

/// Machine id per processor derived from the per-host file roots: two
/// processors share a machine iff their roots share a parent directory
/// (ids dense, in order of first appearance). Empty roots — the
/// single-filesystem default — give the identity map: every processor its
/// own machine.
std::vector<std::uint32_t> machines_from_roots(
    std::uint32_t p, const std::vector<std::string>& roots);

/// Generate the built-in schedule `kind` over `live_hosts` (ascending ids
/// < p) of a machine whose host->machine placement is `machines` (size p;
/// see machines_from_roots). Pure function of its arguments, so every
/// replica of a run — any threading mode, any fail-over replay — derives
/// the same schedule for the same membership epoch.
CommSchedule make_schedule(ScheduleKind kind, std::uint32_t p,
                           const std::vector<std::uint32_t>& live_hosts,
                           const std::vector<std::uint32_t>& machines);

/// Parse a schedule from the JSON that CommSchedule::to_json emits (field
/// order free, whitespace free). Throws IoError(kConfig) on malformed input.
CommSchedule parse_schedule_json(const std::string& text);

/// What the verifier measured while proving a schedule (tools/schedule_check
/// prints this as the balance report).
struct BalanceReport {
  std::uint64_t steps = 0;
  std::uint64_t transfers = 0;
  std::uint64_t h = 0;              ///< h-relation of the weight matrix
  std::uint64_t max_step_sent = 0;  ///< worst per-host per-step sent weight
  std::uint64_t max_step_recv = 0;  ///< worst per-host per-step recv weight
  std::uint32_t max_degree = 0;     ///< worst per-host per-step transfer fan
  /// Weight moved on non-first hops — the store-and-forward tax that shows
  /// up in NetStats wire bytes but never in delivered payload.
  std::uint64_t relay_weight = 0;
};

/// Per-ordered-pair h-relation weights, indexed [orig][fin] over the full
/// processor id space (entries touching non-live hosts must be zero).
using WeightMatrix = std::vector<std::vector<std::uint64_t>>;

/// Prove the schedule against a concrete weight matrix: every live ordered
/// pair delivered exactly once (no drop, no duplicate, no move after
/// arrival), no self-sends, every transfer holds the flows it claims,
/// per-step degree <= max_degree, per-step per-host sent/recv weight
/// <= slack * h, and termination (bounded steps, all flows home at the
/// end). Throws IoError(kConfig) naming the first violation.
BalanceReport verify_schedule(const CommSchedule& schedule,
                              const WeightMatrix& weights);

/// verify_schedule against the uniform h-relation (weight 1 on every live
/// ordered pair) — the shape-level proof the engine runs pre-run and on
/// every membership epoch.
BalanceReport verify_schedule(const CommSchedule& schedule);

}  // namespace emcgm::routing
