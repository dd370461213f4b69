#include "emcgm/em_engine.h"

#include <algorithm>
#include <exception>
#include <numeric>
#include <sstream>

#include "cgm/proc_ctx.h"
#include "chaos/chaos_config.h"
#include "emcgm/em_engine_internal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "routing/balanced_routing.h"
#include "util/error.h"
#include "util/timer.h"
#include "util/worker_pool.h"

namespace emcgm::em {

namespace {

// Serialized context layout: inputs (round 0 only), program state, outputs.
// The archive is sized once, from the same layout.
std::vector<std::byte> pack_context(
    const std::vector<std::vector<std::byte>>& inputs,
    const cgm::ProcState& state,
    const std::vector<std::vector<std::byte>>& outputs) {
  std::size_t bytes = 2 * sizeof(std::uint64_t) + state.saved_bytes();
  for (const auto& in : inputs) bytes += sizeof(std::uint64_t) + in.size();
  for (const auto& o : outputs) bytes += sizeof(std::uint64_t) + o.size();
  WriteArchive ar;
  ar.reserve(bytes);
  ar.put<std::uint64_t>(inputs.size());
  for (const auto& in : inputs) ar.put_bytes(in);
  state.save(ar);
  // Outputs go last so that state.load() consumes exactly its own bytes.
  // (We cannot put them before the state: load() reads a fixed field
  // sequence, so anything preceding it must have a known structure.)
  ar.put<std::uint64_t>(outputs.size());
  for (const auto& o : outputs) ar.put_bytes(o);
  EMCGM_CHECK(ar.size() == bytes);
  return ar.take();
}

struct UnpackedContext {
  std::vector<std::vector<std::byte>> inputs;
  std::vector<std::vector<std::byte>> outputs;
};

UnpackedContext unpack_context(std::span<const std::byte> blob,
                               cgm::ProcState& state) {
  ReadArchive ar(blob);
  UnpackedContext ctx;
  // The counts come off disk: no buffer is sized from them, so a corrupt
  // count runs the archive out (typed Error) instead of allocating.
  const auto n_in = ar.get<std::uint64_t>();
  for (std::uint64_t k = 0; k < n_in; ++k) ctx.inputs.push_back(ar.get_bytes());
  state.load(ar);
  const auto n_out = ar.get<std::uint64_t>();
  for (std::uint64_t k = 0; k < n_out; ++k) {
    ctx.outputs.push_back(ar.get_bytes());
  }
  EMCGM_CHECK_MSG(ar.exhausted(), "context blob has trailing bytes");
  return ctx;
}

}  // namespace

EmEngine::EmEngine(cgm::MachineConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.validate();
  // Tracer first: RealProc disk arrays may carry a queue-depth probe into it.
  if (cfg_.obs.trace) {
    tracer_ = std::make_unique<obs::Tracer>(cfg_.p);
    if (!cfg_.obs.tenant.empty()) tracer_->set_tenant(cfg_.obs.tenant);
    metrics_ = std::make_unique<obs::MetricsRegistry>();
  }
  procs_.reserve(cfg_.p);
  for (std::uint32_t r = 0; r < cfg_.p; ++r) {
    procs_.push_back(std::make_unique<RealProc>(cfg_, r, tracer_.get()));
  }
  group_host_.resize(cfg_.p);
  std::iota(group_host_.begin(), group_host_.end(), 0u);
  alive_.assign(cfg_.p, 1);
}

EmEngine::~EmEngine() = default;

const pdm::IoStats& EmEngine::io_stats(std::uint32_t real_proc) const {
  EMCGM_CHECK(real_proc < cfg_.p);
  return procs_[real_proc]->disks->stats();
}

std::uint64_t EmEngine::tracks_used(std::uint32_t real_proc) const {
  EMCGM_CHECK(real_proc < cfg_.p);
  return procs_[real_proc]->disks->tracks_used();
}

pdm::DiskArray& EmEngine::disk_array(std::uint32_t real_proc) {
  EMCGM_CHECK(real_proc < cfg_.p);
  return *procs_[real_proc]->disks;
}

void EmEngine::set_disk_quota_bytes(std::uint32_t real_proc,
                                    std::uint64_t bytes) {
  EMCGM_CHECK(real_proc < cfg_.p);
  procs_[real_proc]->disks->set_quota_bytes(bytes);
}

void EmEngine::disarm_faults() {
  for (auto& rp : procs_) {
    if (auto* f = rp->disks->fault_injector()) f->disarm();
  }
}

std::uint32_t EmEngine::group_host(std::uint32_t g) const {
  EMCGM_CHECK(g < cfg_.p);
  return group_host_[g];
}

bool EmEngine::alive(std::uint32_t real_proc) const {
  EMCGM_CHECK(real_proc < cfg_.p);
  return alive_[real_proc] != 0;
}

std::vector<std::uint32_t> EmEngine::live_hosts() const {
  std::vector<std::uint32_t> hosts;
  for (std::uint32_t h = 0; h < cfg_.p; ++h) {
    if (alive_[h]) hosts.push_back(h);
  }
  return hosts;
}

void EmEngine::verify_drained(const char* where) const {
  if (!cfg_.chaos.invariants) return;
  for (std::uint32_t r = 0; r < cfg_.p; ++r) {
    const std::uint64_t pending = procs_[r]->disks->in_flight();
    if (pending != 0) {
      std::ostringstream os;
      os << "real processor " << r << " has " << pending
         << " write-behind blocks in flight at " << where
         << "; deferred I/O must never cross a superstep barrier";
      throw chaos::InvariantViolation(chaos::Invariant::kExecutorDrain,
                                      os.str());
    }
  }
}

// ----------------------------------------------------------------- run ----

std::vector<cgm::PartitionSet> EmEngine::run(
    const cgm::Program& program, std::vector<cgm::PartitionSet> inputs) {
  start(program, std::move(inputs));
  while (step()) {
  }
  return finish();
}

void EmEngine::set_io_charge_hook(pdm::IoChargeFn fn) {
  io_charge_ = std::move(fn);
  // Disk arrays persist across runs, so installing on them once covers
  // every current and future run of this engine.
  for (auto& rp : procs_) rp->disks->set_charge_hook(io_charge_);
}

void EmEngine::set_net_charge_hook(net::NetChargeFn fn) {
  net_charge_ = std::move(fn);
  if (net_) net_->set_charge_hook(net_charge_);
}

/// RAII re-entrancy check on the cooperative API: one EmEngine is
/// single-driver (see the thread-safety note in em_engine.h); concurrent
/// entry into the same engine fails loudly here instead of racing.
class EmEngine::ApiGuard {
 public:
  ApiGuard(std::atomic<bool>& busy, const char* what) : busy_(busy) {
    EMCGM_CHECK_MSG(
        !busy_.exchange(true, std::memory_order_acquire),
        what << "() entered while another cooperative-API call is running on"
                " this engine — one engine is single-driver; step distinct"
                " engines from distinct threads instead");
  }
  ~ApiGuard() { busy_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool>& busy_;
};

void EmEngine::start(const cgm::Program& program,
                     std::vector<cgm::PartitionSet> inputs) {
  ApiGuard guard(busy_, "start");
  rs_.reset();  // discard any previous unfinished cooperative run
  const std::uint32_t v = cfg_.v;
  const std::uint32_t p = cfg_.p;
  const std::uint32_t nloc = nlocal();

  commit_ = Commit{};
  running_program_ = program.name();

  // Fresh membership per run: every machine alive, every store group hosted
  // by its original owner, the physical superstep clock and the membership
  // epoch at zero.
  std::iota(group_host_.begin(), group_host_.end(), 0u);
  alive_.assign(p, 1);
  phys_step_ = 0;
  epoch_ = 0;
  net_.reset();
  if (cfg_.net.enabled && p > 1) {
    net_ = std::make_unique<net::SimNetwork>(p, cfg_.net);
    net_->set_machine_map(routing::machines_from_roots(p, cfg_.file_roots));
    if (tracer_) net_->set_tracer(tracer_.get());
    if (tracer_) tracer_->record_membership_epoch(0);
    if (net_charge_) net_->set_charge_hook(net_charge_);
  }
  rebuild_schedule();

  pdm::IoStats io_before;
  for (auto& rp : procs_) io_before += rp->disks->stats();

  // ------------------------------------------------------------- set-up --
  const std::uint64_t total_input_bytes = cgm::check_inputs(inputs, v);

  // Staggered-slot capacity: explicit hint, or the Lemma 2 bound
  // 2 * ceil(N / v^2) plus fragment-header slack for balanced routing.
  std::size_t slot_bytes = cfg_.staggered_slot_bytes;
  if (cfg_.layout == cgm::MsgLayout::kStaggeredMatrix && slot_bytes == 0) {
    EMCGM_CHECK_MSG(cfg_.balanced_routing,
                    "staggered layout without balanced routing has no"
                    " message-size bound; set staggered_slot_bytes or use"
                    " the chained layout");
    const std::uint64_t B = cfg_.disk.block_bytes;
    const std::uint64_t lemma2_floor =
        static_cast<std::uint64_t>(v) * v * B +
        static_cast<std::uint64_t>(v) * v * (v - 1) / 2;
    EMCGM_CHECK_MSG(total_input_bytes >= lemma2_floor,
                    "Lemma 2 precondition N >= v^2*B + v^2(v-1)/2 violated"
                    " (N=" << total_input_bytes << " bytes, floor="
                           << lemma2_floor
                           << "); use the chained layout or set"
                              " staggered_slot_bytes explicitly");
    // Lemma 2 bounds a balanced message by 2 * ceil(h/v) where h is the
    // per-processor communication volume; algorithms commonly attach
    // routing tags that double the input volume (e.g. the sort's tie-break
    // ids), so the derived default allows a 2x expansion plus the
    // fragment-header slack. Programs with larger expansion must set
    // staggered_slot_bytes explicitly.
    slot_bytes = static_cast<std::size_t>(
        4 * ceil_div(total_input_bytes, std::uint64_t{v} * v) + 64ULL * v +
        128);
  }

  // Fresh stores per run; the disk arrays (and their statistics) persist.
  for (std::uint32_t r = 0; r < p; ++r) {
    auto& rp = *procs_[r];
    rp.contexts = std::make_unique<ContextStore>(*rp.disks, rp.space, nloc);
    MessageStoreConfig mcfg;
    mcfg.v = v;
    mcfg.local_base = r * nloc;
    mcfg.nlocal = nloc;
    mcfg.slot_bytes = slot_bytes;
    mcfg.single_copy = cfg_.single_copy_matrix;
    rp.messages =
        make_message_store(cfg_.layout, *rp.disks, rp.space, mcfg);
  }

  // Write initial contexts: the input partitions plus a fresh program state.
  {
    obs::Tracer* tr = tracer_.get();
    obs::SpanScope setup_span(tr, tr ? &tr->engine_shard() : nullptr,
                              obs::SpanKind::kContextWrite, tr ? tr->p() : 0,
                              0, -1, -1, phys_step_, 0);
    std::uint64_t bytes = 0;
    for (std::uint32_t g = 0; g < v; ++g) {
      // One vproc's inputs at a time, so the next archive reuses their bytes.
      const auto mine = cgm::take_inputs(inputs, g);
      const auto state = program.make_state();
      const auto blob = pack_context(mine, *state, {});
      procs_[owner_of(g)]->contexts->write(g % nloc, blob);
      bytes += blob.size();
    }
    setup_span.set_aux(bytes);
    for (auto& rp : procs_) {
      rp->contexts->flip();
      // start() ends quiescent, like every step(): the write-behind is
      // counted (and charged) inside the call that submitted it.
      rp->disks->drain();
    }
  }

  // Superstep 0 is now recoverable: the inputs live on disk. A machine that
  // dies this early took uncommitted inputs with it — nothing to fail over
  // to, so surface the underlying fault.
  if (cfg_.checkpointing) {
    try {
      commit(cgm::Superstep{});
    } catch (const DeadProcsError& e) {
      if (e.cause) std::rethrow_exception(e.cause);
      throw Error("real processor died during the initial commit");
    }
  }

  begin_loop(program, cgm::Superstep{}, io_before);
}

std::vector<cgm::PartitionSet> EmEngine::resume(const cgm::Program& program) {
  {
    ApiGuard guard(busy_, "resume");
    rs_.reset();
    EMCGM_CHECK_MSG(cfg_.checkpointing,
                    "resume() requires cfg.checkpointing = true");
    EMCGM_CHECK_MSG(program.name() == running_program_,
                    "resume() must be called with the program passed to run()"
                    " (got '" << program.name() << "', ran '"
                              << running_program_ << "')");
    restore_from_commit();

    pdm::IoStats io_before;
    for (auto& rp : procs_) io_before += rp->disks->stats();
    begin_loop(program, commit_.at, io_before);
  }
  while (step()) {
  }
  return finish();
}

void EmEngine::begin_loop(const cgm::Program& program, cgm::Superstep at,
                          const pdm::IoStats& io_before) {
  rs_ = std::make_unique<RunState>();
  rs_->program = &program;
  rs_->at = at;
  rs_->done.assign(cfg_.v, 0);
  rs_->io_before = io_before;
  // The first superstep's recorded I/O delta deliberately includes any
  // setup I/O between io_before and here (initial context writes, initial
  // commit).
  rs_->trace_mark = io_before;
  rs_->net_before = net_ ? net_->stats() : net::NetStats{};
  rs_->net_step_mark = rs_->net_before;
}

// ----------------------------------------------------------- superstep ----

void EmEngine::record_step_io(RunState& rs, const char* phase_label,
                              bool has_comm, std::uint64_t step_round) {
  // Per-superstep I/O trace: delta of the summed disk statistics. With
  // observability on, the same barrier also snapshots one MetricsRegistry
  // row — IoStats/StepComm/NetStats deltas plus the cost model's predicted
  // I/O seconds for the counted ops, against the measured step wall clock.
  pdm::IoStats now;
  for (auto& rp : procs_) now += rp->disks->stats();
  const pdm::IoStats delta = now - rs.trace_mark;
  rs.result.io_per_step.push_back(delta);
  rs.trace_mark = now;
  if (metrics_) {
    obs::SuperstepMetrics m;
    m.step = phys_step_;
    m.round = step_round;
    m.phase = phase_label;
    m.io = delta;
    if (has_comm && !rs.result.comm.steps.empty()) {
      m.has_comm = true;
      m.comm = rs.result.comm.steps.back();
    }
    if (net_) {
      const net::NetStats net_now = net_->stats();
      m.net = net_now - rs.net_step_mark;
      rs.net_step_mark = net_now;
    }
    m.wall_s = rs.step_timer.elapsed_s();
    m.model_io_s = pdm::DiskCostModel{}.io_seconds(delta,
                                                   cfg_.disk.block_bytes);
    m.end_ns = tracer_->now_ns();
    metrics_->record(std::move(m));
  }
  rs.step_timer.reset();
}

// One store group's pass over its local virtual processors (Algorithm 2).
// Both physical superstep kinds share it: per vproc, (b) read the inbox,
// keep the prefetch window full, (d) write the outgoing messages. The
// compute phase adds (a) the context read, (c) the program call and (e) the
// context write back; the regrouping superstep of balanced routing (Lemma 2)
// instead turns the inbox into its outgoing messages engine-side and
// touches only the message store.
void EmEngine::run_group(RunState& rs, std::uint32_t r, bool compute,
                         ProcOutcome& out) {
  const cgm::Program& program = *rs.program;
  const std::uint32_t v = cfg_.v;
  const std::uint32_t p = cfg_.p;
  const std::uint32_t nloc = nlocal();
  const bool balanced = cfg_.balanced_routing;
  obs::Tracer* const tr = tracer_.get();
  try {
    auto& rp = *procs_[r];
    // Span shard discipline: group r's spans go into the shard of the
    // *host driving it* — written by the one worker running that host's
    // task — while the span's rendering coordinates stay with the group's
    // disks.
    const std::uint32_t host = group_host_[r];
    obs::TraceShard* shard = tr ? &tr->host_shard(host) : nullptr;
    const pdm::IoStats* io_src = tr ? &rp.disks->stats() : nullptr;
    obs::SpanScope group_span(tr, shard, obs::SpanKind::kGroupStep, host, r,
                              r, -1, phys_step_, rs.at.round, io_src);
    out.by_owner.assign(p, {});
    // Prefetch window cursor: first local vproc whose context/inbox reads
    // have not been issued yet. Depth 1 (the default) keeps exactly the
    // next vproc in flight.
    const std::uint32_t depth = cfg_.prefetch_depth;
    std::uint32_t pf = 1;
    for (std::uint32_t jl = 0; jl < nloc; ++jl) {
      const std::uint32_t g = r * nloc + jl;
      // (a) context in.
      std::unique_ptr<cgm::ProcState> state;
      UnpackedContext unpacked;
      if (compute) {
        state = program.make_state();
        obs::SpanScope span(tr, shard, obs::SpanKind::kContextRead, host, r,
                            r, g, phys_step_, rs.at.round, io_src);
        const auto blob = rp.contexts->read(jl);
        unpacked = unpack_context(blob, *state);
        span.set_aux(blob.size());
      }
      // (b) messages in.
      std::vector<cgm::Message> inbox;
      {
        obs::SpanScope span(tr, shard, obs::SpanKind::kInboxRead, host, r,
                            r, g, phys_step_, rs.at.round, io_src);
        inbox = rp.messages->read_incoming(g);
        if (tr) {
          std::uint64_t bytes = 0;
          for (const auto& m : inbox) bytes += m.payload.size();
          span.set_aux(bytes);
        }
        if (compute && balanced && rs.at.round > 0) {
          inbox = routing::decode_phase_b(v, g, inbox);
        }
      }
      // Overlap: submit the *next* virtual processors' context and inbox
      // reads now, so the executor services them while this one computes.
      // Safe against this superstep's in-flight writes — context writes
      // target the inactive region, and in Observation-2 single-copy mode
      // vproc j's outgoing slots reuse exactly the band-j blocks its own
      // inbox freed, never band j+1 (per-disk FIFO covers any same-disk
      // pair regardless). Serial arrays skip this: the prefetch would
      // just execute the reads early, changing nothing but span shapes.
      // A window of prefetch_depth vprocs is kept in flight; when the model
      // grants finite memory the compute window additionally stops once its
      // context bytes would exceed M/2, leaving the computing vproc its own
      // residency (cgm::MachineConfig::prefetch_depth). The cursor `pf`
      // guarantees each vproc's reads are issued exactly once per superstep
      // whatever the window shape.
      if (rp.disks->async() && jl + 1 < nloc) {
        std::uint32_t hi = std::min<std::uint32_t>(nloc - 1, jl + depth);
        if (compute && cfg_.memory_bytes > 0 && depth > 1) {
          std::uint64_t budget = cfg_.memory_bytes / 2;
          std::uint32_t lim = jl + 1;  // one ahead is always allowed
          for (std::uint32_t k = jl + 1; k <= hi; ++k) {
            const std::uint64_t cb = rp.contexts->context_bytes(k);
            if (k > jl + 1 && cb > budget) break;
            budget -= std::min(budget, cb);
            lim = k;
          }
          hi = lim;
        }
        if (pf < jl + 1) pf = jl + 1;
        if (pf <= hi) {
          obs::SpanScope span(tr, shard, obs::SpanKind::kIoPrefetch, host, r,
                              r, g + 1, phys_step_, rs.at.round, io_src);
          for (; pf <= hi; ++pf) {
            if (compute) rp.contexts->prefetch(pf);
            rp.messages->prefetch_incoming(r * nloc + pf);
          }
        }
      }
      // (c) compute.
      cgm::ProcCtx pctx(g, v, cfg_.seed);
      std::vector<cgm::Message> physical;
      if (compute) {
        obs::SpanScope span(tr, shard, obs::SpanKind::kCompute, host, r, r,
                            g, phys_step_, rs.at.round);
        pctx.set_inputs(std::move(unpacked.inputs));
        pctx.outputs() = std::move(unpacked.outputs);
        cgm::RoundOutput sent = cgm::compute_round(
            program, pctx, *state, rs.at.round, std::move(inbox), balanced);
        rs.done[g] = sent.done ? 1 : 0;
        span.set_aux(sent.inbox_messages, sent.outbox_messages);
        physical = std::move(sent.sent);
      }
      // (d) messages out. Locally addressed messages are written
      // immediately when p == 1 (Algorithm 2 order, which is what the
      // Observation-2 freed-slot reuse relies on); with p > 1 everything
      // is delivered at superstep end (Algorithm 3: "upon arrival").
      {
        obs::SpanScope span(tr, shard, obs::SpanKind::kOutboxWrite, host, r,
                            r, g, phys_step_, rs.at.round, io_src);
        if (!compute) physical = routing::transform_intermediate(v, g, inbox);
        if (tr) {
          std::uint64_t bytes = 0;
          for (const auto& m : physical) bytes += m.payload.size();
          span.set_aux(physical.size(), bytes);
        }
        if (p == 1) {
          rp.messages->write_messages(physical);
        } else {
          for (auto& m : physical) {
            out.by_owner[owner_of(m.dst)].push_back(std::move(m));
          }
        }
      }
      if (!compute) continue;
      // (e) context out (inputs are consumed by round 0).
      obs::SpanScope span(tr, shard, obs::SpanKind::kContextWrite, host, r,
                          r, g, phys_step_, rs.at.round, io_src);
      const auto new_blob = pack_context({}, *state, pctx.outputs());
      span.set_aux(new_blob.size());
      if (cfg_.memory_bytes > 0) {
        const std::size_t resident = new_blob.size() + pctx.resident_bytes();
        EMCGM_CHECK_MSG(resident <= cfg_.memory_bytes,
                        "virtual processor " << g << " needs " << resident
                                             << " bytes but M = "
                                             << cfg_.memory_bytes);
      }
      rp.contexts->write(jl, new_blob);
    }
    if (rp.disks->async()) {
      // Write-behind completion barrier, inside the try: a crash or fault
      // that fired on a deferred write surfaces here and is collected
      // exactly like a synchronous one, and the superstep's IoStats are
      // fully reaped before the barrier records them.
      obs::SpanScope span(tr, shard, obs::SpanKind::kIoDrain, host, r, r,
                          -1, phys_step_, rs.at.round, io_src);
      rp.disks->drain();
    }
  } catch (...) {
    out.error = std::current_exception();
  }
}

// Run one phase across all p store groups: one task per *live* host on the
// engine's worker pool, each driving the groups currently assigned to it
// (ascending, so the disk-op order per group is independent of the
// assignment). With one worker the caller runs the hosts in ascending
// order. A fail-stop crash (IoError kCrash) out of group g's own disks
// means machine g died — adopted groups run disarmed and cannot crash — so
// crashes are collected into a DeadProcsError for the fail-over path; any
// other error rethrows, as does anything a host task throws outside its
// groups (the open mailbox round is aborted either way so the fault-coin
// cursors stay mode-independent — see SimNetwork::abort_round). With the
// network enabled each host posts a group's step-0 batches as soon as the
// group finishes, and its finish_sender() simulates every endpoint pair it
// completes on the host's own worker, while slower hosts still compute.
// The same pool runs the hosts' arrival pass at the barrier
// (deliver_staged).
std::vector<EmEngine::ProcOutcome> EmEngine::run_phase(RunState& rs,
                                                       bool compute) {
  const std::uint32_t p = cfg_.p;
  std::vector<ProcOutcome> outcomes(p);
  const std::vector<std::uint32_t> hosts = live_hosts();
  try {
    // Started by the first phase, not the constructor: building and
    // starting an engine stay free of thread creation, and one that never
    // steps starts no thread.
    if (!host_workers_) {
      host_workers_ = std::make_unique<WorkerPool>(cfg_.use_threads ? p : 1);
    }
    host_workers_->run(hosts.size(), [&](std::size_t k) {
      const std::uint32_t host = hosts[k];
      for (std::uint32_t g = 0; g < p; ++g) {
        if (group_host_[g] != host) continue;
        run_group(rs, g, compute, outcomes[g]);
        if (net_ && !outcomes[g].error) post_group(rs, host, g, outcomes[g]);
      }
      if (net_) net_->finish_sender(host);
    });
  } catch (...) {
    if (net_) net_->abort_round();
    throw;
  }
  const bool failed = std::any_of(outcomes.begin(), outcomes.end(),
                                  [](const ProcOutcome& o) {
                                    return o.error != nullptr;
                                  });
  if (failed && net_) net_->abort_round();
  for_each_group(p, cfg_.net.failover, [&](std::uint32_t g) {
    if (outcomes[g].error) std::rethrow_exception(outcomes[g].error);
  });
  return outcomes;
}

// ---------------------------------------------------------------- step ----

bool EmEngine::step() {
  ApiGuard guard(busy_, "step");
  EMCGM_CHECK_MSG(rs_ != nullptr,
                  "step() requires an active run (start()/resume())");
  RunState& rs = *rs_;
  if (rs.at.phase == cgm::Phase::kDone) return false;
  const cgm::Program& program = *rs.program;
  obs::Tracer* const tr = tracer_.get();
  obs::TraceShard* const eshard = tr ? &tr->engine_shard() : nullptr;
  const std::uint32_t epid = tr ? tr->engine_pid() : 0;

  // No-progress watchdog (cfg_.chaos.invariants): a high-water mark on the
  // (round, phase) key. Every clean superstep ends by advancing round or
  // phase, so the key moves strictly forward; only fail-over / rejoin
  // replays legitimately revisit it, and their replay chains are bounded by
  // the membership schedule. watchdog_steps consecutive steps without a new
  // high-water mark therefore means livelock, not recovery.
  if (cfg_.chaos.invariants) {
    if (!rs.wd_high || rs.at > *rs.wd_high) {
      rs.wd_high = rs.at;
      rs.wd_stall = 0;
    } else if (++rs.wd_stall >= cfg_.chaos.watchdog_steps) {
      std::ostringstream os;
      os << "no superstep progress past " << *rs.wd_high << " for "
         << rs.wd_stall << " physical supersteps (watchdog_steps = "
         << cfg_.chaos.watchdog_steps << ")";
      throw chaos::InvariantViolation(chaos::Invariant::kWatchdog, os.str());
    }
  }
  try {
    // Engine-shard backbone: one superstep span per physical step; child
    // barrier spans (heartbeat, net collect, commit) nest inside it.
    obs::SpanScope step_span(tr, eshard, obs::SpanKind::kSuperstep, epid, 0,
                             -1, -1, phys_step_, rs.at.round);
    step_span.set_aux(static_cast<std::uint64_t>(rs.at.phase));
    if (net_) {
      // The physical superstep clock drives the fail-stop trigger and the
      // failure detector. It is monotonic: a replayed superstep is a new
      // physical step, so a fault schedule never re-fires "in the past".
      net_->set_step(phys_step_);
      if (cfg_.net.failover) {
        obs::SpanScope hb_span(tr, eshard, obs::SpanKind::kHeartbeat, epid,
                               0, -1, -1, phys_step_, rs.at.round);
        auto newly_dead = net_->heartbeat_round(phys_step_);
        hb_span.set_aux(newly_dead.size());
        if (!newly_dead.empty()) {
          throw DeadProcsError{std::move(newly_dead), nullptr};
        }
      }
      // Deaths take priority (the heartbeat above threw): a rejoin racing
      // a second death is admitted at the next barrier, after the
      // fail-over settled — deterministically, in every threading mode.
      try_rejoin(rs.at.round, rs.result);
    }
    const bool compute = rs.at.phase == cgm::Phase::kCompute;
    // Open step 0 of the schedule: hosts post crossing batches as their
    // groups finish; deliver_staged closes it at the barrier.
    if (net_) net_->begin_round();
    auto outcomes = run_phase(rs, compute);
    if (compute) {
      rs.result.app_rounds += 1;
      const bool all_done = cgm::agree_done(program, rs.at.round, rs.done);
      for (auto& rp : procs_) rp->contexts->flip();
      if (all_done) {
        // A final round sends nothing (compute_round enforces it), so the
        // open mailbox round is empty — close it without a delivery pass.
        if (net_) {
          obs::SpanScope net_span(tr, eshard, obs::SpanKind::kNetCollect,
                                  epid, 0, -1, -1, phys_step_, rs.at.round);
          net_->collect();
        }
        rs.at.phase = cgm::Phase::kDone;
        if (cfg_.checkpointing) commit(rs.at);
        verify_drained("the final barrier");
        record_step_io(rs, "final", false, rs.at.round);
        ++phys_step_;
        return false;
      }
    }
    deliver_staged(rs, outcomes);
    verify_drained(compute ? "the compute barrier" : "the regroup barrier");
    for (auto& rp : procs_) rp->messages->flip();
    const std::uint64_t ran_round = rs.at.round;
    rs.at.advance(cfg_.balanced_routing);
    if (cfg_.checkpointing) commit(rs.at);
    record_step_io(rs, compute ? "compute" : "regroup", true, ran_round);
    ++phys_step_;
  } catch (const DeadProcsError& e) {
    // One or more machines died mid-superstep. Absorb the loss (or rethrow
    // the underlying fault if fail-over cannot help) and replay from the
    // last committed boundary with the new ownership map.
    failover(e.procs, e.cause, rs.result);
    rs.at = commit_.at;
    ++phys_step_;
  }
  return rs.at.phase != cgm::Phase::kDone;
}

std::vector<cgm::PartitionSet> EmEngine::finish() {
  ApiGuard guard(busy_, "finish");
  EMCGM_CHECK_MSG(rs_ != nullptr,
                  "finish() requires an active run (start()/resume())");
  EMCGM_CHECK_MSG(rs_->at.phase == cgm::Phase::kDone,
                  "finish() before the program finished (drive step() until"
                  " it returns false)");
  RunState& rs = *rs_;
  const cgm::Program& program = *rs.program;
  const std::uint32_t v = cfg_.v;
  const std::uint32_t nloc = nlocal();
  obs::Tracer* const tr = tracer_.get();
  obs::TraceShard* const eshard = tr ? &tr->engine_shard() : nullptr;
  const std::uint32_t epid = tr ? tr->engine_pid() : 0;

  // ------------------------------------------------------ collect output --
  // A machine can still fail-stop here, while its contexts are being read
  // back; the final boundary is committed (Phase::kDone), so absorbing the
  // loss and re-reading through the survivor is safe.
  std::vector<cgm::PartitionSet> outputs;
  obs::SpanScope out_span(tr, eshard, obs::SpanKind::kOutputCollect, epid, 0,
                          -1, -1, phys_step_, rs.at.round);
  out_span.set_aux(v);
  for (;;) {
    std::uint32_t reading_group = 0;
    try {
      outputs.clear();
      for (std::uint32_t g = 0; g < v; ++g) {
        reading_group = owner_of(g);
        auto& rp = *procs_[reading_group];
        const auto blob = rp.contexts->read(g % nloc);
        auto state = program.make_state();
        auto unpacked = unpack_context(blob, *state);
        cgm::place_outputs(outputs, v, g, std::move(unpacked.outputs));
      }
      break;
    } catch (const IoError& e) {
      if (e.kind() != IoErrorKind::kCrash || !cfg_.net.failover) throw;
      failover({reading_group}, std::current_exception(), rs.result);
    }
  }

  record_step_io(rs, "output", false, rs.at.round);  // output-collection reads

  pdm::IoStats io_after;
  for (auto& rp : procs_) io_after += rp->disks->stats();
  rs.result.io = io_after - rs.io_before;
  if (net_) rs.result.net = net_->stats() - rs.net_before;

  rs.result.wall_s = rs.timer.elapsed_s();
  last_ = rs.result;
  total_ += rs.result;
  rs_.reset();
  return outputs;
}

}  // namespace emcgm::em
