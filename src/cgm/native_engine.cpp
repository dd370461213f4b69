#include "cgm/native_engine.h"

#include <algorithm>
#include <utility>

#include "cgm/superstep.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "routing/balanced_routing.h"
#include "util/timer.h"

namespace emcgm::cgm {

namespace {

// The h-relation of one delivery over the v virtual processors.
StepComm record_step_comm(const std::vector<Message>& delivered,
                          std::uint32_t v) {
  StepComm step;
  std::vector<std::uint64_t> sent(v, 0), recv(v, 0);
  for (const auto& m : delivered) {
    const std::uint64_t n = m.payload.size();
    if (n == 0) continue;
    step.messages += 1;
    step.bytes += n;
    sent[m.src] += n;
    recv[m.dst] += n;
    step.min_msg_bytes = std::min(step.min_msg_bytes, n);
    step.max_msg_bytes = std::max(step.max_msg_bytes, n);
  }
  for (std::uint32_t i = 0; i < v; ++i) {
    step.max_sent = std::max(step.max_sent, sent[i]);
    step.max_recv = std::max(step.max_recv, recv[i]);
    if (sent[i] > 0) step.min_sent = std::min(step.min_sent, sent[i]);
    if (recv[i] > 0) step.min_recv = std::min(step.min_recv, recv[i]);
  }
  return step;
}

}  // namespace

NativeEngine::NativeEngine(MachineConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.validate();
  if (cfg_.obs.trace) {
    tracer_ = std::make_unique<obs::Tracer>(1);
    metrics_ = std::make_unique<obs::MetricsRegistry>();
  }
}

NativeEngine::~NativeEngine() = default;

std::vector<PartitionSet> NativeEngine::run(
    const Program& program, std::vector<PartitionSet> inputs) {
  Timer timer;
  const std::uint32_t v = cfg_.v;
  const bool balanced = cfg_.balanced_routing;
  RunResult result;

  // The virtual processors, each holding its input parts through round 0.
  check_inputs(inputs, v);
  std::vector<ProcCtx> ctxs;
  ctxs.reserve(v);
  std::vector<std::unique_ptr<ProcState>> states;
  states.reserve(v);
  for (std::uint32_t j = 0; j < v; ++j) {
    ctxs.emplace_back(j, v, cfg_.seed);
    ctxs[j].set_inputs(take_inputs(inputs, j));
    states.push_back(program.make_state());
  }

  obs::Tracer* const tr = tracer_.get();
  obs::TraceShard* const shard = tr ? &tr->host_shard(0) : nullptr;
  std::vector<std::vector<Message>> inboxes(v);
  std::vector<char> done(v, 0);
  Superstep at;
  std::uint64_t phys = 0;  ///< physical superstep counter (spans, metrics)
  Timer step_timer;
  auto record_metrics = [&](const char* phase_label, const StepComm* comm) {
    if (!metrics_) return;
    obs::SuperstepMetrics m;
    m.step = phys;
    m.round = at.round;
    m.phase = phase_label;
    if (comm) {
      m.has_comm = true;
      m.comm = *comm;
    }
    m.wall_s = step_timer.elapsed_s();
    m.end_ns = tr->now_ns();
    metrics_->record(std::move(m));
    step_timer.reset();
  };

  // One physical superstep per iteration. Every superstep but the final one
  // ends in one delivery of the messages its virtual processors sent.
  for (;; ++phys) {
    const bool compute = at.phase == Phase::kCompute;
    obs::SpanScope step_span(tr, shard, obs::SpanKind::kSuperstep, 0, 0, -1,
                             -1, phys, at.round);
    step_span.set_aux(static_cast<std::uint64_t>(at.phase));
    std::vector<Message> sent;
    for (std::uint32_t j = 0; j < v; ++j) {
      std::vector<Message> inbox = std::exchange(inboxes[j], {});
      std::vector<Message> out;
      if (compute) {
        obs::SpanScope span(tr, shard, obs::SpanKind::kCompute, 0, j, -1, j,
                            phys, at.round);
        // Under balanced routing a later round's inbox is round B's output.
        if (balanced && at.round > 0) {
          inbox = routing::decode_phase_b(v, j, inbox);
        }
        RoundOutput r = compute_round(program, ctxs[j], *states[j], at.round,
                                      std::move(inbox), balanced);
        span.set_aux(r.inbox_messages, r.outbox_messages);
        if (at.round == 0) ctxs[j].clear_inputs();
        done[j] = r.done ? 1 : 0;
        out = std::move(r.sent);
      } else {
        out = routing::transform_intermediate(v, j, inbox);
      }
      for (auto& m : out) sent.push_back(std::move(m));
    }
    if (compute) {
      result.app_rounds += 1;
      if (agree_done(program, at.round, done)) {
        record_metrics("final", nullptr);
        break;
      }
    }

    const StepComm step = record_step_comm(sent, v);
    {
      obs::SpanScope span(tr, shard, obs::SpanKind::kDeliver, 0, 0, -1, -1,
                          phys, at.round);
      span.set_aux(step.messages, step.bytes);
      for (auto& m : sent) inboxes[m.dst].push_back(std::move(m));
    }
    close_delivery(result, step);
    record_metrics(compute ? "compute" : "regroup", &step);
    at.advance(balanced);
  }

  std::vector<PartitionSet> outputs;
  for (std::uint32_t j = 0; j < v; ++j) {
    place_outputs(outputs, v, j, std::move(ctxs[j].outputs()));
  }
  result.wall_s = timer.elapsed_s();
  last_ = result;
  total_ += result;
  return outputs;
}

}  // namespace emcgm::cgm
