// The four workloads, untraced (end-to-end metrics) and traced (per-layer
// metrics).
//
// Every untraced workload runs in rounds: deploy a fresh pipeline (one
// set-up sample), run a fixed amount of work on the same seeded inputs,
// gate its outputs, tear it down. Rounds repeat until --seconds have been
// measured; round 0 is a gated warm-up and is not measured. A host probe
// runs between units of work, and each round's times are scaled by it to
// the reference host speed (see HostProbe). Reported figures are medians
// over rounds, so one round disturbed by the host moves no figure.
//
// A traced run alternates untraced and traced blocks on one deployment.
// In a traced block each unit of work gets a root span, then its layer
// calls are replayed on the same input through the public APIs, on the
// deployed objects where the pipeline exposes them (channel(),
// telemetry(), audit(), batch_runner(), quantized_model()) and on twins
// built exactly like the pipeline's elsewhere. Replay spans name the root
// span as parent.
#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "bench.hpp"
#include "dl/batch.hpp"
#include "dl/engine.hpp"
#include "dl/plan.hpp"
#include "dl/qplan.hpp"
#include "dl/quant.hpp"
#include "safety/campaign.hpp"
#include "supervise/metrics.hpp"
#include "supervise/supervisor.hpp"
#include "trace/audit.hpp"
#include "trace/odd.hpp"
#include "verify/range.hpp"

namespace decbench {
namespace {

using sx::core::CertifiablePipeline;
using sx::core::Decision;
using sx::tensor::Tensor;

/// Decisions per decide round: enough that each round's p99 keeps ten
/// samples beyond it.
constexpr std::size_t kDecideRound = 1000;
/// Fault trials per campaign round: trials 1..n-1 give timing samples, and
/// a round p99 needs 1000 of them.
constexpr std::size_t kCampaignRound = 1200;
constexpr std::size_t kProbesPerFault = 8;
/// Measured rounds a run makes at least, however short --seconds is.
constexpr std::size_t kMinRounds = 3;
/// Work units per block of a traced run.
constexpr std::size_t kTraceBlock = 100;
/// Work units between two host-speed probes in an untraced round.
constexpr std::size_t kProbeEvery = 10;

std::unique_ptr<CertifiablePipeline> deploy(
    const sx::core::PipelineConfig& cfg) {
  return std::make_unique<CertifiablePipeline>(perception_cnn(),
                                               calibration(), cfg);
}

template <typename Fn>
double time_ms(Fn&& fn, std::size_t reps) {
  std::vector<double> ms;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(micros_between(t0, Clock::now()) / 1000.0);
  }
  return median(std::move(ms));
}

/// Times `fn` as a child span of `parent`; returns the span's id.
template <typename Fn>
std::uint64_t child_span(SpanLog& spans, const char* name,
                         std::uint64_t parent, Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return spans.record(name, parent, t0, Clock::now());
}

/// Writes the span file and the per-layer summary of a traced run, and
/// records the host probe so per-layer times can be read against it.
void finish_trace(RunResult& res, const SpanLog& spans, const Options& opt) {
  HostProbe probe;
  for (int i = 0; i < 50; ++i) probe.sample();
  res.add("host.probe_us", probe.median_us(), "us");
  res.layers = spans.summary();
  res.spans_file = opt.out_dir + "/spans-" + opt.workload + "-seed" +
                   std::to_string(opt.seed) + ".jsonl";
  if (!spans.write(res.spans_file)) res.gate.fail("cannot write span file");
}

void count_decision(Gate& gate, const Decision& d) {
  ++gate.attempted;
  if (d.status == sx::Status::kOddViolation) {
    ++gate.refusals;
  } else if (!sx::ok(d.status)) {
    gate.fail("decision status " + std::string(sx::to_string(d.status)));
  }
}

/// Multiply-accumulates and parameter bytes of one float inference,
/// computed from the layer shapes (not measured).
struct ModelWork {
  double macs = 0.0;
  double param_bytes = 0.0;
};

ModelWork model_work(const sx::dl::Model& m) {
  ModelWork w;
  for (std::size_t i = 0; i < m.layer_count(); ++i) {
    const std::size_t params = m.layer(i).params().size();
    if (params == 0) continue;
    // Dense and Conv2d: one bias per output channel (dim 0 of the output).
    const sx::tensor::Shape& out = m.activation_shape(i);  // after layer i
    const std::size_t channels = out.dim(0);
    const std::size_t weights = params - channels;
    w.macs += static_cast<double>(out.size() / channels) *
              static_cast<double>(weights);
    w.param_bytes += static_cast<double>(params) * sizeof(float);
  }
  return w;
}

double hist_mean(const sx::obs::Registry& reg, std::string_view name) {
  const auto id = reg.find_histogram(name);
  if (!id.valid()) return 0.0;
  const auto snap = reg.histogram_snapshot(id);
  return snap.count == 0 ? 0.0
                         : static_cast<double>(snap.sum) /
                               static_cast<double>(snap.count);
}

std::uint64_t counter(const sx::obs::Registry& reg, std::string_view name) {
  const auto id = reg.find_counter(name);
  return id.valid() ? reg.value(id) : 0;
}

/// Twins of the supervisor path, built exactly like the pipeline's.
struct SupervisorTwin {
  sx::supervise::MahalanobisSupervisor mahal;
  std::unique_ptr<sx::dl::StaticEngine> tap;
  std::vector<float> feat;
  std::vector<float> logits;
  double fit_ms = 0.0;

  explicit SupervisorTwin(sx::dl::KernelMode mode) {
    const auto& model = perception_cnn();
    const auto t0 = Clock::now();
    mahal.fit(model, calibration());
    mahal.calibrate_threshold(
        sx::supervise::collect_scores(mahal, model, calibration()), 0.95);
    fit_ms = micros_between(t0, Clock::now()) / 1000.0;
    sx::dl::StaticEngineConfig cfg;
    cfg.check_numeric_faults = false;
    cfg.kernels = mode;
    cfg.pin_tap_layer = mahal.feature_layer();
    tap = std::make_unique<sx::dl::StaticEngine>(model, cfg);
    if (!tap->can_tap(mahal.feature_layer()))
      throw std::runtime_error("supervisor twin: feature layer not tappable");
    feat.assign(mahal.feature_dim(), 0.0f);
    logits.assign(model.output_shape().size(), 0.0f);
  }

  /// Replays the supervisor stage of one decision as two child spans.
  void replay(SpanLog& spans, std::uint64_t parent, const Tensor& in) {
    child_span(spans, "dl.run_tapped", parent, [&] {
      (void)tap->run_tapped(in.view(), logits, mahal.feature_layer(), feat);
    });
    child_span(spans, "supervise.score_from_features", parent,
               [&] { (void)mahal.score_from_features(feat); });
  }
};

std::string decision_payload(const Decision& d) {
  std::ostringstream payload;
  payload << "class=" << d.predicted_class << " conf=" << d.confidence
          << " degraded=" << (d.degraded ? 1 : 0)
          << " sup=" << d.supervisor_score;
  return payload.str();
}

/// Per-layer figures shared by every traced workload.
void add_span_metrics(RunResult& res, const SpanLog& spans,
                      std::vector<double> untraced_us,
                      std::vector<double> traced_us) {
  const double untraced = median(std::move(untraced_us));
  const double traced = median(std::move(traced_us));
  res.add("bench.untraced_decision_p50_us", untraced, "us");
  res.add("bench.traced_decision_p50_us", traced, "us");
  res.add("obs.tracing_overhead_share",
          untraced > 0.0 ? (traced - untraced) / untraced : 0.0, "ratio");
  res.add("trace.odd_check_us", spans.median_us("trace.odd_check"), "us");
  res.add("trace.audit_append_us", spans.median_us("trace.audit_append"),
          "us");
  res.add("dl.run_tapped_us", spans.median_us("dl.run_tapped"), "us");
  res.add("supervise.score_from_features_us",
          spans.median_us("supervise.score_from_features"), "us");
}

// ------------------------------------------------------------ decide

struct DecideRound {
  std::vector<double> latency_us;
  std::vector<DecisionKey> keys;
  DecisionDigest digest;
  double busy_s = 0.0;  ///< summed infer() time
};

/// One pass over `frames`; samples `probe` between decisions when given.
DecideRound decide_round(CertifiablePipeline& p,
                         const std::vector<Tensor>& frames, Gate* gate,
                         HostProbe* probe = nullptr) {
  DecideRound r;
  r.latency_us.reserve(frames.size());
  r.keys.reserve(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (probe != nullptr && i % kProbeEvery == 0) probe->sample();
    const auto t0 = Clock::now();
    const Decision d = p.infer(frames[i], i, 0);
    r.latency_us.push_back(micros_between(t0, Clock::now()));
    r.busy_s += r.latency_us.back() / 1e6;
    r.keys.push_back(DecisionKey::of(d));
    r.digest.add(d);
    if (gate != nullptr) count_decision(*gate, d);
  }
  return r;
}

struct Reference {
  std::vector<DecisionKey> keys;
  std::string digest;
};

Reference reference_decisions(sx::core::PipelineConfig cfg,
                              const std::vector<Tensor>& frames,
                              RunResult& res) {
  cfg.kernel_mode = sx::dl::KernelMode::kReference;
  auto p = deploy(cfg);
  res.kernel_backends.push_back("reference twin: " + p->kernel_backend());
  DecideRound r = decide_round(*p, frames, nullptr);
  return Reference{std::move(r.keys), r.digest.hex()};
}

RunResult trace_decide(const Options& opt,
                       const sx::core::PipelineConfig& cfg, bool sil3,
                       const std::vector<Tensor>& frames,
                       const Reference& ref, RunResult res) {
  const auto& model = perception_cnn();
  const sx::dl::KernelMode mode = sx::dl::resolve_kernel_mode(cfg.kernel_mode);

  // Deploy-time layers, timed on twins.
  res.add("dl.plan_build_ms",
          mode == sx::dl::KernelMode::kReference
              ? 0.0
              : time_ms([&] { sx::dl::KernelPlan plan{model, mode}; }, 5),
          "ms");
  sx::dl::StaticEngine engine{
      model, {.check_numeric_faults = true, .kernels = cfg.kernel_mode}};
  res.add("dl.arena_bytes",
          static_cast<double>(engine.arena_capacity() * sizeof(float)),
          "bytes");
  res.add("dl.panel_bytes",
          engine.kernel_plan() == nullptr
              ? 0.0
              : static_cast<double>(engine.kernel_plan()->panel_floats() *
                                    sizeof(float)),
          "bytes");
  SupervisorTwin sup{cfg.kernel_mode};
  res.add("supervise.fit_ms", sup.fit_ms, "ms");
  sx::trace::OddGuard odd = sx::trace::OddGuard::fit(calibration());
  if (sil3) {
    sx::dl::StaticEngineConfig vcfg;
    vcfg.kernels = cfg.kernel_mode;
    res.add("verify.verify_model_ms",
            time_ms([&] {
              (void)sx::verify::verify_model(model, odd.spec(), vcfg);
            }, 3),
            "ms");
  }

  auto p = deploy(cfg);
  sx::core::PipelineConfig off_cfg = cfg;
  off_cfg.enable_telemetry = false;
  auto p_off = deploy(off_cfg);
  res.kernel_backends.push_back(p->kernel_backend());
  res.kernel_backends.push_back("telemetry-off twin: " +
                                p_off->kernel_backend());

  sx::trace::AuditLog audit_twin;
  std::vector<float> out(model.output_shape().size());
  SpanLog spans;
  std::vector<double> untraced_us, traced_us, off_us;
  // The first frames.size() decisions of each pipeline are gated against
  // the reference twin.
  DecideRound gated_on, gated_off;
  std::size_t cursor_on = 0, cursor_off = 0;

  auto decide = [&](CertifiablePipeline& pipe, std::size_t& cursor,
                    DecideRound& gated) {
    const Tensor& frame = frames[cursor % frames.size()];
    const auto t0 = Clock::now();
    const Decision d = pipe.infer(frame, cursor, 0);
    const auto t1 = Clock::now();
    count_decision(res.gate, d);
    if (cursor < frames.size()) {
      gated.keys.push_back(DecisionKey::of(d));
      gated.digest.add(d);
    }
    ++cursor;
    return std::tuple{d, t0, t1};
  };

  const auto start = Clock::now();
  for (std::size_t block = 0;
       block < 3 * kMinRounds || seconds_since(start) < opt.seconds ||
       cursor_on < frames.size() || cursor_off < frames.size();
       ++block) {
    for (std::size_t i = 0; i < kTraceBlock; ++i) {
      switch (block % 3) {
        case 0: {
          [[maybe_unused]] const auto [d, t0, t1] =
              decide(*p, cursor_on, gated_on);
          untraced_us.push_back(micros_between(t0, t1));
          break;
        }
        case 1: {
          const Tensor& frame = frames[cursor_on % frames.size()];
          const std::uint64_t lt = cursor_on;
          const auto [d, t0, t1] = decide(*p, cursor_on, gated_on);
          traced_us.push_back(micros_between(t0, t1));
          const std::uint64_t id = spans.record("core.infer", 0, t0, t1);
          child_span(spans, "trace.odd_check", id,
                     [&] { (void)odd.check(frame.view()); });
          // The engine run is one part of the channel's work (the monitor
          // or the redundancy and safety bag are the rest).
          const std::uint64_t channel_id =
              child_span(spans, "safety.channel_infer", id, [&] {
                (void)p->channel()->infer(frame.view(), out);
              });
          child_span(spans, "dl.engine_run", channel_id,
                     [&] { (void)engine.run(frame.view(), out); });
          sup.replay(spans, id, frame);
          const std::string payload = decision_payload(d);
          child_span(spans, "trace.audit_append", id, [&] {
            audit_twin.append(lt, "channel", "decision", payload);
          });
          break;
        }
        default: {
          [[maybe_unused]] const auto [d, t0, t1] =
              decide(*p_off, cursor_off, gated_off);
          off_us.push_back(micros_between(t0, t1));
          break;
        }
      }
    }
  }
  res.gate.check_round(gated_on.keys, gated_on.digest.hex(), ref.keys,
                       ref.digest);
  res.gate.check_round(gated_off.keys, gated_off.digest.hex(), ref.keys,
                       ref.digest);

  const sx::obs::Registry& reg = *p->telemetry();
  const double dec = hist_mean(reg, "sx_decision_cycles");
  const double odd_ns = hist_mean(reg, "sx_stage_odd_guard_cycles");
  const double inf_ns = hist_mean(reg, "sx_stage_inference_cycles");
  const double sup_ns = hist_mean(reg, "sx_stage_supervisor_cycles");
  res.add("core.decision_cycles", dec, "ns");
  res.add("core.stage_odd_guard_cycles", odd_ns, "ns");
  res.add("core.stage_inference_cycles", inf_ns, "ns");
  res.add("core.stage_supervisor_cycles", sup_ns, "ns");
  res.add("core.unstaged_share",
          dec > 0.0 ? 1.0 - (odd_ns + inf_ns + sup_ns) / dec : 0.0, "ratio");
  res.add("core.infer_self_us", spans.median_self_us("core.infer"), "us");

  const ModelWork work = model_work(model);
  const double engine_us = spans.median_us("dl.engine_run");
  res.add("dl.engine_run_us", engine_us, "us");
  res.add("tensor.macs_per_inference", work.macs, "count");
  res.add("tensor.weight_bytes_per_inference", work.param_bytes, "bytes");
  res.add("tensor.gmacs_per_s",
          engine_us > 0.0 ? work.macs / (engine_us * 1e3) : 0.0, "GMAC/s");
  res.add("safety.channel_infer_us", spans.median_us("safety.channel_infer"),
          "us");
  res.add("trace.audit_entries_per_decision",
          static_cast<double>(p->audit().size()) /
              static_cast<double>(std::max<std::uint64_t>(p->decisions(), 1)),
          "ratio");
  res.add("obs.telemetry_cost_us", median(untraced_us) - median(off_us),
          "us");
  add_span_metrics(res, spans, std::move(untraced_us), std::move(traced_us));
  finish_trace(res, spans, opt);
  return res;
}

// ------------------------------------------------------------- serve

struct ServeDeployment {
  std::unique_ptr<CertifiablePipeline> pipeline;
  std::unique_ptr<sx::serve::Server> server;
  double pipeline_s = 0.0;
  double server_s = 0.0;
};

ServeDeployment deploy_serving() {
  ServeDeployment d;
  const auto t0 = Clock::now();
  d.pipeline = deploy(serve_pipeline_config());
  const auto t1 = Clock::now();
  d.server = std::make_unique<sx::serve::Server>(*d.pipeline,
                                                 serve_server_config());
  d.pipeline_s = micros_between(t0, t1) / 1e6;
  d.server_s = micros_between(t1, Clock::now()) / 1e6;
  return d;
}

/// Gates one finished serving replay against the unsliced reference.
void gate_serving(Gate& gate, const sx::serve::Server& server,
                  const std::string& ref_digest) {
  gate.attempted += server.requests();
  gate.refusals += server.shed_count();
  for (const auto& rec : server.served()) {
    if (rec.decision.status == sx::Status::kOddViolation) {
      ++gate.refusals;
    } else if (!sx::ok(rec.decision.status)) {
      gate.fail("served decision status " +
                std::string(sx::to_string(rec.decision.status)));
    }
  }
  if (server.decision_digest() != ref_digest)
    gate.fail("serving digest " + server.decision_digest().substr(0, 16) +
                  " != unsliced replay " + ref_digest.substr(0, 16),
              server.served_count());
  if (server.hi_deadline_misses() > 0)
    gate.fail("HI deadline misses", server.hi_deadline_misses());
  if (server.queue_rejections() > 0)
    gate.fail("queue rejections", server.queue_rejections());
  std::uint64_t audited = 0;
  for (const auto& e : server.audit().entries())
    if (e.action == "shed") ++audited;
  if (audited != server.shed_count())
    gate.fail("sheds " + std::to_string(server.shed_count()) +
              " != audited sheds " + std::to_string(audited));
}

/// Charges every request of a replayed busy period its share of the
/// period's wall time: one latency sample per request, served or shed.
void add_request_samples(std::vector<double>& samples, double wall_us,
                         std::size_t requests) {
  samples.insert(samples.end(), requests,
                 wall_us / static_cast<double>(requests));
}

RunResult trace_serve(const Options& opt,
                      const std::vector<sx::serve::ArrivalTrace>& slices,
                      const std::vector<Tensor>& pool,
                      const std::string& ref_digest, RunResult res) {
  const sx::core::PipelineConfig cfg = serve_pipeline_config();
  const auto& model = perception_cnn();
  const sx::dl::KernelMode mode =
      sx::dl::resolve_kernel_mode(cfg.quant_engine.kernels);

  res.add("dl.quantize_ms", time_ms([&] {
            (void)sx::dl::QuantizedModel::quantize(
                sx::dl::fold_batchnorm(model), calibration(),
                sx::dl::QuantConfig{cfg.quant_granularity});
          }, 3),
          "ms");
  SupervisorTwin sup{cfg.kernel_mode};
  res.add("supervise.fit_ms", sup.fit_ms, "ms");
  sx::trace::OddGuard odd = sx::trace::OddGuard::fit(calibration());
  sx::trace::AuditLog audit_twin;

  SpanLog spans;
  std::vector<double> untraced_us, traced_us, server_ms;
  double slice_wall_us = 0.0, batch_wall_us = 0.0, batch_busy_us = 0.0;
  std::uint64_t batches = 0, items = 0;
  std::vector<double> worker_busy;
  std::uint64_t requests = 0, served = 0, shed = 0, windows = 0, full = 0,
                rejected = 0, untraced_requests = 0;
  double latency_p99 = 0.0;
  std::vector<double> dispatch_us;

  const auto start = Clock::now();
  for (std::size_t round = 0;
       round < 2 * kMinRounds || seconds_since(start) < opt.seconds;
       ++round) {
    ServeDeployment dep = deploy_serving();
    server_ms.push_back(dep.server_s * 1e3);
    CertifiablePipeline& p = *dep.pipeline;
    sx::serve::Server& server = *dep.server;
    if (round == 0) {
      res.kernel_backends.push_back(p.kernel_backend());
      res.add("dl.plan_build_ms",
              mode == sx::dl::KernelMode::kReference
                  ? 0.0
                  : time_ms([&] {
                      sx::dl::QuantKernelPlan plan{*p.quantized_model(),
                                                   mode};
                    }, 5),
              "ms");
    }
    sx::dl::QuantEngine qengine{*p.quantized_model(), cfg.quant_engine};
    std::vector<float> out(model.output_shape().size());
    const bool traced = round % 2 == 1;
    for (const auto& slice : slices) {
      const std::size_t first = server.served().size();
      const auto t0 = Clock::now();
      server.run_trace(slice, pool);
      const auto t1 = Clock::now();
      if (!traced) {
        add_request_samples(untraced_us, micros_between(t0, t1),
                            slice.requests.size());
        slice_wall_us += micros_between(t0, t1);
        continue;
      }
      add_request_samples(traced_us, micros_between(t0, t1),
                          slice.requests.size());
      const std::uint64_t id = spans.record("serve.run_trace", 0, t0, t1);
      for (std::size_t k = first; k < server.served().size(); ++k) {
        const auto& rec = server.served()[k];
        const Tensor& in = pool[rec.request.payload];
        child_span(spans, "trace.odd_check", id,
                   [&] { (void)odd.check(in.view()); });
        if (rec.decision.status == sx::Status::kOddViolation) continue;
        child_span(spans, "dl.quant_engine_run", id,
                   [&] { (void)qengine.run(in.view(), out); });
        sup.replay(spans, id, in);
        const std::string payload = decision_payload(rec.decision);
        child_span(spans, "trace.audit_append", id, [&] {
          audit_twin.append(rec.completion, "batch-engine", "decision",
                            payload);
        });
      }
    }
    gate_serving(res.gate, server, ref_digest);
    if (round == 0) {
      res.add("dl.arena_bytes", static_cast<double>(qengine.arena_capacity()),
              "bytes");
      res.add("dl.panel_bytes",
              qengine.plan() == nullptr
                  ? 0.0
                  : static_cast<double>(qengine.plan()->panel_bytes()),
              "bytes");
      res.add("tensor.weight_bytes_per_inference",
              static_cast<double>(p.quantized_model()->weight_bytes()),
              "bytes");
      res.add("trace.audit_entries_per_decision",
              static_cast<double>(p.audit().size()) /
                  static_cast<double>(
                      std::max<std::uint64_t>(p.decisions(), 1)),
              "ratio");
      std::vector<double> lat(server.served_count());
      const std::size_t got = server.telemetry().drain_samples(
          server.telemetry().histogram("sx_serve_latency"), lat);
      lat.resize(got);
      std::sort(lat.begin(), lat.end());
      latency_p99 = lat.empty() ? 0.0 : percentile(lat, tail_percentile(got));
    }
    if (!traced) {
      untraced_requests += server.requests();
      const sx::dl::BatchRunner& br = *p.batch_runner();
      batches += br.batch_count();
      items += br.item_count();
      batch_wall_us += br.total_wall_micros();
      batch_busy_us += br.total_busy_micros();
      worker_busy.resize(br.workers(), 0.0);
      for (std::size_t w = 0; w < br.workers(); ++w)
        worker_busy[w] += br.worker_stats(w).busy_micros;
      if (br.batch_count() > 0)
        dispatch_us.push_back(br.total_wall_micros() /
                              static_cast<double>(br.batch_count()));
    }
    const sx::obs::Registry& reg = server.telemetry();
    requests += server.requests();
    served += server.served_count();
    shed += server.shed_count();
    windows += counter(reg, "sx_serve_windows_total");
    full += counter(reg, "sx_serve_window_full_total");
    rejected += server.queue_rejections();
  }

  const double workers = static_cast<double>(std::max<std::size_t>(
      worker_busy.size(), 1));
  const double mean_busy = batch_busy_us / workers;
  const double max_busy =
      worker_busy.empty()
          ? 0.0
          : *std::max_element(worker_busy.begin(), worker_busy.end());
  res.add("dl.quant_engine_run_us", spans.median_us("dl.quant_engine_run"),
          "us");
  res.add("dl.batch_dispatch_us", median(dispatch_us), "us");
  res.add("dl.batch_items_per_dispatch",
          batches > 0 ? static_cast<double>(items) / static_cast<double>(batches)
                      : 0.0,
          "count");
  res.add("dl.batch_worker_utilization",
          batch_wall_us > 0.0 ? batch_busy_us / (workers * batch_wall_us)
                              : 0.0,
          "ratio");
  res.add("dl.batch_worker_imbalance",
          mean_busy > 0.0 ? max_busy / mean_busy : 0.0, "ratio");
  res.add("dl.batch_wall_share",
          slice_wall_us > 0.0 ? batch_wall_us / slice_wall_us : 0.0, "ratio");
  res.add("serve.run_trace_us_per_request",
          untraced_requests > 0
              ? slice_wall_us / static_cast<double>(untraced_requests)
              : 0.0,
          "us");
  res.add("serve.items_per_window",
          windows > 0 ? static_cast<double>(served) /
                            static_cast<double>(windows)
                      : 0.0,
          "count");
  res.add("serve.window_fill_share",
          windows > 0 ? static_cast<double>(full) /
                            static_cast<double>(windows)
                      : 0.0,
          "ratio");
  res.add("serve.shed_share",
          requests > 0 ? static_cast<double>(shed) /
                             static_cast<double>(requests)
                       : 0.0,
          "ratio");
  res.add("serve.queue_rejections", static_cast<double>(rejected), "count");
  res.add("serve.latency_p99_logical", latency_p99, "ticks");
  res.add("serve.server_setup_ms", median(server_ms), "ms");

  const ModelWork work = model_work(model);
  res.add("tensor.macs_per_inference", work.macs, "count");
  const double qrun = spans.median_us("dl.quant_engine_run");
  res.add("tensor.gmacs_per_s", qrun > 0.0 ? work.macs / (qrun * 1e3) : 0.0,
          "GMAC/s");
  add_span_metrics(res, spans, std::move(untraced_us), std::move(traced_us));
  finish_trace(res, spans, opt);
  return res;
}

// ---------------------------------------------------------- campaign

sx::safety::CampaignConfig campaign_config(std::uint64_t seed) {
  return sx::safety::CampaignConfig{.n_faults = kCampaignRound,
                                    .probes_per_fault = kProbesPerFault,
                                    .fault_type =
                                        sx::safety::FaultType::kBitFlip,
                                    .seed = seed};
}

struct CampaignRound {
  sx::safety::CampaignOutcome outcome;
  std::vector<double> trial_us;  ///< trials 1..n-1 (trial 0 carries the
                                 ///< golden probe pass)
  double busy_s = 0.0;  ///< campaign wall time, host probes excluded
};

/// One campaign over [0, n_faults); samples `host` between trials when
/// given (outside every trial's timing).
CampaignRound campaign_round(sx::safety::InferenceChannel& channel,
                             const sx::dl::Dataset& probes,
                             const sx::safety::CampaignConfig& cc,
                             HostProbe* host = nullptr) {
  CampaignRound r;
  r.trial_us.reserve(cc.n_faults);
  const double probed_before = host != nullptr ? host->total_us() : 0.0;
  const auto start = Clock::now();
  auto last = start;
  r.outcome = sx::safety::run_campaign_range(
      channel, probes, cc, 0, cc.n_faults,
      [&](std::uint64_t trial, const sx::safety::CampaignOutcome&) {
        if (trial > 0) r.trial_us.push_back(micros_between(last, Clock::now()));
        if (host != nullptr && trial % kProbeEvery == 0) host->sample();
        last = Clock::now();
      });
  const double probed_us =
      host != nullptr ? host->total_us() - probed_before : 0.0;
  r.busy_s = seconds_since(start) - probed_us / 1e6;
  return r;
}

void gate_campaign(Gate& gate, const sx::safety::CampaignOutcome& got,
                   const sx::safety::CampaignOutcome& want,
                   std::size_t trials) {
  gate.attempted += trials;
  if (!got.measured()) gate.fail("campaign measured nothing", trials);
  if (got.correct != want.correct || got.detected != want.detected ||
      got.fallback != want.fallback || got.sdc != want.sdc)
    gate.fail("campaign outcome counts differ for an identical seed",
              trials);
}

RunResult trace_campaign(const Options& opt, const sx::dl::Dataset& probes,
                         RunResult res) {
  const sx::safety::CampaignConfig cc = campaign_config(opt.seed);
  auto p = deploy(sil2_config());
  res.kernel_backends.push_back(p->kernel_backend());
  sx::safety::InferenceChannel& channel = *p->channel();
  std::vector<float> out(channel.output_size());
  // The probes the campaign uses: those the fault-free channel passes.
  std::vector<const Tensor*> usable;
  for (const auto& s : probes.samples)
    if (sx::ok(channel.infer(s.input.view(), out)) &&
        !channel.last_degraded())
      usable.push_back(&s.input);
  if (usable.empty()) {
    res.gate.fail("campaign has no usable probes");
    return res;
  }

  SpanLog spans;
  sx::safety::CampaignOutcome want;  // round 0's counts
  std::vector<double> untraced_us, traced_us;
  double probe_us = 0.0, trial_us = 0.0;
  const auto start = Clock::now();
  for (std::size_t round = 0;
       round < 2 * kMinRounds || seconds_since(start) < opt.seconds;
       ++round) {
    if (round % 2 == 0) {
      CampaignRound r = campaign_round(channel, probes, cc);
      if (round == 0) want = r.outcome;
      gate_campaign(res.gate, r.outcome, want, cc.n_faults);
      for (double us : r.trial_us) untraced_us.push_back(us);
      continue;
    }
    // Traced round: the same trials, each replayed call by call.
    for (std::size_t t = 0; t < cc.n_faults; ++t) {
      const auto t0 = Clock::now();
      const std::uint64_t id = spans.record("safety.trial", 0, t0, t0);
      sx::safety::FaultInjector injector{sx::safety::trial_seed(cc.seed, t)};
      sx::safety::FaultRecord rec;
      child_span(spans, "safety.inject_fault", id, [&] {
        rec = channel.inject_fault(injector, 0, cc.fault_type);
      });
      for (std::size_t k = 0; k < cc.probes_per_fault; ++k) {
        const Tensor& in = *usable[(t * cc.probes_per_fault + k) %
                                   usable.size()];
        const auto a = Clock::now();
        (void)channel.infer(in.view(), out);
        const auto b = Clock::now();
        spans.record("safety.channel_infer", id, a, b);
        probe_us += micros_between(a, b);
      }
      child_span(spans, "safety.undo_fault", id,
                 [&] { channel.undo_fault(0, rec); });
      const double us = micros_between(t0, Clock::now());
      trial_us += us;
      traced_us.push_back(us);
      // Close the trial span now that its children are recorded.
      spans.close(id, Clock::now());
    }
  }
  res.add("safety.inject_fault_us", spans.median_us("safety.inject_fault"),
          "us");
  res.add("safety.undo_fault_us", spans.median_us("safety.undo_fault"),
          "us");
  res.add("safety.campaign_probe_share",
          trial_us > 0.0 ? probe_us / trial_us : 0.0, "ratio");
  res.add("safety.channel_infer_us", spans.median_us("safety.channel_infer"),
          "us");
  const double untraced = median(untraced_us);
  const double traced = median(traced_us);
  res.add("bench.untraced_decision_p50_us",
          untraced / static_cast<double>(kProbesPerFault), "us");
  res.add("bench.traced_decision_p50_us",
          traced / static_cast<double>(kProbesPerFault), "us");
  res.add("obs.tracing_overhead_share",
          untraced > 0.0 ? (traced - untraced) / untraced : 0.0, "ratio");
  finish_trace(res, spans, opt);
  return res;
}

/// End-to-end metrics shared by the untraced workloads. Every round's
/// times are scaled to the reference host speed by that round's host
/// probe (HostProbe::time_scale); the unscaled values stay in the notes
/// and the result file.
struct EndToEnd {
  std::vector<double> setup_s, p50_us, p90_us, tail_us, decisions_per_s,
      trials_per_s;
  std::vector<double> raw_setup_s, raw_p50_us, raw_p90_us, raw_decisions_per_s,
      probe_us;
  std::size_t samples = 0;
  double tail_p = 0.0;

  /// One measured round: per-unit wall times, the work done, the summed
  /// busy time and the probe samples taken during the round.
  void add_round(double setup, std::vector<double> latency_us,
                 double decisions, double trials, double busy_s,
                 const HostProbe& probe) {
    std::sort(latency_us.begin(), latency_us.end());
    const double p = tail_percentile(latency_us.size());
    tail_p = tail_p == 0.0 ? p : std::min(tail_p, p);
    const double k = probe.time_scale();
    raw_setup_s.push_back(setup);
    raw_p50_us.push_back(percentile(latency_us, 50.0));
    raw_p90_us.push_back(percentile(latency_us, 90.0));
    raw_decisions_per_s.push_back(decisions / busy_s);
    probe_us.push_back(probe.median_us());
    setup_s.push_back(setup * k);
    p50_us.push_back(raw_p50_us.back() * k);
    p90_us.push_back(raw_p90_us.back() * k);
    tail_us.push_back(percentile(latency_us, p) * k);
    decisions_per_s.push_back(raw_decisions_per_s.back() / k);
    trials_per_s.push_back(trials / busy_s / k);
    samples += latency_us.size();
  }

  void report(RunResult& res) const {
    const std::string rounds = std::to_string(setup_s.size()) + " rounds";
    auto note = [&](const std::string& what, const std::vector<double>& raw) {
      std::ostringstream n;
      n << what << " median over " << rounds << ", host-scaled; unscaled "
        << median(raw);
      return n.str();
    };
    res.add("setup_s", median(setup_s), "s", setup_s.size(),
            note("deploy time:", raw_setup_s));
    res.add("decision_p50_us", median(p50_us), "us", samples,
            note("round p50:", raw_p50_us));
    // p90 stands in for p99: on the shared build host the serving p99
    // moved by more than a tenth between runs (see README.md). The highest
    // percentile the rule allows is kept in the note and the result file.
    std::ostringstream tail;
    tail << " (round p" << tail_p << ", the highest with ten samples "
         << "beyond: " << median(tail_us) << " host-scaled)";
    res.add("decision_p90_us", median(p90_us), "us", samples,
            note("round p90:", raw_p90_us) + tail.str());
    res.add("decisions_per_s", median(decisions_per_s), "1/s",
            decisions_per_s.size(), note("round rate:", raw_decisions_per_s));
    res.add("trials_per_s", median(trials_per_s), "1/s", trials_per_s.size(),
            "round rate: median over " + rounds + ", host-scaled");
    res.add("peak_rss_mb", peak_rss_mb(), "MiB");
    res.rounds = {{"probe_us", probe_us},
                  {"setup_s", setup_s},
                  {"p50_us", p50_us},
                  {"p90_us", p90_us},
                  {"tail_us", tail_us},
                  {"decisions_per_s", decisions_per_s},
                  {"trials_per_s", trials_per_s},
                  {"raw_setup_s", raw_setup_s},
                  {"raw_p50_us", raw_p50_us},
                  {"raw_p90_us", raw_p90_us},
                  {"raw_decisions_per_s", raw_decisions_per_s}};
  }
};

}  // namespace

RunResult run_decide(const Options& opt, bool sil3) {
  RunResult res;
  const sx::core::PipelineConfig cfg = sil3 ? sil3_config() : sil2_config();
  const std::vector<Tensor> frames = in_odd_frames(kDecideRound, opt.seed);
  const Reference ref = reference_decisions(cfg, frames, res);
  if (opt.trace)
    return trace_decide(opt, cfg, sil3, frames, ref, std::move(res));

  reset_peak_rss();
  EndToEnd e2e;
  HostProbe probe;
  Clock::time_point start;
  for (std::size_t round = 0;
       round <= kMinRounds || seconds_since(start) < opt.seconds; ++round) {
    probe.reset();
    const auto t0 = Clock::now();
    auto p = deploy(cfg);
    const double setup = seconds_since(t0);
    DecideRound r = decide_round(*p, frames, &res.gate, &probe);
    res.gate.check_round(r.keys, r.digest.hex(), ref.keys, ref.digest);
    if (round == 0) {
      res.kernel_backends.push_back(p->kernel_backend());
      start = Clock::now();
      continue;
    }
    const double n = static_cast<double>(frames.size());
    e2e.add_round(setup, std::move(r.latency_us), n, n, r.busy_s, probe);
  }
  e2e.report(res);
  return res;
}

RunResult run_serve(const Options& opt) {
  RunResult res;
  // The main thread and the batch workers it spawns share one CPU. Each
  // window of at most four items wakes the four workers; spread over the
  // host's vCPUs, those wake-ups cost whatever the hypervisor charges at
  // that moment, and the same code moved by more than half between runs.
  // On one CPU a dispatch is a run of context switches, which the probe's
  // scaling tracks.
  res.pinned_cpu = pin_to_current_cpu();
  const std::vector<Tensor> pool = serve_pool(opt.seed);
  const sx::serve::ArrivalTrace trace = serve_trace(opt.seed);
  const std::vector<sx::serve::ArrivalTrace> slices =
      sx::serve::split_at_gaps(trace, kServeSliceGap);

  // Reference: the whole trace in one run_trace call. Busy-period slices
  // start from an idle server, so the sliced replay must match it.
  std::string ref_digest;
  {
    ServeDeployment ref = deploy_serving();
    ref.server->run_trace(trace, pool);
    ref_digest = ref.server->decision_digest();
    res.kernel_backends.push_back("unsliced twin: " +
                                  ref.pipeline->kernel_backend());
  }
  if (opt.trace) return trace_serve(opt, slices, pool, ref_digest,
                                    std::move(res));

  HostProbe probe;
  reset_peak_rss();
  EndToEnd e2e;
  Clock::time_point start;
  for (std::size_t round = 0;
       round <= kMinRounds || seconds_since(start) < opt.seconds; ++round) {
    probe.reset();
    ServeDeployment dep = deploy_serving();
    std::vector<double> per_request_us;
    double busy_us = 0.0;
    for (std::size_t i = 0; i < slices.size(); ++i) {
      const auto& slice = slices[i];
      if (i % kProbeEvery == 0) probe.sample();
      const auto t0 = Clock::now();
      dep.server->run_trace(slice, pool);
      const double wall_us = micros_between(t0, Clock::now());
      busy_us += wall_us;
      add_request_samples(per_request_us, wall_us, slice.requests.size());
    }
    gate_serving(res.gate, *dep.server, ref_digest);
    if (round == 0) {
      res.kernel_backends.push_back(dep.pipeline->kernel_backend());
      start = Clock::now();
      continue;
    }
    e2e.add_round(dep.pipeline_s + dep.server_s, std::move(per_request_us),
                  static_cast<double>(dep.server->served_count()),
                  static_cast<double>(dep.server->requests()), busy_us / 1e6,
                  probe);
  }
  e2e.report(res);
  return res;
}

RunResult run_campaign(const Options& opt) {
  RunResult res;
  const sx::dl::Dataset probes = campaign_probes(opt.seed);
  if (opt.trace) return trace_campaign(opt, probes, std::move(res));

  const sx::safety::CampaignConfig cc = campaign_config(opt.seed);
  reset_peak_rss();
  EndToEnd e2e;
  // Round 0 fixes the outcome counts that every later round, on its own
  // fresh deployment with the same seed, must reproduce exactly.
  sx::safety::CampaignOutcome want;
  HostProbe probe;
  Clock::time_point start;
  for (std::size_t round = 0;
       round <= kMinRounds || seconds_since(start) < opt.seconds; ++round) {
    probe.reset();
    const auto t0 = Clock::now();
    auto p = deploy(sil2_config());
    const double setup = seconds_since(t0);
    CampaignRound r = campaign_round(*p->channel(), probes, cc, &probe);
    if (round == 0) want = r.outcome;
    gate_campaign(res.gate, r.outcome, want, cc.n_faults);
    if (round == 0) {
      res.kernel_backends.push_back(p->kernel_backend());
      start = Clock::now();
      continue;
    }
    for (double& us : r.trial_us) us /= static_cast<double>(kProbesPerFault);
    const double trials = static_cast<double>(cc.n_faults);
    e2e.add_round(setup, std::move(r.trial_us),
                  trials * static_cast<double>(kProbesPerFault), trials,
                  r.busy_s, probe);
  }
  e2e.report(res);
  return res;
}

}  // namespace decbench
