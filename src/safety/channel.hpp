// The SAFEXPLAIN safety-pattern ladder (pillar 2).
//
// Each pattern wraps DL inference in an increasingly sophisticated
// fault-detection/-tolerance architecture:
//
//   single        bare StaticEngine (QM / baseline)
//   monitored     + envelope monitor (fail-stop on implausible outputs)
//   dmr           duplication with comparison (fail-stop on divergence)
//   tmr           triplication with median vote (fault masking)
//   diverse-tmr   diverse triplication: float / int8 / float replicas with
//                 argmax majority vote (common-cause defence)
//   safety-bag    any channel + trust supervisor + rule-based fallback
//                 (fail-operational: degrades instead of stopping)
//
// Channels own *copies* of the deployed model so that fault injection into
// one replica models an SEU in that replica's weight memory.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "dl/engine.hpp"
#include "dl/qplan.hpp"
#include "dl/quant.hpp"
#include "obs/registry.hpp"
#include "safety/fault.hpp"
#include "safety/monitor.hpp"
#include "supervise/supervisor.hpp"

namespace sx::safety {

class InferenceChannel {
 public:
  virtual ~InferenceChannel() = default;

  virtual std::string_view pattern_name() const noexcept = 0;

  /// Runs one inference; `out` must hold output_size() floats.
  virtual Status infer(tensor::ConstTensorView in,
                       std::span<float> out) noexcept = 0;

  virtual std::size_t output_size() const noexcept = 0;

  /// Number of model replicas (fault-injection targets).
  virtual std::size_t replica_count() const noexcept { return 1; }
  virtual dl::Model& replica(std::size_t i) = 0;

  /// Re-snapshots replica `i`'s packed weight panels from its live
  /// parameters. Whoever edits replica(i)'s weights in place must call it
  /// before the next infer(): the default plan (kAuto -> wide/packed)
  /// computes from deploy-time panels, not from the live parameters.
  /// No-op for channels whose engines read their parameters live.
  virtual void repack(std::size_t i) noexcept { (void)i; }

  /// Injects one fault into replica `i`'s *deployed* parameter memory and
  /// returns the record for undo_fault(). The default targets the float
  /// parameters of replica(i) and repacks them; a channel whose inference
  /// reads a different representation (e.g. QuantChannel's int8 weight
  /// store) overrides both hooks so campaigns mutate memory the inference
  /// path actually reads — faults into an unread twin would measure
  /// nothing.
  virtual FaultRecord inject_fault(FaultInjector& injector, std::size_t i,
                                   FaultType type) {
    FaultRecord rec = injector.inject(replica(i), type);
    repack(i);
    return rec;
  }
  /// Removes the fault recorded by inject_fault().
  virtual void undo_fault(std::size_t i, const FaultRecord& rec) {
    FaultInjector::restore(replica(i), rec);
    repack(i);
  }

  /// True if the previous infer() produced a fallback (degraded) output.
  virtual bool last_degraded() const noexcept { return false; }

  /// The model layer whose input activation infer() captures for a
  /// runtime supervisor (the engines' pinned tap layer), or
  /// dl::kNoPinnedTap when the channel captures none.
  virtual std::size_t tap_layer() const noexcept { return dl::kNoPinnedTap; }
  /// The activation feeding tap_layer(), as computed during the previous
  /// infer() by the replica whose output that infer() emitted — faulted or
  /// not, so a supervisor scoring it watches what actually ran. Empty
  /// when the previous infer() failed, emitted no replica's output (e.g. a
  /// vote no replica matches) or the channel captures no tap.
  virtual std::span<const float> last_tap() const noexcept { return {}; }

  /// The deploy-time float kernel plan of replica `i`'s engine (nullptr
  /// when that replica runs the reference loops or the channel deploys no
  /// float StaticEngine of its own, e.g. QuantChannel). Lets the pipeline
  /// attach the plan's IR pass evidence and per-replica backend record to
  /// the audit chain without knowing the concrete pattern.
  virtual const dl::KernelPlan* float_kernel_plan(
      std::size_t i) const noexcept {
    (void)i;
    return nullptr;
  }

  /// Registers and binds this pattern's telemetry counters (configuration
  /// time; no-op by default). Wrapper channels forward to their inner
  /// channel. The registry must outlive the channel.
  virtual void bind_telemetry(obs::Registry& registry) { (void)registry; }
};

/// One float replica: a private copy of the model, its StaticEngine and —
/// when the engine config pins a tap layer — the activation feeding that
/// layer as captured by the latest run. The building block of every float
/// pattern below.
class FloatReplica {
 public:
  FloatReplica(const dl::Model& model, dl::StaticEngineConfig cfg);

  /// One engine run; also captures the tap when tapping.
  Status run(tensor::ConstTensorView in, std::span<float> out) noexcept {
    return tap_.empty() ? engine_->run(in, out)
                        : engine_->run_tapped(in, out, tap_layer_, tap_);
  }

  dl::Model& model() noexcept { return *model_; }
  const dl::Model& model() const noexcept { return *model_; }
  const dl::KernelPlan* plan() const noexcept {
    return engine_->kernel_plan();
  }
  void repack() noexcept { engine_->repack(); }

  /// The pinned tap layer when the plan can serve it, else kNoPinnedTap.
  std::size_t tap_layer() const noexcept { return tap_layer_; }
  /// The tap captured by the latest run (empty when not tapping).
  std::span<const float> tap() const noexcept { return tap_; }

 private:
  std::unique_ptr<dl::Model> model_;
  std::unique_ptr<dl::StaticEngine> engine_;
  std::size_t tap_layer_ = dl::kNoPinnedTap;
  std::vector<float> tap_;
};

/// Shared surface of the float patterns: N replicas built with one engine
/// config, per-replica injection targets, repacks and plans, and the tap
/// of the replica the last infer() emitted.
class FloatReplicaChannel : public InferenceChannel {
 public:
  std::size_t replica_count() const noexcept override {
    return replicas_.size();
  }
  dl::Model& replica(std::size_t i) override {
    return replicas_.at(i).model();
  }
  void repack(std::size_t i) noexcept override {
    if (i < replicas_.size()) replicas_[i].repack();
  }
  std::size_t tap_layer() const noexcept override {
    return replicas_.front().tap_layer();
  }
  std::span<const float> last_tap() const noexcept override {
    return last_tap_;
  }
  const dl::KernelPlan* float_kernel_plan(
      std::size_t i) const noexcept override {
    return i < replicas_.size() ? replicas_[i].plan() : nullptr;
  }

 protected:
  FloatReplicaChannel(const dl::Model& model, dl::StaticEngineConfig cfg,
                      std::size_t replicas);

  /// Records which replica's output the current infer() emits (nullptr:
  /// none, the state every infer() starts from).
  void emit(const FloatReplica* r) noexcept {
    last_tap_ = r != nullptr ? r->tap() : std::span<const float>{};
  }

  std::vector<FloatReplica> replicas_;

 private:
  std::span<const float> last_tap_{};
};

/// Bare engine, no protection.
class SingleChannel final : public FloatReplicaChannel {
 public:
  explicit SingleChannel(const dl::Model& model,
                         dl::StaticEngineConfig cfg = {.check_numeric_faults =
                                                           false});

  std::string_view pattern_name() const noexcept override { return "single"; }
  Status infer(tensor::ConstTensorView in,
               std::span<float> out) noexcept override;
  std::size_t output_size() const noexcept override {
    return replicas_[0].model().output_shape().size();
  }
};

/// Engine + envelope monitor (fail-stop).
class MonitoredChannel final : public FloatReplicaChannel {
 public:
  MonitoredChannel(const dl::Model& model, MonitorConfig cfg,
                   dl::StaticEngineConfig engine_cfg = {
                       .check_numeric_faults = true});

  std::string_view pattern_name() const noexcept override {
    return "monitored";
  }
  Status infer(tensor::ConstTensorView in,
               std::span<float> out) noexcept override;
  std::size_t output_size() const noexcept override {
    return replicas_[0].model().output_shape().size();
  }

  const SafetyMonitor& monitor() const noexcept { return monitor_; }

  void bind_telemetry(obs::Registry& registry) override {
    monitor_.bind_telemetry(&registry,
                            registry.counter("sx_monitor_rejections_total"));
  }

 private:
  SafetyMonitor monitor_;
};

/// Dual modular redundancy: two replicas, compare, fail-stop on divergence.
/// The emitted output (and tap) is replica 0's: it is only emitted when
/// both replicas agree.
class DmrChannel final : public FloatReplicaChannel {
 public:
  explicit DmrChannel(const dl::Model& model,
                      dl::StaticEngineConfig engine_cfg = {
                          .check_numeric_faults = true},
                      float tolerance = 1e-5f);

  std::string_view pattern_name() const noexcept override { return "dmr"; }
  Status infer(tensor::ConstTensorView in,
               std::span<float> out) noexcept override;
  std::size_t output_size() const noexcept override {
    return replicas_[0].model().output_shape().size();
  }

  std::uint64_t divergences() const noexcept { return divergences_; }

  void bind_telemetry(obs::Registry& registry) override {
    obs_ = &registry;
    divergences_id_ = registry.counter("sx_dmr_divergences_total");
  }

 private:
  std::vector<float> scratch_;
  float tolerance_;
  std::uint64_t divergences_ = 0;
  obs::Registry* obs_ = nullptr;
  obs::CounterId divergences_id_{};
};

/// Triple modular redundancy with element-wise median vote (fault masking).
/// The emitted tap is that of the first replica within tolerance of the
/// voted output.
class TmrChannel final : public FloatReplicaChannel {
 public:
  explicit TmrChannel(const dl::Model& model,
                      dl::StaticEngineConfig engine_cfg = {
                          .check_numeric_faults = true},
                      float tolerance = 1e-5f);

  std::string_view pattern_name() const noexcept override { return "tmr"; }
  Status infer(tensor::ConstTensorView in,
               std::span<float> out) noexcept override;
  std::size_t output_size() const noexcept override {
    return replicas_[0].model().output_shape().size();
  }

  /// Votes in which at least one replica disagreed (masked faults).
  std::uint64_t masked_votes() const noexcept { return masked_; }

  void bind_telemetry(obs::Registry& registry) override {
    obs_ = &registry;
    masked_id_ = registry.counter("sx_tmr_masked_votes_total");
  }

 private:
  std::vector<float> scratch_;  // 3 * output buffers
  float tolerance_;
  std::uint64_t masked_ = 0;
  obs::Registry* obs_ = nullptr;
  obs::CounterId masked_id_{};
};

/// Diverse redundancy: float replica, int8-quantized replica and a second
/// float replica vote on the *argmax*; ties broken toward replica 0. Output
/// logits (and tap) come from the first float replica agreeing with the
/// majority.
class DiverseTmrChannel final : public FloatReplicaChannel {
 public:
  DiverseTmrChannel(const dl::Model& model, const dl::Dataset& calibration,
                    dl::StaticEngineConfig engine_cfg = {
                        .check_numeric_faults = true});

  std::string_view pattern_name() const noexcept override {
    return "diverse-tmr";
  }
  Status infer(tensor::ConstTensorView in,
               std::span<float> out) noexcept override;
  std::size_t output_size() const noexcept override {
    return replicas_[0].model().output_shape().size();
  }
  // Replicas 0 and 1 are the float models; the quantized replica is not
  // exposed for parameter-level injection.

  void bind_telemetry(obs::Registry& registry) override {
    obs_ = &registry;
    masked_id_ = registry.counter("sx_diverse_masked_votes_total");
  }

 private:
  std::unique_ptr<dl::QuantizedModel> qmodel_;
  std::vector<float> scratch_;
  std::uint64_t masked_ = 0;
  obs::Registry* obs_ = nullptr;
  obs::CounterId masked_id_{};
};

/// Planned int8 inference as a safety channel: the quantized deployment
/// backend of the pipeline (BackendKind::kInt8). Wraps a private
/// dl::QuantEngine over an owned copy of the quantized model. Fault
/// injection targets the deployed int8 weight store (inject_fault
/// override), not the float twin — the engine never reads the twin, so
/// faults there would be invisible and a campaign would report vacuous
/// 100% masking. The float twin is retained as replica(0) only for
/// structural introspection (layer geometry, replica_count bookkeeping).
class QuantChannel final : public InferenceChannel {
 public:
  /// `model` is the (folded) float twin the quantization was produced
  /// from; `quantized` is the deployed int8 model. The channel owns
  /// copies of both. A non-null `monitor` adds the envelope monitor of the
  /// "monitored" pattern around the int8 engine (fail-stop on implausible
  /// inputs/outputs) — the int8 ladder rung required above QM.
  QuantChannel(const dl::Model& model, const dl::QuantizedModel& quantized,
               dl::QuantEngineConfig cfg = {},
               const MonitorConfig* monitor = nullptr);

  std::string_view pattern_name() const noexcept override {
    return monitor_ ? "int8-monitored" : "int8-single";
  }
  Status infer(tensor::ConstTensorView in,
               std::span<float> out) noexcept override;
  std::size_t output_size() const noexcept override {
    return qmodel_->output_shape().size();
  }
  /// The float twin (introspection only — NOT the fault-injection target;
  /// see inject_fault).
  dl::Model& replica(std::size_t) override { return *model_; }

  /// Injects into the deployed int8 weights and re-snapshots any packed
  /// panels, so the planned engine computes with the faulted bits.
  FaultRecord inject_fault(FaultInjector& injector, std::size_t i,
                           FaultType type) override;
  void undo_fault(std::size_t i, const FaultRecord& rec) override;

  const dl::QuantizedModel& quantized() const noexcept { return *qmodel_; }
  const dl::QuantEngine& engine() const noexcept { return *engine_; }
  /// The deploy-time plan driving the engine (nullptr in reference mode).
  const dl::QuantKernelPlan* kernel_plan() const noexcept {
    return engine_->plan();
  }
  /// Cumulative requantization clips across every infer().
  std::uint64_t saturation_total() const noexcept {
    return engine_->saturation_total();
  }

  void bind_telemetry(obs::Registry& registry) override {
    obs_ = &registry;
    sat_id_ = registry.counter("sx_quant_saturations_total");
    if (monitor_)
      monitor_->bind_telemetry(
          &registry, registry.counter("sx_monitor_rejections_total"));
  }

 private:
  std::unique_ptr<dl::Model> model_;  // float twin, fault-injection target
  std::unique_ptr<dl::QuantizedModel> qmodel_;
  std::unique_ptr<dl::QuantEngine> engine_;
  std::unique_ptr<SafetyMonitor> monitor_;  // null for the bare rung
  obs::Registry* obs_ = nullptr;
  obs::CounterId sat_id_{};
  std::uint64_t reported_sats_ = 0;  // saturations already pushed to obs
};

/// Fail-operational safety bag: primary channel + (optional) Mahalanobis
/// trust supervisor + deterministic fallback output (e.g. "assume
/// obstacle").
///
/// The supervisor scores the features the primary computed for the output
/// it emitted (its last_tap()), so it watches the channel that actually
/// ran — faulted weights included — at no extra forward pass. Only a
/// primary that captures no tap at the supervisor's feature layer (e.g. an
/// int8 QuantChannel) makes the bag deploy its own tap-pinned engine over
/// `supervisor_model` and score that pass instead. infer() stays noexcept
/// and allocation-free either way.
class SafetyBagChannel final : public InferenceChannel {
 public:
  /// `fallback_logits` is the conservative output substituted when the
  /// primary fails or the supervisor rejects. `supervisor` may be null
  /// (then only channel-status failures trigger the fallback); if given it
  /// must already be fitted and threshold-calibrated, and comes with the
  /// pristine model it was fitted on (`supervisor_model`). The bag's own
  /// pass, when needed, runs on `engine_cfg` with the tap pinned.
  SafetyBagChannel(std::unique_ptr<InferenceChannel> primary,
                   const dl::Model* supervisor_model,
                   const supervise::MahalanobisSupervisor* supervisor,
                   std::vector<float> fallback_logits,
                   dl::StaticEngineConfig engine_cfg = {
                       .check_numeric_faults = false});

  std::string_view pattern_name() const noexcept override {
    return "safety-bag";
  }
  Status infer(tensor::ConstTensorView in,
               std::span<float> out) noexcept override;
  std::size_t output_size() const noexcept override {
    return primary_->output_size();
  }
  std::size_t replica_count() const noexcept override {
    return primary_->replica_count();
  }
  dl::Model& replica(std::size_t i) override { return primary_->replica(i); }
  void repack(std::size_t i) noexcept override { primary_->repack(i); }
  /// Forwarded so a wrapped channel's own injection surface (e.g. a
  /// QuantChannel primary's int8 weights) stays effective under the bag.
  FaultRecord inject_fault(FaultInjector& injector, std::size_t i,
                           FaultType type) override {
    return primary_->inject_fault(injector, i, type);
  }
  void undo_fault(std::size_t i, const FaultRecord& rec) override {
    primary_->undo_fault(i, rec);
  }
  bool last_degraded() const noexcept override { return degraded_; }
  std::size_t tap_layer() const noexcept override {
    return primary_->tap_layer();
  }
  /// The primary's tap when the bag emitted the primary's output.
  std::span<const float> last_tap() const noexcept override {
    return degraded_ ? std::span<const float>{} : primary_->last_tap();
  }
  const dl::KernelPlan* float_kernel_plan(
      std::size_t i) const noexcept override {
    return primary_->float_kernel_plan(i);
  }

  std::uint64_t fallback_activations() const noexcept { return fallbacks_; }

  /// True when the previous infer() ran the supervisor (the primary
  /// succeeded); last_score() is then its score.
  bool last_scored() const noexcept { return scored_; }
  double last_score() const noexcept { return score_; }
  /// True when that score came from the bag's own pass rather than the
  /// primary's tap.
  bool last_score_own_pass() const noexcept {
    return scored_ && own_engine_ != nullptr;
  }
  /// True when the bag deployed its own scoring pass (its primary captures
  /// no tap at the supervisor's feature layer).
  bool has_own_pass() const noexcept { return own_engine_ != nullptr; }
  /// Supervisor score of `in` from the bag's own pass over the pristine
  /// model, outside infer() — so a caller that must score an input the
  /// primary did not (e.g. a batch item) reuses this engine instead of
  /// deploying another. Empty without an own pass or when it fails.
  std::optional<double> score_own_pass(tensor::ConstTensorView in) noexcept;

  void bind_telemetry(obs::Registry& registry) override {
    primary_->bind_telemetry(registry);
  }

 private:
  std::unique_ptr<InferenceChannel> primary_;
  const supervise::MahalanobisSupervisor* supervisor_;
  std::vector<float> fallback_;
  /// The supervisor's features from the bag's own pass over `in`; empty
  /// when the pass fails.
  std::span<const float> own_pass_features(tensor::ConstTensorView in) noexcept;

  // Own scoring pass (only when the primary captures no usable tap).
  std::unique_ptr<dl::StaticEngine> own_engine_;
  std::vector<float> own_tap_;
  std::vector<float> own_logits_;
  std::vector<double> score_scratch_;
  bool degraded_ = false;
  bool scored_ = false;
  double score_ = 0.0;
  std::uint64_t fallbacks_ = 0;
};

}  // namespace sx::safety
