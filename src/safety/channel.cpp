#include "safety/channel.hpp"

#include <algorithm>
#include <cmath>

namespace sx::safety {
namespace {

std::size_t argmax_of(std::span<const float> xs) noexcept {
  std::size_t best = 0;
  for (std::size_t i = 1; i < xs.size(); ++i)
    if (xs[i] > xs[best]) best = i;
  return best;
}

float median3(float a, float b, float c) noexcept {
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

}  // namespace

// ------------------------------------------------------------ FloatReplica

FloatReplica::FloatReplica(const dl::Model& model, dl::StaticEngineConfig cfg)
    : model_(std::make_unique<dl::Model>(model)),
      engine_(std::make_unique<dl::StaticEngine>(*model_, cfg)) {
  const std::size_t pin = cfg.pin_tap_layer;
  if (pin != dl::kNoPinnedTap && engine_->can_tap(pin)) {
    tap_layer_ = pin;
    tap_.assign(pin == 0 ? model_->input_shape().size()
                         : model_->activation_shape(pin - 1).size(),
                0.0f);
  }
}

FloatReplicaChannel::FloatReplicaChannel(const dl::Model& model,
                                         dl::StaticEngineConfig cfg,
                                         std::size_t replicas) {
  replicas_.reserve(replicas);
  for (std::size_t i = 0; i < replicas; ++i) replicas_.emplace_back(model, cfg);
}

// ------------------------------------------------------------ SingleChannel

SingleChannel::SingleChannel(const dl::Model& model,
                             dl::StaticEngineConfig cfg)
    : FloatReplicaChannel(model, cfg, 1) {}

Status SingleChannel::infer(tensor::ConstTensorView in,
                            std::span<float> out) noexcept {
  const Status st = replicas_[0].run(in, out);
  emit(ok(st) ? &replicas_[0] : nullptr);
  return st;
}

// --------------------------------------------------------- MonitoredChannel

MonitoredChannel::MonitoredChannel(const dl::Model& model, MonitorConfig cfg,
                                   dl::StaticEngineConfig engine_cfg)
    : FloatReplicaChannel(model, engine_cfg, 1), monitor_(cfg) {}

Status MonitoredChannel::infer(tensor::ConstTensorView in,
                               std::span<float> out) noexcept {
  emit(nullptr);
  const Status pre = monitor_.check_input(in);
  if (!ok(pre)) return pre;
  const Status st = replicas_[0].run(in, out);
  if (!ok(st)) return st;
  const Status post = monitor_.check_output(out);
  if (ok(post)) emit(&replicas_[0]);
  return post;
}

// --------------------------------------------------------------- DmrChannel

DmrChannel::DmrChannel(const dl::Model& model,
                       dl::StaticEngineConfig engine_cfg, float tolerance)
    : FloatReplicaChannel(model, engine_cfg, 2), tolerance_(tolerance) {
  scratch_.resize(model.output_shape().size());
}

Status DmrChannel::infer(tensor::ConstTensorView in,
                         std::span<float> out) noexcept {
  emit(nullptr);
  const Status a = replicas_[0].run(in, out);
  if (!ok(a)) return a;
  const Status b = replicas_[1].run(in, scratch_);
  if (!ok(b)) return b;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const float d = std::fabs(out[i] - scratch_[i]);
    if (!(d <= tolerance_)) {  // catches NaN too
      ++divergences_;
      if (obs_ != nullptr) obs_->add(divergences_id_);
      return Status::kRedundancyFault;
    }
  }
  emit(&replicas_[0]);
  return Status::kOk;
}

// --------------------------------------------------------------- TmrChannel

TmrChannel::TmrChannel(const dl::Model& model,
                       dl::StaticEngineConfig engine_cfg, float tolerance)
    : FloatReplicaChannel(model, engine_cfg, 3), tolerance_(tolerance) {
  scratch_.resize(3 * model.output_shape().size());
}

Status TmrChannel::infer(tensor::ConstTensorView in,
                         std::span<float> out) noexcept {
  emit(nullptr);
  const std::size_t n = out.size();
  const std::span<float> r[3] = {{scratch_.data(), n},
                                 {scratch_.data() + n, n},
                                 {scratch_.data() + 2 * n, n}};
  // A replica whose engine fails (NaN etc.) is treated as an outvoted
  // minority: substitute the median of the other two by duplicating one of
  // them. Two failures are unrecoverable.
  const Status s[3] = {replicas_[0].run(in, r[0]), replicas_[1].run(in, r[1]),
                       replicas_[2].run(in, r[2])};
  const int failures = (!ok(s[0])) + (!ok(s[1])) + (!ok(s[2]));
  if (failures >= 2) return Status::kRedundancyFault;
  if (failures == 1) {
    ++masked_;
    if (obs_ != nullptr) obs_->add(masked_id_);
    const std::size_t a1 = ok(s[0]) ? 0 : 1;
    const std::size_t a2 = ok(s[2]) ? 2 : 1;
    // Cross-check the two survivors before trusting them.
    for (std::size_t i = 0; i < n; ++i) {
      if (!(std::fabs(r[a1][i] - r[a2][i]) <= tolerance_))
        return Status::kRedundancyFault;
      out[i] = r[a1][i];
    }
    emit(&replicas_[a1]);
    return Status::kOk;
  }
  bool disagreement = false;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = median3(r[0][i], r[1][i], r[2][i]);
    if (std::fabs(r[0][i] - r[1][i]) > tolerance_ ||
        std::fabs(r[1][i] - r[2][i]) > tolerance_ ||
        std::fabs(r[0][i] - r[2][i]) > tolerance_)
      disagreement = true;
  }
  if (disagreement) {
    ++masked_;
    if (obs_ != nullptr) obs_->add(masked_id_);
  }
  // The tap of the first replica within tolerance of the voted output.
  for (std::size_t k = 0; k < 3; ++k) {
    bool near = true;
    for (std::size_t i = 0; i < n && near; ++i)
      near = std::fabs(r[k][i] - out[i]) <= tolerance_;
    if (near) {
      emit(&replicas_[k]);
      break;
    }
  }
  return Status::kOk;
}

// -------------------------------------------------------- DiverseTmrChannel

DiverseTmrChannel::DiverseTmrChannel(const dl::Model& model,
                                     const dl::Dataset& calibration,
                                     dl::StaticEngineConfig engine_cfg)
    : FloatReplicaChannel(model, engine_cfg, 2) {
  qmodel_ = std::make_unique<dl::QuantizedModel>(
      dl::QuantizedModel::quantize(model, calibration));
  scratch_.resize(2 * model.output_shape().size());
}

Status DiverseTmrChannel::infer(tensor::ConstTensorView in,
                                std::span<float> out) noexcept {
  emit(nullptr);
  const std::size_t n = out.size();
  std::span<float> q{scratch_.data(), n};
  std::span<float> f1{scratch_.data() + n, n};
  const Status s0 = replicas_[0].run(in, out);
  const Status s1 = replicas_[1].run(in, f1);
  const Status sq = qmodel_->run(in, q);
  const int failures = (!ok(s0)) + (!ok(s1)) + (!ok(sq));
  if (failures >= 2) return Status::kRedundancyFault;

  // Majority vote on the decision (argmax), not raw values: the quantized
  // replica's logits differ numerically by design.
  const std::size_t a0 = ok(s0) ? argmax_of(out) : n;
  const std::size_t a1 = ok(s1) ? argmax_of(f1) : n;
  const std::size_t aq = ok(sq) ? argmax_of(q) : n;
  std::size_t majority = n;
  if (a0 == a1 || a0 == aq) majority = a0;
  else if (a1 == aq) majority = a1;
  if (majority == n) return Status::kRedundancyFault;
  if (a0 != a1 || a1 != aq) {
    ++masked_;
    if (obs_ != nullptr) obs_->add(masked_id_);
  }

  // Emit logits from a float replica that voted with the majority.
  if (ok(s0) && a0 == majority) {  // already in `out`
    emit(&replicas_[0]);
    return Status::kOk;
  }
  if (ok(s1) && a1 == majority) {
    for (std::size_t i = 0; i < n; ++i) out[i] = f1[i];
    emit(&replicas_[1]);
    return Status::kOk;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = q[i];
  return Status::kOk;
}

// ------------------------------------------------------------- QuantChannel

QuantChannel::QuantChannel(const dl::Model& model,
                           const dl::QuantizedModel& quantized,
                           dl::QuantEngineConfig cfg,
                           const MonitorConfig* monitor)
    : model_(std::make_unique<dl::Model>(model)),
      qmodel_(std::make_unique<dl::QuantizedModel>(quantized)),
      engine_(std::make_unique<dl::QuantEngine>(*qmodel_, cfg)) {
  if (monitor != nullptr) monitor_ = std::make_unique<SafetyMonitor>(*monitor);
}

FaultRecord QuantChannel::inject_fault(FaultInjector& injector, std::size_t,
                                       FaultType type) {
  // An SEU in this channel hits the deployed int8 weight memory — the
  // float twin is never read by the engine, so injecting there would
  // leave every trial on the golden path.
  const FaultRecord rec = injector.inject(*qmodel_, type);
  engine_->repack();  // packed panels must snapshot the faulted bits
  return rec;
}

void QuantChannel::undo_fault(std::size_t, const FaultRecord& rec) {
  FaultInjector::restore(*qmodel_, rec);
  engine_->repack();
}

Status QuantChannel::infer(tensor::ConstTensorView in,
                           std::span<float> out) noexcept {
  if (monitor_) {
    const Status pre = monitor_->check_input(in);
    if (!ok(pre)) return pre;
  }
  Status st = engine_->run(in, out);
  if (ok(st) && monitor_) st = monitor_->check_output(out);
  if (obs_ != nullptr) {
    // Push only the clips this inference added: the counter stays an
    // exact mirror of the engine's deterministic total.
    const std::uint64_t total = engine_->saturation_total();
    if (total > reported_sats_) {
      obs_->add(sat_id_, total - reported_sats_);
      reported_sats_ = total;
    }
  }
  return st;
}

// --------------------------------------------------------- SafetyBagChannel

SafetyBagChannel::SafetyBagChannel(
    std::unique_ptr<InferenceChannel> primary,
    const dl::Model* supervisor_model,
    const supervise::MahalanobisSupervisor* supervisor,
    std::vector<float> fallback_logits, dl::StaticEngineConfig engine_cfg)
    : primary_(std::move(primary)),
      supervisor_(supervisor),
      fallback_(std::move(fallback_logits)) {
  if (!primary_) throw std::invalid_argument("SafetyBagChannel: null primary");
  if (fallback_.size() != primary_->output_size())
    throw std::invalid_argument("SafetyBagChannel: fallback size mismatch");
  if ((supervisor_ != nullptr) != (supervisor_model != nullptr))
    throw std::invalid_argument(
        "SafetyBagChannel: supervisor and its model must come together");
  if (supervisor_ == nullptr) return;
  if (!supervisor_->has_threshold() || supervisor_->feature_dim() == 0)
    throw std::invalid_argument(
        "SafetyBagChannel: supervisor threshold not calibrated");
  score_scratch_.assign(supervisor_->feature_dim(), 0.0);
  const std::size_t layer = supervisor_->feature_layer();
  if (primary_->tap_layer() == layer) return;  // scores the primary's tap
  // Deploy-time own pass: the primary captures nothing the supervisor can
  // read, so the bag taps a pristine twin itself.
  engine_cfg.pin_tap_layer = layer;
  own_engine_ = std::make_unique<dl::StaticEngine>(*supervisor_model,
                                                   engine_cfg);
  if (!own_engine_->can_tap(layer))
    throw std::invalid_argument(
        "SafetyBagChannel: supervisor feature layer not tappable");
  own_tap_.assign(supervisor_->feature_dim(), 0.0f);
  own_logits_.assign(supervisor_model->output_shape().size(), 0.0f);
}

Status SafetyBagChannel::infer(tensor::ConstTensorView in,
                               std::span<float> out) noexcept {
  degraded_ = false;
  scored_ = false;
  bool use_fallback = !ok(primary_->infer(in, out));
  if (!use_fallback && supervisor_ != nullptr) {
    const std::span<const float> features = own_engine_ != nullptr
                                                ? own_pass_features(in)
                                                : primary_->last_tap();
    // No features (the primary emitted an output no replica computed, or
    // the own pass failed): nothing vouches for the output — reject.
    if (features.empty()) {
      use_fallback = true;
    } else {
      score_ = supervisor_->score_from_features(features, score_scratch_);
      scored_ = true;
      use_fallback = !supervisor_->accept_score(score_);
    }
  }
  if (use_fallback) {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = fallback_[i];
    degraded_ = true;
    ++fallbacks_;
  }
  return Status::kOk;  // fail-operational: always produces a safe output
}

std::span<const float> SafetyBagChannel::own_pass_features(
    tensor::ConstTensorView in) noexcept {
  return ok(own_engine_->run_tapped(in, own_logits_,
                                    supervisor_->feature_layer(), own_tap_))
             ? std::span<const float>(own_tap_)
             : std::span<const float>{};
}

std::optional<double> SafetyBagChannel::score_own_pass(
    tensor::ConstTensorView in) noexcept {
  if (own_engine_ == nullptr) return std::nullopt;
  const auto features = own_pass_features(in);
  if (features.empty()) return std::nullopt;
  return supervisor_->score_from_features(features, score_scratch_);
}

}  // namespace sx::safety
