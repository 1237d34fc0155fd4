#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/criticality.hpp"
#include "core/pipeline.hpp"
#include "safety/campaign.hpp"
#include "supervise/metrics.hpp"
#include "test_helpers.hpp"

namespace sx::core {
namespace {

const dl::Model& model() { return sx::testing::trained_mlp(); }
const dl::Dataset& data() { return sx::testing::road_data(); }

// -------------------------------------------------------------- criticality

TEST(Criticality, QmAcceptsAnything) {
  PipelineSpec bare;
  EXPECT_TRUE(check_admissible(bare, Criticality::kQM).admissible);
}

TEST(Criticality, HigherLevelsRejectBareChannel) {
  PipelineSpec bare;
  for (const Criticality c : {Criticality::kSil1, Criticality::kSil2,
                              Criticality::kSil3, Criticality::kSil4}) {
    const auto v = check_admissible(bare, c);
    EXPECT_FALSE(v.admissible) << trace::to_string(c);
    EXPECT_FALSE(v.missing.empty());
  }
}

TEST(Criticality, RecommendedSpecIsAdmissibleAtItsLevel) {
  for (const Criticality c : {Criticality::kQM, Criticality::kSil1,
                              Criticality::kSil2, Criticality::kSil3,
                              Criticality::kSil4}) {
    EXPECT_TRUE(check_admissible(recommended_spec(c), c).admissible)
        << trace::to_string(c);
  }
}

TEST(Criticality, RecommendedSpecNotAdmissibleOneLevelUp) {
  EXPECT_FALSE(check_admissible(recommended_spec(Criticality::kSil1),
                                Criticality::kSil2)
                   .admissible);
  EXPECT_FALSE(check_admissible(recommended_spec(Criticality::kSil3),
                                Criticality::kSil4)
                   .admissible);
}

TEST(Criticality, PatternStrengthStrictlyIncreases) {
  EXPECT_LT(pattern_strength(PatternKind::kSingle),
            pattern_strength(PatternKind::kMonitored));
  EXPECT_LT(pattern_strength(PatternKind::kMonitored),
            pattern_strength(PatternKind::kDmr));
  EXPECT_LT(pattern_strength(PatternKind::kDmr),
            pattern_strength(PatternKind::kTmr));
  EXPECT_LT(pattern_strength(PatternKind::kTmr),
            pattern_strength(PatternKind::kDiverseTmr));
}

TEST(Criticality, ObligationsAccumulate) {
  // Each level's obligations are a superset of the previous level's.
  auto leq = [](const Obligations& a, const Obligations& b) {
    return pattern_strength(a.min_pattern) <= pattern_strength(b.min_pattern) &&
           a.supervisor <= b.supervisor && a.odd_guard <= b.odd_guard &&
           a.safety_bag <= b.safety_bag &&
           a.timing_budget <= b.timing_budget &&
           a.explanations <= b.explanations;
  };
  EXPECT_TRUE(leq(obligations_for(Criticality::kQM),
                  obligations_for(Criticality::kSil1)));
  EXPECT_TRUE(leq(obligations_for(Criticality::kSil1),
                  obligations_for(Criticality::kSil2)));
  EXPECT_TRUE(leq(obligations_for(Criticality::kSil2),
                  obligations_for(Criticality::kSil3)));
  EXPECT_TRUE(leq(obligations_for(Criticality::kSil3),
                  obligations_for(Criticality::kSil4)));
}

// ----------------------------------------------------------------- pipeline

TEST(Pipeline, RejectsInadmissibleSpec) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil3;
  cfg.spec = PipelineSpec{};  // bare
  EXPECT_THROW(CertifiablePipeline(model(), data(), cfg),
               std::invalid_argument);
}

TEST(Pipeline, QmDecidesNormally) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kQM;
  CertifiablePipeline p{model(), data(), cfg};
  const auto d = p.infer(data().samples[0].input);
  EXPECT_EQ(d.status, Status::kOk);
  EXPECT_LT(d.predicted_class, dl::kRoadSceneClasses);
  EXPECT_GT(d.confidence, 0.0f);
}

TEST(Pipeline, Sil2RejectsOutOfOddInput) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil2;
  CertifiablePipeline p{model(), data(), cfg};
  tensor::Tensor extreme{data().input_shape};
  extreme.fill(30.0f);
  const auto d = p.infer(extreme);
  EXPECT_EQ(d.status, Status::kOddViolation);
  EXPECT_TRUE(d.degraded);
  EXPECT_EQ(p.rejections(), 1u);
}

TEST(Pipeline, Sil3DeadlineMissTriggersFallback) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil3;
  cfg.timing_budget = 1000;
  cfg.fallback_class = 3;
  CertifiablePipeline p{model(), data(), cfg};
  const auto d =
      p.infer(data().samples[0].input, /*logical_time=*/0, /*elapsed=*/5000);
  EXPECT_EQ(d.status, Status::kDeadlineMiss);
  EXPECT_TRUE(d.degraded);
  EXPECT_EQ(d.predicted_class, 3u);
}

TEST(Pipeline, Sil3WithinBudgetDecides) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil3;
  cfg.timing_budget = 1000;
  CertifiablePipeline p{model(), data(), cfg};
  const auto d =
      p.infer(data().samples[0].input, /*logical_time=*/0, /*elapsed=*/500);
  EXPECT_EQ(d.status, Status::kOk);
}

TEST(Pipeline, Sil3RequiresBudgetValue) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil3;
  cfg.timing_budget = 0;
  EXPECT_THROW(CertifiablePipeline(model(), data(), cfg),
               std::invalid_argument);
}

TEST(Pipeline, AuditTrailGrowsAndVerifies) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil2;
  CertifiablePipeline p{model(), data(), cfg};
  for (std::size_t i = 0; i < 10; ++i)
    (void)p.infer(data().samples[i].input, i);
  // deploy + kernel-plan + 3 ir-pass (dce, fusion, liveness) +
  // kernel-backend + supervisor source + 10 decisions
  EXPECT_EQ(p.audit().size(), 17u);
  EXPECT_EQ(p.audit().verify(), Status::kOk);
}

TEST(Pipeline, IntegrityGatePasses) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil1;
  CertifiablePipeline p{model(), data(), cfg};
  EXPECT_EQ(p.verify_integrity(), Status::kOk);
}

TEST(Pipeline, ExplainProducesAttribution) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil1;
  CertifiablePipeline p{model(), data(), cfg};
  const auto att = p.explain(data().samples[1].input, 1);
  EXPECT_EQ(att.shape(), data().input_shape);
}

TEST(Pipeline, QmHasNoExplainSupport) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kQM;
  CertifiablePipeline p{model(), data(), cfg};
  EXPECT_THROW(p.explain(data().samples[0].input, 0), std::logic_error);
}

TEST(Pipeline, SafetyCaseCompleteAtEveryLevel) {
  for (const Criticality c : {Criticality::kQM, Criticality::kSil1,
                              Criticality::kSil2, Criticality::kSil3,
                              Criticality::kSil4}) {
    PipelineConfig cfg;
    cfg.criticality = c;
    cfg.timing_budget = 10000;
    CertifiablePipeline p{model(), data(), cfg};
    const auto sc = p.build_safety_case();
    EXPECT_TRUE(sc.complete()) << trace::to_string(c);
    EXPECT_GT(sc.size(), 5u);
  }
}

TEST(Pipeline, Sil4UsesDiverseRedundancy) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil4;
  cfg.timing_budget = 10000;
  CertifiablePipeline p{model(), data(), cfg};
  EXPECT_EQ(p.spec().pattern, PatternKind::kDiverseTmr);
  const auto d = p.infer(data().samples[0].input);
  EXPECT_EQ(d.status, Status::kOk);
}

TEST(Pipeline, OodInputFallsBackAtSil3) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil3;
  cfg.timing_budget = 10000;
  cfg.fallback_class = 3;
  CertifiablePipeline p{model(), data(), cfg};
  const auto ood = dl::corrupt(data(), dl::Corruption::kUniformRandom, 8);
  std::size_t degraded = 0;
  for (std::size_t i = 0; i < 20; ++i) {
    const auto d = p.infer(ood.samples[i].input, i);
    degraded += d.degraded ? 1 : 0;
  }
  // ODD guard and/or supervisor should push nearly all to the fallback.
  EXPECT_GT(degraded, 15u);
}

TEST(Pipeline, CountsDecisions) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kQM;
  CertifiablePipeline p{model(), data(), cfg};
  for (std::size_t i = 0; i < 7; ++i) (void)p.infer(data().samples[i].input);
  EXPECT_EQ(p.decisions(), 7u);
}

// Property sweep: at every criticality level, in-distribution inputs flow
// through the pipeline with OK status and high accuracy.
class PipelineLevels : public ::testing::TestWithParam<Criticality> {};

TEST_P(PipelineLevels, InDistributionFlowsThrough) {
  PipelineConfig cfg;
  cfg.criticality = GetParam();
  cfg.timing_budget = 10000;
  cfg.supervisor_tpr = 0.99;
  CertifiablePipeline p{model(), data(), cfg};
  std::size_t ok_count = 0, correct = 0;
  const std::size_t n = 40;
  for (std::size_t i = 0; i < n; ++i) {
    const auto d = p.infer(data().samples[i].input, i, 100);
    if (d.status == Status::kOk && !d.degraded) {
      ++ok_count;
      correct += (d.predicted_class == data().samples[i].label) ? 1 : 0;
    }
  }
  EXPECT_GT(ok_count, n * 8 / 10);
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(ok_count),
            0.75);
}

INSTANTIATE_TEST_SUITE_P(AllLevels, PipelineLevels,
                         ::testing::Values(Criticality::kQM,
                                           Criticality::kSil1,
                                           Criticality::kSil2,
                                           Criticality::kSil3,
                                           Criticality::kSil4));

// ------------------------------------------------------------ int8 backend

TEST(PipelineInt8, Sil2EndToEndDecides) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil2;
  cfg.backend = BackendKind::kInt8;
  CertifiablePipeline p{model(), data(), cfg};

  EXPECT_EQ(p.backend(), BackendKind::kInt8);
  EXPECT_STREQ(to_string(p.backend()), "int8");
  ASSERT_NE(p.quantized_model(), nullptr);
  ASSERT_NE(p.quant_channel(), nullptr);
  // SIL2's recommended pattern is kMonitored: the int8 channel must carry
  // its own runtime monitor to stay admissible.
  EXPECT_EQ(p.quant_channel()->pattern_name(), "int8-monitored");

  std::size_t ok_count = 0, correct = 0;
  const std::size_t n = 40;
  for (std::size_t i = 0; i < n; ++i) {
    const auto d = p.infer(data().samples[i].input, i);
    if (d.status == Status::kOk && !d.degraded) {
      ++ok_count;
      correct += (d.predicted_class == data().samples[i].label) ? 1 : 0;
    }
  }
  EXPECT_GT(ok_count, n * 7 / 10);
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(ok_count),
            0.7);
  EXPECT_EQ(ok(p.audit().verify()), true);

  // Deployment evidence: the audit trail records the backend and the
  // quantized kernel plan.
  bool saw_backend = false, saw_plan = false;
  for (const auto& e : p.audit().entries()) {
    if (e.action == "deploy" && e.payload.find("backend=int8") !=
                                    std::string::npos)
      saw_backend = true;
    if (e.actor == "quant-plan") saw_plan = true;
  }
  EXPECT_TRUE(saw_backend);
  EXPECT_TRUE(saw_plan);
}

TEST(PipelineInt8, RejectsCriticalityAboveMonitoredRung) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil3;  // demands DMR: float replicas
  cfg.backend = BackendKind::kInt8;
  cfg.timing_budget = 1000;
  EXPECT_THROW(CertifiablePipeline(model(), data(), cfg),
               std::invalid_argument);
}

TEST(PipelineInt8, FloatBackendHasNoQuantState) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil2;
  CertifiablePipeline p{model(), data(), cfg};
  EXPECT_EQ(p.backend(), BackendKind::kFloat32);
  EXPECT_EQ(p.quantized_model(), nullptr);
  EXPECT_EQ(p.quant_channel(), nullptr);
  EXPECT_EQ(p.quant_saturation_total(), 0u);
  EXPECT_THROW(p.quant_saturation_cross_check(), std::logic_error);
}

TEST(PipelineInt8, BatchPathIsQuantizedAndDecides) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil2;
  cfg.backend = BackendKind::kInt8;
  cfg.batch_workers = 4;
  CertifiablePipeline p{model(), data(), cfg};
  ASSERT_NE(p.batch_runner(), nullptr);
  EXPECT_TRUE(p.batch_runner()->quantized());

  std::vector<tensor::Tensor> inputs;
  for (std::size_t i = 0; i < 9; ++i)
    inputs.push_back(data().samples[i].input);
  const auto decisions = p.infer_batch(inputs);
  ASSERT_EQ(decisions.size(), inputs.size());
  std::size_t ok_count = 0;
  for (const auto& d : decisions)
    if (d.status == Status::kOk && !d.degraded) ++ok_count;
  EXPECT_GT(ok_count, 5u);

  // Single-item decisions must match the batch path bit for bit: both run
  // the same planned int8 engine stack.
  PipelineConfig scfg = cfg;
  scfg.batch_workers = 0;
  CertifiablePipeline serial{model(), data(), scfg};
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto d = serial.infer(inputs[i], i);
    EXPECT_EQ(d.status, decisions[i].status) << "item " << i;
    EXPECT_EQ(d.predicted_class, decisions[i].predicted_class) << "item " << i;
    EXPECT_EQ(d.confidence, decisions[i].confidence) << "item " << i;
  }
}

TEST(PipelineInt8, StaticVerificationCrossChecksSaturation) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil2;
  cfg.backend = BackendKind::kInt8;
  PipelineSpec spec = recommended_spec(Criticality::kSil2);
  spec.has_static_verification = true;  // stricter than SIL2 demands
  cfg.spec = spec;
  CertifiablePipeline p{model(), data(), cfg};

  const auto* sv = p.static_verification();
  ASSERT_NE(sv, nullptr);
  EXPECT_TRUE(sv->quant_checked);
  EXPECT_FALSE(sv->quant.empty());
  EXPECT_TRUE(sv->quant_arena.consistent)
      << "independent byte-arena demand diverges from the engine plan";
  EXPECT_FALSE(p.verification_refused());
  EXPECT_NE(sv->to_text().find("int8 arena plan"), std::string::npos);

  for (std::size_t i = 0; i < 30; ++i) (void)p.infer(data().samples[i].input, i);
  const verify::SaturationCrossCheck xc = p.quant_saturation_cross_check();
  EXPECT_EQ(xc.layers_checked, p.quantized_model()->layer_count());
  EXPECT_TRUE(xc.consistent)
      << "a statically-safe layer clipped at runtime: " << xc.violations
      << " violations";
  EXPECT_EQ(xc.measured_total, p.quant_saturation_total());
}

TEST(PipelineInt8, TelemetryExposesQuantMetrics) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil2;
  cfg.backend = BackendKind::kInt8;
  CertifiablePipeline p{model(), data(), cfg};
  ASSERT_NE(p.telemetry(), nullptr);
  for (std::size_t i = 0; i < 10; ++i) (void)p.infer(data().samples[i].input, i);
  const std::string metrics = obs::expose_text(*p.telemetry());
  EXPECT_NE(metrics.find("sx_quant_saturations_total"), std::string::npos);
  EXPECT_NE(metrics.find("sx_quant_weight_bytes"), std::string::npos);
  EXPECT_NE(metrics.find("sx_stage_quant_inference_cycles"), std::string::npos);
}

// ------------------------------------ one forward pass per decision

struct DecisionBits {
  Status status;
  std::size_t cls;
  std::uint32_t confidence;
  bool degraded;
  std::uint64_t score;
  bool operator==(const DecisionBits&) const = default;
};

DecisionBits bits_of(const Decision& d) {
  return DecisionBits{d.status, d.predicted_class,
                      std::bit_cast<std::uint32_t>(d.confidence), d.degraded,
                      std::bit_cast<std::uint64_t>(d.supervisor_score)};
}

/// In-distribution samples plus mildly corrupted ones, so supervisor
/// rejections and safety-bag fallbacks take part.
std::vector<tensor::Tensor> mixed_inputs() {
  std::vector<tensor::Tensor> in;
  for (std::size_t i = 0; i < 16; ++i) in.push_back(data().samples[i].input);
  const dl::Dataset fog = dl::corrupt(data(), dl::Corruption::kFog, 7);
  const dl::Dataset noise =
      dl::corrupt(data(), dl::Corruption::kGaussianNoise, 7);
  for (std::size_t i = 0; i < 8; ++i) {
    in.push_back(fog.samples[i].input);
    in.push_back(noise.samples[i].input);
  }
  return in;
}

PipelineConfig float_config(Criticality c, dl::KernelMode mode) {
  PipelineConfig cfg;
  cfg.criticality = c;
  cfg.kernel_mode = mode;
  if (c == Criticality::kSil3) cfg.timing_budget = std::uint64_t{1} << 40;
  return cfg;
}

TEST(OneForwardPass, DecisionsBitwiseIdenticalAcrossKernelModes) {
  const auto inputs = mixed_inputs();
  for (const Criticality c : {Criticality::kSil2, Criticality::kSil3}) {
    std::vector<DecisionBits> twin;
    for (const dl::KernelMode mode : dl::all_kernel_modes()) {
      CertifiablePipeline p{model(), data(), float_config(c, mode)};
      std::vector<DecisionBits> got;
      for (std::size_t i = 0; i < inputs.size(); ++i)
        got.push_back(bits_of(p.infer(inputs[i], i)));
      // Fault-free, every decision is scored from the channel's tap.
      EXPECT_EQ(p.supervisor_own_passes(), 0u)
          << trace::to_string(c) << " " << dl::kernel_mode_name(mode);
      if (twin.empty()) {  // kReference comes first
        twin = got;
        continue;
      }
      ASSERT_EQ(got.size(), twin.size());
      for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(got[i] == twin[i])
            << trace::to_string(c) << " " << dl::kernel_mode_name(mode)
            << " decision " << i;
    }
  }
}

TEST(OneForwardPass, TapScoresEqualForwardTraceScores) {
  // The score a decision carries is bitwise the score the forward_trace
  // path gives the same input on the deployed model.
  const auto inputs = mixed_inputs();
  supervise::MahalanobisSupervisor twin;
  twin.fit(model(), data());
  for (const Criticality c : {Criticality::kSil2, Criticality::kSil3}) {
    CertifiablePipeline p{model(), data(),
                          float_config(c, dl::KernelMode::kAuto)};
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const Decision d = p.infer(inputs[i], i);
      if (!ok(d.status)) continue;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(d.supervisor_score),
                std::bit_cast<std::uint64_t>(twin.score(model(), inputs[i])))
          << trace::to_string(c) << " decision " << i;
    }
  }
}

TEST(OneForwardPass, TappedFitEqualsForwardTraceFittedTwin) {
  // Twin: features from Model::forward_trace, threshold from the
  // forward_trace score() path — the pre-tap calibration.
  supervise::MahalanobisSupervisor twin;
  const std::size_t layer =
      supervise::MahalanobisSupervisor::feature_layer_of(model());
  std::vector<float> features;
  std::vector<std::size_t> labels;
  for (const auto& s : data().samples) {
    const auto acts = model().forward_trace(s.input);
    const auto f = acts.at(layer).data();
    features.insert(features.end(), f.begin(), f.end());
    labels.push_back(s.label);
  }
  twin.fit_from_features(model(), features, labels);
  twin.calibrate_threshold(supervise::collect_scores(twin, model(), data()),
                           0.95);

  const dl::Dataset ood = dl::corrupt(data(), dl::Corruption::kFog, 3);
  for (const dl::KernelMode mode : dl::all_kernel_modes()) {
    supervise::MahalanobisSupervisor tapped;
    tapped.calibrate_threshold(tapped.fit_scored(model(), data(), mode),
                               0.95);
    EXPECT_EQ(tapped.feature_layer(), twin.feature_layer());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(tapped.threshold()),
              std::bit_cast<std::uint64_t>(twin.threshold()))
        << dl::kernel_mode_name(mode);
    for (std::size_t i = 0; i < 16; ++i)
      for (const auto* in : {&data().samples[i].input, &ood.samples[i].input})
        EXPECT_EQ(std::bit_cast<std::uint64_t>(tapped.score(model(), *in)),
                  std::bit_cast<std::uint64_t>(twin.score(model(), *in)))
            << dl::kernel_mode_name(mode) << " sample " << i;
  }
}

TEST(OneForwardPass, DefaultSil2CampaignMatchesReferenceTwin) {
  // The default SIL2 channel now runs panelled weights: a campaign on it
  // must classify every trial exactly as the reference twin does (a stale
  // panel would hide the faults).
  CertifiablePipeline deployed{model(), data(),
                               float_config(Criticality::kSil2,
                                            dl::KernelMode::kAuto)};
  CertifiablePipeline twin{model(), data(),
                           float_config(Criticality::kSil2,
                                        dl::KernelMode::kReference)};
  const dl::KernelPlan* plan = deployed.channel()->float_kernel_plan(0);
  ASSERT_NE(plan, nullptr);
  EXPECT_GT(plan->panel_floats(), 0u);
  ASSERT_EQ(twin.channel()->float_kernel_plan(0), nullptr);

  dl::Dataset probes;
  probes.num_classes = data().num_classes;
  probes.input_shape = data().input_shape;
  for (std::size_t i = 0; i < 16; ++i)
    probes.samples.push_back(data().samples[i]);
  for (const safety::FaultType type :
       {safety::FaultType::kBitFlip, safety::FaultType::kStuckLarge}) {
    const safety::CampaignConfig cc{.n_faults = 60, .probes_per_fault = 4,
                                    .fault_type = type, .seed = 17};
    const auto a = safety::run_campaign(*deployed.channel(), probes, cc);
    const auto b = safety::run_campaign(*twin.channel(), probes, cc);
    EXPECT_EQ(a.correct, b.correct) << safety::to_string(type);
    EXPECT_EQ(a.detected, b.detected) << safety::to_string(type);
    EXPECT_EQ(a.fallback, b.fallback) << safety::to_string(type);
    EXPECT_EQ(a.sdc, b.sdc) << safety::to_string(type);
    if (type == safety::FaultType::kStuckLarge) {
      EXPECT_GT(a.detected + a.fallback + a.sdc, 0u)
          << "the campaign must reach the deployed weights";
    }
  }
}

const trace::AuditEntry* find_actor(const trace::AuditLog& log,
                                    const std::string& actor) {
  for (const auto& e : log.entries())
    if (e.actor == actor) return &e;
  return nullptr;
}

TEST(OneForwardPass, SupervisorSourceIsAuditedAndCounted) {
  {
    CertifiablePipeline p{model(), data(),
                          float_config(Criticality::kSil2,
                                       dl::KernelMode::kAuto)};
    const auto* e = find_actor(p.audit(), "supervisor");
    ASSERT_NE(e, nullptr);
    EXPECT_NE(e->payload.find("supervisor=channel-tap"), std::string::npos)
        << e->payload;
    for (std::size_t i = 0; i < 10; ++i) (void)p.infer(data().samples[i].input, i);
    EXPECT_EQ(p.supervisor_own_passes(), 0u);
    const auto id = p.telemetry()->find_counter("sx_supervisor_own_pass_total");
    ASSERT_TRUE(id.valid());
    EXPECT_EQ(p.telemetry()->value(id), 0u);
  }
  {
    // The int8 channel computes no float features: every decision pays an
    // own pass, and the evidence says so.
    PipelineConfig cfg;
    cfg.criticality = Criticality::kSil2;
    cfg.backend = BackendKind::kInt8;
    CertifiablePipeline p{model(), data(), cfg};
    const auto* e = find_actor(p.audit(), "supervisor");
    ASSERT_NE(e, nullptr);
    EXPECT_NE(e->payload.find("supervisor=own-pass"), std::string::npos)
        << e->payload;
    std::uint64_t scored = 0;
    for (std::size_t i = 0; i < 10; ++i)
      scored += ok(p.infer(data().samples[i].input, i).status) ? 1 : 0;
    EXPECT_EQ(p.supervisor_own_passes(), scored);
    const auto id = p.telemetry()->find_counter("sx_supervisor_own_pass_total");
    EXPECT_EQ(p.telemetry()->value(id), scored);
  }
}

TEST(OneForwardPass, Int8BagAndBatchShareOneOwnPass) {
  // An int8 primary computes no float features, so the safety bag scores
  // its own pass; the batch path reuses that engine rather than deploying
  // a second one over the same model. Every score is still bitwise the
  // forward_trace score of the pristine model, and each one is counted.
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil2;
  cfg.backend = BackendKind::kInt8;
  cfg.batch_workers = 2;
  PipelineSpec spec = recommended_spec(Criticality::kSil2);
  spec.has_safety_bag = true;  // stricter than SIL2 demands
  cfg.spec = spec;
  CertifiablePipeline p{model(), data(), cfg};
  const auto* e = find_actor(p.audit(), "supervisor");
  ASSERT_NE(e, nullptr);
  EXPECT_NE(e->payload.find("supervisor=own-pass"), std::string::npos)
      << e->payload;
  supervise::MahalanobisSupervisor twin;
  twin.fit(model(), data());

  std::vector<tensor::Tensor> inputs;
  for (std::size_t i = 0; i < 9; ++i)
    inputs.push_back(data().samples[i].input);
  const auto batch = p.infer_batch(inputs);
  ASSERT_EQ(batch.size(), inputs.size());
  std::uint64_t scored = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i)
    for (const Decision& d : {batch[i], p.infer(inputs[i], i)}) {
      if (d.status != Status::kOk) continue;
      ++scored;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(d.supervisor_score),
                std::bit_cast<std::uint64_t>(twin.score(model(), inputs[i])))
          << "item " << i;
    }
  EXPECT_GT(scored, 0u);
  EXPECT_EQ(p.supervisor_own_passes(), scored);
}

TEST(OneForwardPass, FailStoppedPrimaryFallsBackToOwnPass) {
  // SIL3: a DMR divergence makes the bag fall back without scoring; the
  // pipeline then scores the pristine model once and counts it.
  CertifiablePipeline p{model(), data(),
                        float_config(Criticality::kSil3,
                                     dl::KernelMode::kAuto)};
  safety::InferenceChannel& ch = *p.channel();
  ch.replica(0).layer(1).params()[10] += 50.0f;
  ch.repack(0);
  supervise::MahalanobisSupervisor twin;
  twin.fit(model(), data());
  std::uint64_t degraded = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    const Decision d = p.infer(data().samples[i].input, i);
    ASSERT_EQ(d.status, Status::kOk);
    if (!d.degraded) continue;
    ++degraded;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(d.supervisor_score),
              std::bit_cast<std::uint64_t>(
                  twin.score(model(), data().samples[i].input)));
  }
  EXPECT_GT(degraded, 0u);
  EXPECT_EQ(p.supervisor_own_passes(), degraded);
}

}  // namespace
}  // namespace sx::core
