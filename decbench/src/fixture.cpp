// The deployed program (trained CNN, calibration set, configurations) and
// the seeded workload inputs.
#include <stdexcept>

#include "bench.hpp"
#include "dl/train.hpp"
#include "trace/odd.hpp"
#include "util/rng.hpp"

namespace decbench {
namespace {

/// Spreads the workload seed so that no seed reproduces the calibration
/// set's own generator seed stream.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  sx::util::SplitMix64 sm{seed ^ (salt * 0x9e3779b97f4a7c15ULL)};
  return sm.next();
}

}  // namespace

const sx::dl::Dataset& calibration() {
  static const sx::dl::Dataset ds = sx::dl::make_road_scene(600, 11);
  return ds;
}

const sx::dl::Model& perception_cnn() {
  // The perception CNN of EXPERIMENTS E14 rung 3 (two 8-channel conv
  // blocks), trained exactly as the E14 harness trains it.
  static const sx::dl::Model model = [] {
    sx::dl::ModelBuilder b{calibration().input_shape};
    b.conv2d(8, 3, 1, 1)
        .relu()
        .conv2d(8, 3, 1, 1)
        .relu()
        .maxpool(2)
        .flatten()
        .dense(32)
        .relu()
        .dense(sx::dl::kRoadSceneClasses);
    sx::dl::Model m = b.build(21);
    sx::dl::Trainer trainer{sx::dl::TrainConfig{.learning_rate = 0.02,
                                                .momentum = 0.9,
                                                .epochs = 4,
                                                .batch_size = 16,
                                                .shuffle_seed = 7}};
    trainer.fit(m, calibration());
    return m;
  }();
  return model;
}

std::vector<sx::tensor::Tensor> in_odd_frames(std::size_t n,
                                              std::uint64_t seed) {
  sx::trace::OddGuard guard = sx::trace::OddGuard::fit(calibration());
  std::vector<sx::tensor::Tensor> frames;
  frames.reserve(n);
  for (std::uint64_t chunk = 0; frames.size() < n; ++chunk) {
    if (chunk > 64)
      throw std::runtime_error("in_odd_frames: the ODD rejects the scenes");
    const sx::dl::Dataset ds =
        sx::dl::make_road_scene(n, mix(seed, 1 + chunk));
    for (const auto& s : ds.samples) {
      if (frames.size() == n) break;
      if (sx::ok(guard.check(s.input.view()))) frames.push_back(s.input);
    }
  }
  return frames;
}

sx::dl::Dataset campaign_probes(std::uint64_t seed) {
  return sx::dl::make_road_scene(64, mix(seed, 101));
}

std::vector<sx::tensor::Tensor> serve_pool(std::uint64_t seed) {
  std::vector<sx::tensor::Tensor> pool = in_odd_frames(16, mix(seed, 201));
  // Two of sixteen payloads (positions 7 and 15) leave the ODD: every
  // value is pushed above the calibrated value range.
  for (const std::size_t i : {std::size_t{7}, std::size_t{15}})
    for (float& v : pool[i].data()) v = 3.0f * v + 1.5f;
  return pool;
}

sx::serve::ArrivalTrace serve_trace(std::uint64_t seed) {
  // The E20 bursty shape: a conforming hazard stream (one request every
  // 40 units) against bursts of 24 infotainment requests every ~400.
  return sx::serve::make_bursty_trace(
      {sx::serve::BurstyStreamTraffic{.burst_len = 1, .gap_between = 40},
       sx::serve::BurstyStreamTraffic{.burst_len = 24,
                                      .gap_in_burst = 1,
                                      .gap_between = 400,
                                      .jitter = 16}},
      sx::serve::TrafficConfig{
          .horizon = 40000, .payloads = 16, .seed = mix(seed, 301)});
}

sx::core::PipelineConfig sil2_config() {
  sx::core::PipelineConfig cfg;
  cfg.criticality = sx::core::Criticality::kSil2;
  return cfg;
}

sx::core::PipelineConfig sil3_config() {
  sx::core::PipelineConfig cfg;
  cfg.criticality = sx::core::Criticality::kSil3;
  // The spec demands a budget; infer() reports zero elapsed time, so a
  // budget of any size never trips and the decisions stay comparable to
  // the reference twin's.
  cfg.timing_budget = std::uint64_t{1} << 40;
  return cfg;
}

sx::core::PipelineConfig serve_pipeline_config() {
  sx::core::PipelineConfig cfg;
  cfg.criticality = sx::core::Criticality::kSil2;
  cfg.backend = sx::core::BackendKind::kInt8;
  cfg.batch_workers = 4;
  return cfg;
}

sx::serve::ServerConfig serve_server_config() {
  sx::serve::ServerConfig cfg;
  cfg.streams = {
      sx::serve::StreamSpec{.name = "hazard",
                            .criticality = sx::trace::Criticality::kSil3,
                            .period = 40,
                            .deadline = 40,
                            .service_lo = 4,
                            .service_hi = 8},
      sx::serve::StreamSpec{.name = "infotainment",
                            .criticality = sx::trace::Criticality::kSil1,
                            .period = 16,
                            .deadline = 16,
                            .service_lo = 2},
  };
  cfg.batch_max = 4;
  cfg.batch_window = 4;
  cfg.dispatch_overhead = 1;
  cfg.queue_capacity = 256;
  cfg.telemetry.sample_capacity = 65536;
  return cfg;
}

}  // namespace decbench
