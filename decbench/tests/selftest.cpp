// Unit checks of the decision benchmark's own machinery: seeded inputs,
// the percentile rule and the correctness gate. Exits 0 when every check
// holds; prints each failed check.
//
//   cmake --build <build dir> --target decbench_selftest
//   <build dir>/decbench_selftest
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "serve/traffic.hpp"

namespace {

int failures = 0;

void check(bool cond, const std::string& what) {
  if (!cond) {
    ++failures;
    std::cout << "FAIL: " << what << "\n";
  }
}

bool same_bytes(const std::vector<sx::tensor::Tensor>& a,
                const std::vector<sx::tensor::Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto x = a[i].data();
    const auto y = b[i].data();
    if (x.size() != y.size() ||
        std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) != 0)
      return false;
  }
  return true;
}

void seeded_inputs_are_byte_deterministic() {
  using namespace decbench;
  check(same_bytes(in_odd_frames(64, 5), in_odd_frames(64, 5)),
        "decide frames repeat for one seed");
  check(!same_bytes(in_odd_frames(64, 5), in_odd_frames(64, 6)),
        "decide frames differ across seeds");
  check(same_bytes(serve_pool(5), serve_pool(5)),
        "serving pool repeats for one seed");
  check(sx::serve::serialize_trace(serve_trace(5)) ==
            sx::serve::serialize_trace(serve_trace(5)),
        "serving trace serializes byte-identically for one seed");
  check(sx::serve::serialize_trace(serve_trace(5)) !=
            sx::serve::serialize_trace(serve_trace(6)),
        "serving traces differ across seeds");
  std::vector<sx::tensor::Tensor> a, b;
  for (const auto& s : campaign_probes(5).samples) a.push_back(s.input);
  for (const auto& s : campaign_probes(5).samples) b.push_back(s.input);
  check(same_bytes(a, b), "campaign probes repeat for one seed");
}

void percentile_rule_keeps_ten_samples_beyond() {
  using namespace decbench;
  for (std::size_t n = 1; n <= 20000; ++n) {
    const double p = tail_percentile(n);
    if (p == 0.0) {
      check(samples_beyond(n, 50.0) < 10,
            "no percentile only when the median has < 10 beyond, n=" +
                std::to_string(n));
      continue;
    }
    check(samples_beyond(n, p) >= 10,
          "p" + std::to_string(p) + " keeps ten samples beyond, n=" +
              std::to_string(n));
    for (const double higher : {99.9, 99.0, 90.0})
      if (higher > p)
        check(samples_beyond(n, higher) < 10,
              "a higher percentile would have been allowed, n=" +
                  std::to_string(n));
  }
  check(tail_percentile(1000) == 99.0, "1000 samples support p99");
  check(tail_percentile(999) == 90.0, "999 samples do not support p99");
  check(tail_percentile(19) == 0.0, "19 samples support no percentile");

  // Nearest rank: the smallest sample with at least p% at or below it.
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  check(percentile(v, 50.0) == 100.0, "nearest-rank median of 1..200");
  check(percentile(v, 99.0) == 198.0, "nearest-rank p99 of 1..200");
  check(samples_beyond(200, 99.0) == 2, "two samples beyond p99 of 200");
  check(median({3.0, 1.0, 2.0, 10.0}) == 2.5, "median of an even count");
}

void digest_mismatch_counts_as_failure() {
  using namespace decbench;
  std::vector<sx::core::Decision> ds(5);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    ds[i].predicted_class = i % 4;
    ds[i].confidence = 0.5f + 0.1f * static_cast<float>(i);
    ds[i].supervisor_score = 1.25 * static_cast<double>(i);
  }
  auto keys_and_digest = [](const std::vector<sx::core::Decision>& v) {
    std::vector<DecisionKey> keys;
    DecisionDigest digest;
    for (const auto& d : v) {
      keys.push_back(DecisionKey::of(d));
      digest.add(d);
    }
    return std::pair{keys, digest.hex()};
  };
  const auto [want_keys, want_digest] = keys_and_digest(ds);

  Gate same;
  const auto [k1, d1] = keys_and_digest(ds);
  check(same.check_round(k1, d1, want_keys, want_digest) && same.correct &&
            same.failed == 0,
        "identical decisions pass the gate");

  // One supervisor-score bit flipped: same class, different digest.
  std::vector<sx::core::Decision> forced = ds;
  forced[3].supervisor_score = std::nextafter(forced[3].supervisor_score, 1e9);
  const auto [k2, d2] = keys_and_digest(forced);
  check(d2 != want_digest, "a one-bit score change changes the digest");
  Gate gate;
  gate.attempted = forced.size();
  check(!gate.check_round(k2, d2, want_keys, want_digest),
        "a forced mismatch is reported");
  check(!gate.correct && gate.failed == 1,
        "a forced mismatch counts one failed decision and marks the run "
        "incorrect");
}

void decide_gate_matches_reference_twin() {
  // The decide workloads' gate on a real deployment: default plan versus
  // the reference loops over the same frames.
  using namespace decbench;
  const auto frames = in_odd_frames(40, 9);
  auto run = [&](sx::dl::KernelMode mode) {
    sx::core::PipelineConfig cfg = sil2_config();
    cfg.kernel_mode = mode;
    sx::core::CertifiablePipeline p{perception_cnn(), calibration(), cfg};
    std::vector<DecisionKey> keys;
    DecisionDigest digest;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const auto d = p.infer(frames[i], i, 0);
      keys.push_back(DecisionKey::of(d));
      digest.add(d);
    }
    return std::pair{keys, digest.hex()};
  };
  const auto [ref_keys, ref_digest] = run(sx::dl::KernelMode::kReference);
  const auto [keys, digest] = run(sx::dl::KernelMode::kAuto);
  Gate gate;
  check(gate.check_round(keys, digest, ref_keys, ref_digest),
        "default SIL2 decisions equal the reference twin's");
}

}  // namespace

int main() {
  seeded_inputs_are_byte_deterministic();
  percentile_rule_keeps_ten_samples_beyond();
  digest_mismatch_counts_as_failure();
  decide_gate_matches_reference_twin();
  std::cout << (failures == 0 ? "decbench selftest: PASS\n"
                              : "decbench selftest: FAIL\n");
  return failures == 0 ? 0 : 1;
}
