// Decision benchmark: shared declarations.
//
// One binary deploys core::CertifiablePipeline on the two-conv perception
// CNN at its default configuration and runs one seeded workload:
//
//   sil2_decide     closed loop, one client, infer() per frame, SIL2 float32
//   sil3_decide     the same loop at SIL3 (DMR + safety bag + static verify)
//   serve_burst     bursty mixed-criticality trace through serve::Server
//                   over a SIL2 int8 pipeline with four batch workers
//   fault_campaign  bit-flip trials against the deployed SIL2 channel
//
// An untraced run prints the end-to-end metrics; a traced run replays
// sampled decisions layer by layer through the public APIs and prints the
// per-layer metrics. See decbench/README.md for the metric definitions.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "dl/dataset.hpp"
#include "dl/model.hpp"
#include "serve/server.hpp"
#include "serve/traffic.hpp"
#include "util/hash.hpp"

namespace decbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ------------------------------------------------------------ statistics

/// Value at percentile `p` (0 < p < 100) of `sorted` by the nearest-rank
/// rule: the smallest sample with at least p% of the samples at or below
/// it. `sorted` must be non-empty and ascending.
double percentile(const std::vector<double>& sorted, double p);

/// Samples strictly after the nearest-rank position of percentile `p`.
std::size_t samples_beyond(std::size_t n, double p);

/// Median of `values` (copied and sorted; 0 for an empty vector).
double median(std::vector<double> values);

/// The highest of 99.9, 99, 90 and 50 that leaves at least ten samples
/// beyond it among `n` samples; 0 when not even the median does.
double tail_percentile(std::size_t n);

// ------------------------------------------------------- correctness gate

/// SHA-256 over the fields of a decision that must not depend on the
/// kernel plan: status, class, confidence bits, degraded flag and
/// supervisor-score bits.
class DecisionDigest {
 public:
  void add(const sx::core::Decision& d);
  std::string hex() const;

 private:
  sx::util::Sha256 sha_;
};

/// The compared fields of one decision (bit-exact).
struct DecisionKey {
  std::uint8_t status = 0;
  std::uint64_t cls = 0;
  std::uint32_t confidence_bits = 0;
  bool degraded = false;
  std::uint64_t score_bits = 0;

  static DecisionKey of(const sx::core::Decision& d);
  bool operator==(const DecisionKey&) const = default;
};

/// Counts a workload's attempted operations and its failures; a failed
/// check marks the whole run incorrect.
struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t refusals = 0;  ///< ODD rejections and LO sheds (not failures)
  bool correct = true;
  std::vector<std::string> problems;

  void fail(const std::string& why, std::uint64_t count = 1);
  /// Compares one round's decisions and digest against the reference
  /// twin's; every differing decision is a failure. Returns true on match.
  bool check_round(const std::vector<DecisionKey>& got,
                   const std::string& got_digest,
                   const std::vector<DecisionKey>& want,
                   const std::string& want_digest);
};

// ------------------------------------------------------------- tracing

/// One span of the traced run. Replay spans name the decision (or trial)
/// span they belong to as their parent.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::string name;
  double start_us = 0.0;  ///< since the recorder's epoch
  double end_us = 0.0;
};

/// In-memory span store, written out once at the end of the run.
class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}
  std::uint64_t record(const std::string& name, std::uint64_t parent,
                       Clock::time_point t0, Clock::time_point t1);
  /// Sets the end of span `id`, for a parent opened before its children.
  void close(std::uint64_t id, Clock::time_point t1);
  /// Median duration (us) of the spans called `name`; 0 when none.
  double median_us(const std::string& name) const;
  /// Median self time (us) of the spans called `name`: duration minus the
  /// summed durations of the spans naming it as parent. Replays run after
  /// their parent, not inside it, so a self time can come out negative
  /// when the isolated calls cost more than they did inside the decision.
  double median_self_us(const std::string& name) const;

  struct Summary {
    std::string name;
    std::size_t count = 0;
    double median_us = 0.0;
    double median_self_us = 0.0;
  };
  /// One row per span name, in order of first appearance.
  std::vector<Summary> summary() const;
  /// Writes one JSON object per span, one per line.
  bool write(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// -------------------------------------------------------------- results

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< 0 = not a sampled statistic
  std::string note;
};

struct RunResult {
  Gate gate;
  std::vector<Metric> metrics;
  std::vector<std::string> kernel_backends;  ///< one per deployed pipeline
  int pinned_cpu = -1;  ///< CPU the run was pinned to; -1 = not pinned
  std::string spans_file;
  std::vector<SpanLog::Summary> layers;  ///< traced runs only
  /// Per-round values behind the end-to-end medians (untraced runs).
  std::vector<std::pair<std::string, std::vector<double>>> rounds;

  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0, std::string note = {}) {
    metrics.push_back(
        Metric{std::move(name), value, std::move(unit), samples,
               std::move(note)});
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

// ------------------------------------------------------------- fixture

/// Calibration/training set of the perception CNN (fixed, not seeded by
/// the workload seed: it is part of the deployed program).
const sx::dl::Dataset& calibration();
/// The two-conv perception CNN, trained once per process before any timing.
const sx::dl::Model& perception_cnn();

/// `n` road-scene frames drawn from `seed` that the deployed ODD guard
/// accepts, in generation order.
std::vector<sx::tensor::Tensor> in_odd_frames(std::size_t n,
                                              std::uint64_t seed);
/// Campaign probe set drawn from `seed`.
sx::dl::Dataset campaign_probes(std::uint64_t seed);

/// Serving payload pool: 16 frames, of which 2 (1/8) are scaled out of
/// the ODD, at fixed pool positions.
std::vector<sx::tensor::Tensor> serve_pool(std::uint64_t seed);
/// Bursty two-stream trace (conforming SIL3 hazard stream plus an
/// overloading SIL1 burst stream) drawn from `seed`.
sx::serve::ArrivalTrace serve_trace(std::uint64_t seed);
/// Minimum arrival gap at which the trace is cut into busy periods.
inline constexpr std::uint64_t kServeSliceGap = 40;

sx::core::PipelineConfig sil2_config();
sx::core::PipelineConfig sil3_config();
sx::core::PipelineConfig serve_pipeline_config();
sx::serve::ServerConfig serve_server_config();

// ------------------------------------------------------------ workloads

RunResult run_decide(const Options& opt, bool sil3);
RunResult run_serve(const Options& opt);
RunResult run_campaign(const Options& opt);

// ---------------------------------------------------------- host speed

/// The benchmark's own host-speed probe: one forward pass of a fixed float
/// CNN with the fixture's layer shapes (two 3x3 convolutions on 16x16,
/// max-pool, two dense layers), written as plain loops in the benchmark
/// and never in the program under test, so no change to the program can
/// move it. On a shared host it slows down with the decision path
/// (per-round correlation 0.90-0.98 with the single-threaded workloads on
/// the build host; see README.md), so scaling a round's times by
/// reference / probe removes most of the host's drift from the end-to-end
/// figures.
class HostProbe {
 public:
  /// Probe time, in microseconds, that the scaled figures refer to.
  static constexpr double kReferenceUs = 200.0;

  HostProbe();
  /// Runs the probe once and records its wall time.
  void sample();
  /// Median probe time (us) since the last reset.
  double median_us() const;
  /// Factor that scales a time measured since the last reset to the
  /// reference host speed (rates divide by it).
  double time_scale() const { return kReferenceUs / median_us(); }
  /// Wall time spent probing since the last reset (us).
  double total_us() const noexcept { return total_us_; }
  void reset() {
    samples_.clear();
    total_us_ = 0.0;
  }

 private:
  std::vector<float> in_, w1_, a1_, w2_, a2_, pool_, w3_, a3_, w4_, a4_;
  std::vector<double> samples_;
  double total_us_ = 0.0;
};

// ---------------------------------------------------------------- host

/// Peak resident set size since the last reset_peak_rss(), in MiB.
double peak_rss_mb();
/// Resets the peak-RSS mark to the current RSS (Linux clear_refs). Where
/// the kernel refuses, the peak keeps covering the whole process.
void reset_peak_rss();
std::string cpu_model();
/// Restricts the calling thread, and every thread it creates afterwards,
/// to the CPU it is running on. Returns that CPU, or -1 when the kernel
/// refuses (the run then continues unpinned).
int pin_to_current_cpu();

}  // namespace decbench
