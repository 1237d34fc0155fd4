// Command line of the decision benchmark.
//
//   decbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--git-sha <sha>] [--out-dir <dir>]
//
// Prints every metric by name with its unit and sample count, a
// provenance line, and, as the last line of standard output, one JSON
// object {"correct", "attempted", "failed", "metrics"}. The full result
// (provenance, notes, gate problems) is also written to
// <out-dir>/result-<workload>-seed<n>-trace<t>.json. Exits 1 when the
// correctness gate fails and 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <malloc.h>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "platform/cpu_probe.hpp"

namespace {

using decbench::Metric;
using decbench::RunResult;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must list exactly the metrics of BENCHMARK.json, in its order;
// decbench/run.py refuses a result whose names or units differ.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"decision_p50_us", "us"},
    {"decision_p90_us", "us"},
    {"decisions_per_s", "1/s"},
    {"trials_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"core.decision_cycles", "ns"},
    {"core.stage_odd_guard_cycles", "ns"},
    {"core.stage_inference_cycles", "ns"},
    {"core.stage_supervisor_cycles", "ns"},
    {"core.unstaged_share", "ratio"},
    {"core.infer_self_us", "us"},
    {"dl.engine_run_us", "us"},
    {"tensor.macs_per_inference", "count"},
    {"tensor.weight_bytes_per_inference", "bytes"},
    {"tensor.gmacs_per_s", "GMAC/s"},
    {"dl.run_tapped_us", "us"},
    {"supervise.score_from_features_us", "us"},
    {"safety.channel_infer_us", "us"},
    {"safety.inject_fault_us", "us"},
    {"safety.undo_fault_us", "us"},
    {"safety.campaign_probe_share", "ratio"},
    {"trace.odd_check_us", "us"},
    {"trace.audit_append_us", "us"},
    {"trace.audit_entries_per_decision", "ratio"},
    {"dl.quant_engine_run_us", "us"},
    {"dl.batch_dispatch_us", "us"},
    {"dl.batch_items_per_dispatch", "count"},
    {"dl.batch_worker_utilization", "ratio"},
    {"dl.batch_worker_imbalance", "ratio"},
    {"dl.batch_wall_share", "ratio"},
    {"serve.run_trace_us_per_request", "us"},
    {"serve.items_per_window", "count"},
    {"serve.window_fill_share", "ratio"},
    {"serve.shed_share", "ratio"},
    {"serve.queue_rejections", "count"},
    {"serve.latency_p99_logical", "ticks"},
    {"serve.server_setup_ms", "ms"},
    {"dl.plan_build_ms", "ms"},
    {"dl.quantize_ms", "ms"},
    {"supervise.fit_ms", "ms"},
    {"verify.verify_model_ms", "ms"},
    {"dl.arena_bytes", "bytes"},
    {"dl.panel_bytes", "bytes"},
    {"obs.telemetry_cost_us", "us"},
    {"obs.tracing_overhead_share", "ratio"},
    {"bench.untraced_decision_p50_us", "us"},
    {"bench.traced_decision_p50_us", "us"},
    {"host.probe_us", "us"},
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const std::string& why) {
  std::cerr << "decbench: " << why
            << "\nusage: decbench --workload "
               "<sil2_decide|sil3_decide|serve_burst|fault_campaign> "
               "--seed <n> --seconds <s> --trace <0|1> [--git-sha <sha>] "
               "[--out-dir <dir>]\n";
  return 2;
}

/// Orders the workload's metrics as the table lists them. A per-layer
/// metric the workload does not exercise reads 0; every end-to-end metric
/// must have been measured.
std::vector<Metric> table_order(const RunResult& res, bool trace) {
  std::map<std::string, Metric> by_name;
  for (const Metric& m : res.metrics) by_name[m.name] = m;
  std::vector<Metric> out;
  const MetricSpec* begin = trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricSpec* end = trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  for (const MetricSpec* s = begin; s != end; ++s) {
    auto it = by_name.find(s->name);
    if (it == by_name.end()) {
      if (!trace)
        throw std::logic_error(std::string("end-to-end metric ") + s->name +
                               " was not measured");
      out.push_back(Metric{s->name, 0.0, s->unit, 0,
                           "not exercised by this workload"});
    } else {
      if (it->second.unit != s->unit)
        throw std::logic_error("metric " + it->second.name + " has unit " +
                               it->second.unit);
      out.push_back(it->second);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  decbench::Options opt;
  std::string git_sha = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = val;
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(val);
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(val);
        have_seconds = opt.seconds > 0.0;
      } else if (arg == "--trace") {
        if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
        opt.trace = val == "1";
        have_trace = true;
      } else if (arg == "--git-sha") {
        git_sha = val;
      } else if (arg == "--out-dir") {
        opt.out_dir = val;
      } else {
        return usage("unknown argument " + arg);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + arg);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return usage("--workload, --seed, --seconds and --trace are required");

  std::filesystem::create_directories(opt.out_dir);

  // Each round deploys and tears down a whole pipeline, which a deployment
  // does once. glibc's dynamic mmap threshold would then move freed round
  // memory into the heap, where allocation order decides how much of it
  // stays resident: peak RSS jumped by 7 MiB on some serve_burst seeds.
  // Pinning the thresholds at their default values keeps blocks of 128 KiB
  // and more mmapped and returned on free, so peak_rss_mb follows live
  // memory.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);

  // The fixture model is trained before any timing starts.
  (void)decbench::perception_cnn();

  RunResult res;
  try {
    if (opt.workload == "sil2_decide") {
      res = decbench::run_decide(opt, false);
    } else if (opt.workload == "sil3_decide") {
      res = decbench::run_decide(opt, true);
    } else if (opt.workload == "serve_burst") {
      res = decbench::run_serve(opt);
    } else if (opt.workload == "fault_campaign") {
      res = decbench::run_campaign(opt);
    } else {
      return usage("unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "decbench: " << opt.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }

  std::vector<Metric> metrics;
  try {
    metrics = table_order(res, opt.trace);
  } catch (const std::exception& e) {
    std::cerr << "decbench: " << e.what() << "\n";
    return 1;
  }
  const sx::platform::CpuProbe probe = sx::platform::probe_cpu();
  const unsigned nproc = std::thread::hardware_concurrency();

  std::cout << "workload " << opt.workload << " seed " << opt.seed
            << (opt.trace ? " (traced)" : " (untraced)") << "\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << json_number(m.value) << " "
              << m.unit;
    if (m.samples > 0) std::cout << "  (n=" << m.samples << ")";
    if (!m.note.empty()) std::cout << "  [" << m.note << "]";
    std::cout << "\n";
  }
  std::cout << "  attempted=" << res.gate.attempted
            << " failed=" << res.gate.failed
            << " refusals=" << res.gate.refusals
            << (res.gate.correct ? " gate=PASS" : " gate=FAIL") << "\n";
  for (const std::string& p : res.gate.problems)
    std::cout << "  gate: " << p << "\n";
  if (!res.spans_file.empty()) {
    std::cout << "  spans: " << res.spans_file << "\n"
              << "  layer (span)                      count   median_us"
                 "   self_us\n";
    for (const auto& l : res.layers) {
      char row[128];
      std::snprintf(row, sizeof row, "  %-32s %6zu %11.3f %9.3f\n",
                    l.name.c_str(), l.count, l.median_us, l.median_self_us);
      std::cout << row;
    }
  }

  std::ostringstream prov;
  prov << "{\"workload\":" << json_string(opt.workload)
       << ",\"seed\":" << opt.seed << ",\"trace\":" << (opt.trace ? 1 : 0)
       << ",\"seconds\":" << json_number(opt.seconds)
       << ",\"git_sha\":" << json_string(git_sha)
       << ",\"cpu_model\":" << json_string(decbench::cpu_model())
       << ",\"nproc\":" << nproc << ",\"pinned_cpu\":" << res.pinned_cpu
       << ",\"cpu_probe\":{\"avx2\":"
       << (probe.avx2 ? "true" : "false")
       << ",\"avx512f\":" << (probe.avx512f ? "true" : "false")
       << "},\"kernel_backend\":[";
  for (std::size_t i = 0; i < res.kernel_backends.size(); ++i)
    prov << (i ? "," : "") << json_string(res.kernel_backends[i]);
  prov << "]}";
  std::cout << "provenance " << prov.str() << "\n";

  std::ostringstream line;
  line << "{\"correct\":" << (res.gate.correct ? "true" : "false")
       << ",\"attempted\":" << res.gate.attempted
       << ",\"failed\":" << res.gate.failed << ",\"metrics\":{";
  std::ostringstream detail;
  detail << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    line << (i ? "," : "") << json_string(m.name)
         << ":{\"value\":" << json_number(m.value)
         << ",\"unit\":" << json_string(m.unit) << "}";
    detail << (i ? "," : "") << json_string(m.name)
           << ":{\"value\":" << json_number(m.value)
           << ",\"unit\":" << json_string(m.unit)
           << ",\"samples\":" << m.samples
           << ",\"note\":" << json_string(m.note) << "}";
  }
  line << "}}";
  detail << "}";

  const std::string result_file =
      opt.out_dir + "/result-" + opt.workload + "-seed" +
      std::to_string(opt.seed) + "-trace" + (opt.trace ? "1" : "0") +
      ".json";
  std::ofstream f(result_file);
  f << "{\"provenance\":" << prov.str() << ",\"refusals\":"
    << res.gate.refusals << ",\"problems\":[";
  for (std::size_t i = 0; i < res.gate.problems.size(); ++i)
    f << (i ? "," : "") << json_string(res.gate.problems[i]);
  f << "],\"spans_file\":" << json_string(res.spans_file) << ",\"layers\":[";
  for (std::size_t i = 0; i < res.layers.size(); ++i)
    f << (i ? "," : "") << "{\"span\":" << json_string(res.layers[i].name)
      << ",\"count\":" << res.layers[i].count
      << ",\"median_us\":" << json_number(res.layers[i].median_us)
      << ",\"median_self_us\":" << json_number(res.layers[i].median_self_us)
      << "}";
  f << "],\"rounds\":{";
  for (std::size_t i = 0; i < res.rounds.size(); ++i) {
    f << (i ? "," : "") << json_string(res.rounds[i].first) << ":[";
    const auto& v = res.rounds[i].second;
    for (std::size_t k = 0; k < v.size(); ++k)
      f << (k ? "," : "") << json_number(v[k]);
    f << "]";
  }
  f << "}"
    << ",\"metrics\":" << detail.str() << ",\"result\":" << line.str()
    << "}\n";

  std::cout << line.str() << std::endl;
  return res.gate.correct ? 0 : 1;
}
