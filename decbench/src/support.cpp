// Statistics, correctness gate, span store and host facts.
#include <sched.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hpp"

namespace decbench {

double percentile(const std::vector<double>& sorted, double p) {
  const std::size_t n = sorted.size();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return sorted[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double tail_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 90.0, 50.0})
    if (samples_beyond(n, p) >= 10) return p;
  return 0.0;
}

// ------------------------------------------------------------------ gate

DecisionKey DecisionKey::of(const sx::core::Decision& d) {
  return DecisionKey{static_cast<std::uint8_t>(d.status), d.predicted_class,
                     std::bit_cast<std::uint32_t>(d.confidence), d.degraded,
                     std::bit_cast<std::uint64_t>(d.supervisor_score)};
}

void DecisionDigest::add(const sx::core::Decision& d) {
  const DecisionKey k = DecisionKey::of(d);
  std::array<std::uint8_t, 1 + 8 + 4 + 1 + 8> bytes{};
  std::size_t at = 0;
  auto put = [&](std::uint64_t v, std::size_t width) {
    for (std::size_t i = 0; i < width; ++i)
      bytes[at++] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  put(k.status, 1);
  put(k.cls, 8);
  put(k.confidence_bits, 4);
  put(k.degraded ? 1 : 0, 1);
  put(k.score_bits, 8);
  sha_.update(std::span<const std::uint8_t>(bytes));
}

std::string DecisionDigest::hex() const {
  sx::util::Sha256 copy = sha_;
  return sx::util::to_hex(copy.finish());
}

void Gate::fail(const std::string& why, std::uint64_t count) {
  failed += count;
  correct = false;
  if (problems.size() < 16) problems.push_back(why);
}

bool Gate::check_round(const std::vector<DecisionKey>& got,
                       const std::string& got_digest,
                       const std::vector<DecisionKey>& want,
                       const std::string& want_digest) {
  if (got_digest == want_digest && got == want) return true;
  std::uint64_t differing = got.size() == want.size() ? 0 : 1;
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i)
    if (!(got[i] == want[i])) ++differing;
  fail("decision digest " + got_digest.substr(0, 16) +
           " != reference " + want_digest.substr(0, 16),
       std::max<std::uint64_t>(differing, 1));
  return false;
}

// ----------------------------------------------------------------- spans

std::uint64_t SpanLog::record(const std::string& name, std::uint64_t parent,
                              Clock::time_point t0, Clock::time_point t1) {
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back(Span{id, parent, name, micros_between(epoch_, t0),
                        micros_between(epoch_, t1)});
  return id;
}

void SpanLog::close(std::uint64_t id, Clock::time_point t1) {
  spans_.at(id - 1).end_us = micros_between(epoch_, t1);
}

double SpanLog::median_us(const std::string& name) const {
  std::vector<double> d;
  for (const Span& s : spans_)
    if (s.name == name) d.push_back(s.end_us - s.start_us);
  return median(std::move(d));
}

double SpanLog::median_self_us(const std::string& name) const {
  // Children always follow their parent in the log; ids are positions + 1.
  std::vector<double> child_sum(spans_.size() + 1, 0.0);
  for (const Span& s : spans_)
    if (s.parent != 0) child_sum[s.parent] += s.end_us - s.start_us;
  std::vector<double> self;
  for (const Span& s : spans_)
    if (s.name == name)
      self.push_back(s.end_us - s.start_us - child_sum[s.id]);
  return median(std::move(self));
}

std::vector<SpanLog::Summary> SpanLog::summary() const {
  std::vector<Summary> rows;
  for (const Span& s : spans_) {
    auto it = std::find_if(rows.begin(), rows.end(),
                           [&](const Summary& r) { return r.name == s.name; });
    if (it == rows.end()) rows.push_back(Summary{s.name, 1, 0.0, 0.0});
    else ++it->count;
  }
  for (Summary& r : rows) {
    r.median_us = median_us(r.name);
    r.median_self_us = median_self_us(r.name);
  }
  return rows;
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream f(path);
  for (const Span& s : spans_) {
    f << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
      << s.name << "\",\"start_us\":" << s.start_us
      << ",\"end_us\":" << s.end_us << "}\n";
  }
  f.flush();
  return static_cast<bool>(f);
}

// ------------------------------------------------------------ host probe

HostProbe::HostProbe()
    : in_(18 * 18, 0.5f),
      w1_(8 * 9, 0.1f),
      a1_(8 * 18 * 18, 0.0f),
      w2_(8 * 8 * 9, 0.01f),
      a2_(8 * 16 * 16, 0.0f),
      pool_(8 * 8 * 8, 0.0f),
      w3_(512 * 32, 0.001f),
      a3_(32, 0.0f),
      w4_(32 * 4, 0.01f),
      a4_(4, 0.0f) {}

void HostProbe::sample() {
  const auto t0 = Clock::now();
  // conv 1->8 (3x3 over the padded 18x18 input) + ReLU, into padded
  // 18x18 channel frames.
  for (std::size_t co = 0; co < 8; ++co)
    for (std::size_t y = 0; y < 16; ++y)
      for (std::size_t x = 0; x < 16; ++x) {
        float acc = 0.0f;
        for (std::size_t ky = 0; ky < 3; ++ky)
          for (std::size_t kx = 0; kx < 3; ++kx)
            acc += in_[(y + ky) * 18 + x + kx] * w1_[co * 9 + ky * 3 + kx];
        a1_[(co * 18 + y + 1) * 18 + x + 1] = std::max(acc, 0.0f);
      }
  // conv 8->8 (3x3) + ReLU.
  for (std::size_t co = 0; co < 8; ++co)
    for (std::size_t y = 0; y < 16; ++y)
      for (std::size_t x = 0; x < 16; ++x) {
        float acc = 0.0f;
        for (std::size_t ci = 0; ci < 8; ++ci)
          for (std::size_t ky = 0; ky < 3; ++ky)
            for (std::size_t kx = 0; kx < 3; ++kx)
              acc += a1_[(ci * 18 + y + ky) * 18 + x + kx] *
                     w2_[((co * 8 + ci) * 3 + ky) * 3 + kx];
        a2_[(co * 16 + y) * 16 + x] = std::max(acc, 0.0f);
      }
  // 2x2 max-pool, dense 512->32 + ReLU, dense 32->4.
  for (std::size_t c = 0; c < 8; ++c)
    for (std::size_t y = 0; y < 8; ++y)
      for (std::size_t x = 0; x < 8; ++x) {
        const std::size_t o = (c * 16 + 2 * y) * 16 + 2 * x;
        pool_[(c * 8 + y) * 8 + x] = std::max(
            std::max(a2_[o], a2_[o + 1]), std::max(a2_[o + 16], a2_[o + 17]));
      }
  for (std::size_t j = 0; j < 32; ++j) {
    float acc = 0.0f;
    for (std::size_t i = 0; i < 512; ++i) acc += pool_[i] * w3_[j * 512 + i];
    a3_[j] = std::max(acc, 0.0f);
  }
  for (std::size_t j = 0; j < 4; ++j) {
    float acc = 0.0f;
    for (std::size_t i = 0; i < 32; ++i) acc += a3_[i] * w4_[j * 32 + i];
    a4_[j] = acc;
  }
  const double us = micros_between(t0, Clock::now());
  // Feed the result back so the pass cannot be optimised away.
  in_[19] = 0.5f + a4_[0] * 1e-9f;
  samples_.push_back(us);
  total_us_ += us;
}

double HostProbe::median_us() const {
  if (samples_.empty())
    throw std::logic_error("HostProbe: no samples since the last reset");
  return median(samples_);
}

// ------------------------------------------------------------------ host

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    if (b != std::string::npos) return s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

int pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0 || cpu >= CPU_SETSIZE) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

}  // namespace decbench
