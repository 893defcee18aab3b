// Copyright 2026 The ONEX Reproduction Authors.

#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

/// 1-based nearest rank of percentile p among n samples.
size_t NearestRank(double p, size_t n) {
  const double exact = p / 100.0 * static_cast<double>(n);
  // The epsilon keeps 99% of 1000 at rank 990 despite rounding error.
  const auto rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

thread_local uint64_t current_span = 0;

}  // namespace

std::optional<double> Percentile(std::vector<double> samples, double p,
                                 size_t min_beyond) {
  if (samples.empty()) return std::nullopt;
  const size_t rank = NearestRank(p, samples.size());
  if (samples.size() - rank < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t SamplesNeededFor(double p, size_t min_beyond) {
  size_t n = std::max<size_t>(min_beyond, 1);
  while (n - NearestRank(p, n) < min_beyond) ++n;
  return n;
}

std::optional<double> StretchPercentile(const std::vector<double>& samples,
                                        double p) {
  const size_t stretches = samples.size() / SamplesNeededFor(p);
  if (stretches == 0) return std::nullopt;
  std::vector<double> tails;
  for (size_t i = 0; i < stretches; ++i) {
    tails.push_back(*Percentile(
        {samples.begin() + samples.size() * i / stretches,
         samples.begin() + samples.size() * (i + 1) / stretches},
        p));
  }
  return Median(tails);
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  const size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  if (samples.size() % 2 == 1) return samples[mid];
  const double upper = samples[mid];
  const double lower =
      *std::max_element(samples.begin(), samples.begin() + mid);
  return (lower + upper) / 2;
}

std::array<double, 3> Quartiles(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<int64_t>(samples.size());
  std::array<double, 3> out{};
  if (n < 2) return out;
  // statistics.quantiles(method='exclusive'), integer math included: the
  // clamp at the ends makes delta fall outside 0..4, which extrapolates.
  const int64_t m = n + 1;
  for (int64_t i = 1; i <= 3; ++i) {
    const int64_t j = std::clamp<int64_t>(i * m / 4, 1, n - 1);
    const int64_t delta = i * m - j * 4;
    out[i - 1] = (samples[j - 1] * static_cast<double>(4 - delta) +
                  samples[j] * static_cast<double>(delta)) /
                 4.0;
  }
  return out;
}

void FailureLedger::Merge(const FailureLedger& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const auto& [code, n] : other.by_code_) by_code_[code] += n;
}

double FailureLedger::fail_ratio() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

std::string FailureLedger::Describe() const {
  if (by_code_.empty()) return "none";
  std::string out;
  for (const auto& [code, n] : by_code_) {
    if (!out.empty()) out += ' ';
    out += code + "=" + std::to_string(n);
  }
  return out;
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  out << "[\n";
  char line[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                  "\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f}%s\n",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request), s.name.c_str(),
                  s.start_s, s.end_s, i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(const char* name, uint64_t request) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  active_ = true;
  {
    std::lock_guard<std::mutex> lock(tracer.mutex_);
    record_.id = ++tracer.next_id_;
  }
  record_.parent = current_span;
  record_.request = request;
  record_.name = name;
  saved_parent_ = current_span;
  current_span = record_.id;
  record_.start_s = SecondsBetween(tracer.origin_, Clock::now());
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  Tracer& tracer = Tracer::Get();
  record_.end_s = SecondsBetween(tracer.origin_, Clock::now());
  current_span = saved_parent_;
  std::lock_guard<std::mutex> lock(tracer.mutex_);
  tracer.spans_.push_back(std::move(record_));
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  char value[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    out << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
        << value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: kB.
}

double VmSizeKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) {
      return std::strtod(line.c_str() + 7, nullptr);
    }
  }
  return 0;
}

}  // namespace perfbench
