// Copyright 2026 The ONEX Reproduction Authors.
// Statistics, failure accounting, tracing, and result output shared by
// the three benchmark workloads. Nothing here touches the ONEX library,
// so the self-tests in tests/harness_selftest.cc exercise it alone.

#ifndef ONEX_PERFBENCH_HARNESS_H_
#define ONEX_PERFBENCH_HARNESS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ------------------------------------------------------------ statistics

/// Fewest samples that must lie strictly beyond a reported percentile.
inline constexpr size_t kMinTailSamples = 10;

/// Nearest-rank percentile of `samples` (p in (0, 100]): the smallest
/// sample with at least p% of the samples at or below it. nullopt when
/// the set is empty or fewer than `min_beyond` samples lie beyond the
/// chosen rank — such a percentile is one outlier's value, not a tail.
std::optional<double> Percentile(std::vector<double> samples, double p,
                                 size_t min_beyond = kMinTailSamples);

/// Samples needed so that `min_beyond` of them lie beyond percentile p.
size_t SamplesNeededFor(double p, size_t min_beyond = kMinTailSamples);

/// Percentile p of consecutive stretches of `samples` (in the order
/// they were taken), each with the SamplesNeededFor(p) samples a tail
/// needs, and the median over the stretches: the tail an op typically
/// sees, which one stall of the machine moves in one stretch only.
/// nullopt when there are too few samples for a single stretch.
std::optional<double> StretchPercentile(const std::vector<double>& samples,
                                        double p);

/// Median (p50 without the tail requirement); 0 for an empty set.
double Median(std::vector<double> samples);

/// The three cut points of statistics.quantiles(samples, n=4) in
/// Python's default 'exclusive' method; needs at least two samples.
std::array<double, 3> Quartiles(std::vector<double> samples);

/// Open-loop arrival schedule: request i is due at start + i / rate.
/// Latency is measured from the due time, so a stall that delays the
/// sender is charged to every request it held back.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(Clock::time_point start, double rate_per_s)
      : start_(start), rate_(rate_per_s) {}

  Clock::time_point DueTime(uint64_t i) const {
    return start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(i) / rate_));
  }

  /// Latency of request i that completed at `done`.
  double LatencySeconds(uint64_t i, Clock::time_point done) const {
    return SecondsBetween(DueTime(i), done);
  }

 private:
  Clock::time_point start_;
  double rate_;
};

// ---------------------------------------------------- failure accounting

/// Outcome classes of one attempted operation. Application error codes
/// are kept verbatim (OVERLOADED, DEADLINE_EXCEEDED, READ_ONLY, ...);
/// the two below have no wire code of their own.
inline constexpr const char* kTransportFailure = "TRANSPORT";
inline constexpr const char* kWrongAnswer = "WRONG_ANSWER";

/// Counts every operation attempted and every failure by code. Not
/// thread-safe: each client thread keeps its own and Merge()s at the end.
class FailureLedger {
 public:
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& code, uint64_t n = 1) {
    failed_ += n;
    by_code_[code] += n;
  }
  void Merge(const FailureLedger& other);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// failed / attempted; 0 when nothing was attempted.
  double fail_ratio() const;
  /// "OVERLOADED=2 TRANSPORT=1", or "none".
  std::string Describe() const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, uint64_t> by_code_;
};

// --------------------------------------------------------------- tracing

/// One recorded span. `parent` is the id of the span open on the same
/// thread when this one started (0 = root); `request` ties the spans of
/// one benchmark request together (0 = not request-scoped).
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;
  double start_s = 0;  ///< Seconds since the tracer was created.
  double end_s = 0;
};

/// In-memory span store for one traced run. Recording is off until
/// Enable(); disabled, a ScopedSpan costs one branch. Spans are appended
/// under a mutex when they close (spans here wrap whole layer calls of
/// tens of microseconds or more) and written out once, at the end.
class Tracer {
 public:
  static Tracer& Get();

  void Enable(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Snapshot of the spans recorded so far.
  std::vector<SpanRecord> Spans() const;
  /// Writes the spans as a JSON array, one object per line.
  bool WriteJson(const std::string& path) const;

 private:
  friend class ScopedSpan;
  Tracer() : origin_(Clock::now()) {}

  std::atomic<bool> enabled_{false};
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  uint64_t next_id_ = 0;
};

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  SpanRecord record_;
  uint64_t saved_parent_ = 0;
};

// ---------------------------------------------------------------- output

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The machine-readable last line of a run.
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

/// Peak resident set size of this process, MB (getrusage).
double PeakRssMb();
/// Current virtual size of this process, kB (/proc/self/status VmSize).
double VmSizeKb();

}  // namespace perfbench

#endif  // ONEX_PERFBENCH_HARNESS_H_
