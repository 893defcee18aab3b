// Copyright 2026 The ONEX Reproduction Authors.
// Self-tests of the benchmark's statistics and accounting: percentile
// selection with ten samples beyond it, quartiles as Python's
// statistics.quantiles gives them, open-loop due-time latency, failure
// counting, and span parentage. perfbench/run.py runs this binary before
// every workload; it prints the failed checks and exits non-zero.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "harness_selftest:%d: FAILED %s\n", line, what);
    ++failures;
  }
}

#define CHECK(cond) Check((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Range(int from, int to) {
  std::vector<double> out;
  for (int i = from; i <= to; ++i) out.push_back(i);
  return out;
}

void TestPercentileKeepsTenSamplesBeyond() {
  // 1000 samples: p99 is the 990th smallest, and 10 lie beyond it.
  std::vector<double> samples = Range(1, 1000);
  std::vector<double> shuffled;
  for (size_t i = 0; i < samples.size(); ++i) {
    shuffled.push_back(samples[(i * 7919) % samples.size()]);
  }
  CHECK(Percentile(shuffled, 99.0).has_value());
  CHECK(Near(*Percentile(shuffled, 99.0), 990));
  // 999 samples leave only 9 beyond the p99 rank: no p99.
  CHECK(!Percentile(Range(1, 999), 99.0).has_value());
  CHECK(SamplesNeededFor(99.0) == 1000);
  CHECK(SamplesNeededFor(50.0) == 20);
  CHECK(SamplesNeededFor(99.9) == 10000);
  CHECK(Near(*Percentile(Range(1, 20), 50.0), 10));
  CHECK(!Percentile({}, 50.0).has_value());
  // Without the tail requirement a single sample is its own percentile.
  CHECK(Near(*Percentile({4.5}, 99.0, 0), 4.5));
}

void TestStretchPercentileIsTheTypicalTail() {
  CHECK(!StretchPercentile(Range(1, 999), 99.0).has_value());
  // Three stretches of 1..1000 (p99 990 each); a burst of 20 stalls in
  // the second moves that stretch's p99 only.
  std::vector<double> samples;
  for (int s = 0; s < 3; ++s) {
    const std::vector<double> stretch = Range(1, 1000);
    samples.insert(samples.end(), stretch.begin(), stretch.end());
  }
  CHECK(Near(*StretchPercentile(samples, 99.0), 990));
  for (size_t i = 1000; i < 1020; ++i) samples[i] = 1e6;
  CHECK(Near(*StretchPercentile(samples, 99.0), 990));
  CHECK(*Percentile(samples, 99.0) > 990);
  // 2999 samples make two stretches of at least 1000.
  samples.pop_back();
  CHECK(StretchPercentile(samples, 99.0).has_value());
}

void TestMedian() {
  CHECK(Near(Median({3, 1, 2}), 2));
  CHECK(Near(Median({4, 1, 3, 2}), 2.5));
  CHECK(Near(Median({}), 0));
}

void TestQuartilesMatchPython() {
  // Reference values: statistics.quantiles(data, n=4).
  auto q = Quartiles(Range(1, 10));
  CHECK(Near(q[0], 2.75) && Near(q[1], 5.5) && Near(q[2], 8.25));
  q = Quartiles({3.5, 1.25, 9.0, 4.0});
  CHECK(Near(q[0], 1.8125) && Near(q[1], 3.75) && Near(q[2], 7.75));
  q = Quartiles({5, 1});
  CHECK(Near(q[0], 0.0) && Near(q[1], 3.0) && Near(q[2], 6.0));
  q = Quartiles({2.0, 8.0, 4.0, 6.0, 10.0, 1.0, 3.0});
  CHECK(Near(q[0], 2.0) && Near(q[1], 4.0) && Near(q[2], 8.0));
}

void TestOpenLoopChargesStallsFromDueTime() {
  using std::chrono::milliseconds;
  const Clock::time_point t0{};
  const OpenLoopSchedule schedule(t0, 100.0);  // One request per 10 ms.
  CHECK(schedule.DueTime(5) == t0 + milliseconds(50));
  CHECK(Near(schedule.LatencySeconds(5, t0 + milliseconds(70)), 0.020));
  // A 100 ms stall holds back requests 0..9: each is charged from its
  // own due time, so the stall shows in all of them, not just the first.
  double total = 0;
  for (uint64_t i = 0; i < 10; ++i) {
    total += schedule.LatencySeconds(i, t0 + milliseconds(100));
  }
  CHECK(Near(total, 0.100 + 0.090 + 0.080 + 0.070 + 0.060 + 0.050 + 0.040 +
                        0.030 + 0.020 + 0.010));
}

void TestFailRatioCountsEveryCode() {
  FailureLedger a;
  CHECK(Near(a.fail_ratio(), 0));
  CHECK(a.Describe() == "none");
  a.Attempt(8);
  a.Fail("OVERLOADED", 2);
  FailureLedger b;
  b.Attempt(2);
  b.Fail(kTransportFailure);
  a.Merge(b);
  // A wrong answer fails an op that was already counted as attempted.
  a.Fail(kWrongAnswer);
  CHECK(a.attempted() == 10);
  CHECK(a.failed() == 4);
  CHECK(Near(a.fail_ratio(), 0.4));
  CHECK(a.Describe() == "OVERLOADED=2 TRANSPORT=1 WRONG_ANSWER=1");
}

void TestSpansRecordParentAndRequest() {
  Tracer& tracer = Tracer::Get();
  { ScopedSpan ignored("before.enable"); }
  CHECK(tracer.Spans().empty());
  tracer.Enable(true);
  {
    ScopedSpan outer("outer", 7);
    { ScopedSpan inner("inner", 7); }
  }
  tracer.Enable(false);
  const std::vector<SpanRecord> spans = tracer.Spans();
  CHECK(spans.size() == 2);
  if (spans.size() == 2) {
    const SpanRecord& inner = spans[0];  // Recorded when it closes.
    const SpanRecord& outer = spans[1];
    CHECK(inner.name == "inner" && outer.name == "outer");
    CHECK(inner.parent == outer.id && outer.parent == 0);
    CHECK(inner.request == 7 && outer.request == 7);
    CHECK(outer.start_s <= inner.start_s && inner.end_s <= outer.end_s);
  }
}

void TestResultLine() {
  const std::string line =
      ResultLine(true, 3, 0, {{"setup_s", 0.5, "s"}, {"op_p50_ms", 1.25, "ms"}});
  CHECK(line ==
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
        "{\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"op_p50_ms\": "
        "{\"value\": 1.25, \"unit\": \"ms\"}}}");
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  TestPercentileKeepsTenSamplesBeyond();
  TestStretchPercentileIsTheTypicalTail();
  TestMedian();
  TestQuartilesMatchPython();
  TestOpenLoopChargesStallsFromDueTime();
  TestFailRatioCountsEveryCode();
  TestSpansRecordParentAndRequest();
  TestResultLine();
  if (failures > 0) {
    std::fprintf(stderr, "harness_selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "harness_selftest: all checks passed\n");
  return 0;
}
