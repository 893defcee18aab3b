// Sanity tests for the process gauges (src/util/process_stats.h): the
// /proc-backed fields must be live numbers on Linux (CI) and never
// crash anywhere, CPU time must be monotone across a busy loop, and
// uptime must advance with the wall.

#include "util/process_stats.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

namespace onex {
namespace {

TEST(ProcessStatsTest, SampleReportsLiveValues) {
  const ProcessStats stats = SampleProcessStats();
  EXPECT_GE(stats.uptime_seconds, 0.0);
  EXPECT_GE(stats.cpu_user_seconds, 0.0);
  EXPECT_GE(stats.cpu_sys_seconds, 0.0);
#ifdef __linux__
  // A running test binary certainly has memory, fds, and a thread.
  EXPECT_GT(stats.rss_bytes, 0u);
  EXPECT_GE(stats.vm_bytes, stats.rss_bytes);
  EXPECT_GT(stats.open_fds, 0);
  EXPECT_GE(stats.threads, 1);
#endif
}

TEST(ProcessStatsTest, UptimeAndCpuAdvance) {
  const ProcessStats before = SampleProcessStats();
  // Burn a little CPU (the optimizer must not delete the loop).
  volatile double sink = 0.0;
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(30);
  while (std::chrono::steady_clock::now() < until) {
    for (int i = 1; i < 1000; ++i) sink = sink + 1.0 / i;
  }
  const ProcessStats after = SampleProcessStats();
  EXPECT_GT(after.uptime_seconds, before.uptime_seconds);
  EXPECT_GE(after.cpu_user_seconds, before.cpu_user_seconds);
  EXPECT_GE(after.cpu_user_seconds + after.cpu_sys_seconds, 0.0);
}

TEST(ProcessStatsTest, OpenFdCountTracksNewDescriptors) {
#ifdef __linux__
  const ProcessStats before = SampleProcessStats();
  std::vector<FILE*> files;
  for (int i = 0; i < 8; ++i) {
    FILE* f = std::fopen("/dev/null", "r");
    ASSERT_NE(f, nullptr);
    files.push_back(f);
  }
  const ProcessStats during = SampleProcessStats();
  EXPECT_GE(during.open_fds, before.open_fds + 8);
  for (FILE* f : files) std::fclose(f);
  const ProcessStats after = SampleProcessStats();
  EXPECT_LT(after.open_fds, during.open_fds);
#endif
}

}  // namespace
}  // namespace onex
