// Copyright 2026 The ONEX Reproduction Authors.
// Process-level resource gauges for the METRICS exposition: uptime,
// resident and virtual memory size, open file descriptors, CPU time
// split user/sys, and thread count. Sampled on demand (one /proc read
// per METRICS call, nothing resident) — the sampling cost lands on the
// curious client, not the query path.

#ifndef ONEX_UTIL_PROCESS_STATS_H_
#define ONEX_UTIL_PROCESS_STATS_H_

#include <cstdint>

namespace onex {

struct ProcessStats {
  double uptime_seconds = 0.0;   ///< Since process start (steady clock).
  uint64_t rss_bytes = 0;        ///< Resident set size; 0 if unreadable.
  /// Virtual memory size (VmSize); 0 if unreadable. Grows by a whole
  /// stack per thread that is never joined, long before RSS notices.
  uint64_t vm_bytes = 0;
  int64_t open_fds = -1;         ///< Open descriptors; -1 if unreadable.
  double cpu_user_seconds = 0.0;  ///< getrusage ru_utime.
  double cpu_sys_seconds = 0.0;   ///< getrusage ru_stime.
  int64_t threads = -1;          ///< Kernel thread count; -1 if unreadable.
};

/// Samples the current process. Linux reads /proc/self; elsewhere the
/// /proc-backed fields degrade to their "unreadable" sentinels while
/// uptime and CPU (POSIX getrusage) still work.
ProcessStats SampleProcessStats();

}  // namespace onex

#endif  // ONEX_UTIL_PROCESS_STATS_H_
