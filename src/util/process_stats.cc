// Copyright 2026 The ONEX Reproduction Authors.

#include "util/process_stats.h"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>

namespace onex {
namespace {

// Pinned at static-initialization time, which for a serving binary is
// close enough to exec() for an uptime gauge.
const std::chrono::steady_clock::time_point g_process_start =
    std::chrono::steady_clock::now();

/// /proc/self/statm fields 1 and 2: total and resident pages.
void ReadMemoryBytes(uint64_t* vm_bytes, uint64_t* rss_bytes) {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int matched = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (matched != 2) return;
  const long page = ::sysconf(_SC_PAGESIZE);
  const uint64_t page_bytes = static_cast<uint64_t>(page > 0 ? page : 4096);
  *vm_bytes = size * page_bytes;
  *rss_bytes = resident * page_bytes;
}

int64_t CountOpenFds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int64_t count = 0;
  while (struct dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    ++count;
  }
  ::closedir(dir);
  // The opendir itself holds one descriptor; don't count it.
  return count > 0 ? count - 1 : count;
}

int64_t ReadThreadCount() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  int64_t threads = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    long long value = 0;
    if (std::sscanf(line, "Threads: %lld", &value) == 1) {
      threads = value;
      break;
    }
  }
  std::fclose(f);
  return threads;
}

}  // namespace

ProcessStats SampleProcessStats() {
  ProcessStats stats;
  stats.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    g_process_start)
          .count();
  ReadMemoryBytes(&stats.vm_bytes, &stats.rss_bytes);
  stats.open_fds = CountOpenFds();
  stats.threads = ReadThreadCount();
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  if (::getrusage(RUSAGE_SELF, &usage) == 0) {
    stats.cpu_user_seconds = static_cast<double>(usage.ru_utime.tv_sec) +
                             static_cast<double>(usage.ru_utime.tv_usec) / 1e6;
    stats.cpu_sys_seconds = static_cast<double>(usage.ru_stime.tv_sec) +
                            static_cast<double>(usage.ru_stime.tv_usec) / 1e6;
  }
  return stats;
}

}  // namespace onex
