// Copyright 2026 The ONEX Reproduction Authors.
// onex_perfbench: runs one benchmark workload and prints its result.
//
//   onex_perfbench --workload explore|ingest|routed --seed N --seconds S
//                  --trace 0|1 [--out DIR]
//
// Untraced runs print the end-to-end metrics; traced runs print the
// per-layer metrics, write the spans to DIR/trace-<workload>-<seed>.json
// and report the tracing overhead. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The exit code
// is non-zero when any answer was wrong.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "util/flags.h"
#include "workloads.h"

namespace perfbench {

namespace {

int Main(int argc, char** argv) {
  onex::Flags flags(argc, argv);
  RunConfig config;
  config.workload = flags.GetString("workload", "");
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  config.seconds = flags.GetDouble("seconds", 10);
  config.trace = flags.GetInt("trace", 0) != 0;
  config.out_dir = flags.GetString("out", ".bench_out");
  config.work_dir =
      config.out_dir + "/work-" + std::to_string(::getpid());
  std::filesystem::create_directories(config.work_dir);

  WorkloadResult result;
  if (config.workload == "explore") {
    result = RunExplore(config);
  } else if (config.workload == "ingest") {
    result = RunIngest(config);
  } else if (config.workload == "routed") {
    result = RunRouted(config);
  } else {
    std::fprintf(stderr, "perfbench: unknown --workload '%s'\n",
                 config.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);

  bool complete = false;
  const std::vector<Metric> e2e = EndToEndMetrics(result, &complete);
  for (const std::string& note : result.notes) std::printf("%s\n", note.c_str());
  const auto setup_q = Quartiles(result.setup_samples);
  std::printf("%s: %zu primary ops; set-up quartiles %.4f %.4f %.4f s\n",
              config.workload.c_str(), result.primary.latencies_s.size(),
              setup_q[0], setup_q[1], setup_q[2]);
  std::printf("%s: attempted %llu, failed %llu (fail_ratio %.3g): %s\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(result.ledger.attempted()),
              static_cast<unsigned long long>(result.ledger.failed()),
              result.ledger.fail_ratio(), result.ledger.Describe().c_str());
  for (const Metric& m : e2e) {
    std::printf("  %-34s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (config.trace) {
    for (const Metric& m : result.per_layer) {
      std::printf("  %-34s %14.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    const std::string path = config.out_dir + "/trace-" + config.workload +
                             "-" + std::to_string(config.seed) + ".json";
    if (Tracer::Get().WriteJson(path)) {
      std::printf("trace: %zu spans -> %s\n", Tracer::Get().Spans().size(),
                  path.c_str());
    }
  }
  if (!complete) {
    std::fprintf(stderr, "perfbench: too few samples for a p99\n");
    return 1;
  }
  std::printf("%s\n", ResultLine(result.correct, result.ledger.attempted(),
                                 result.ledger.failed(),
                                 config.trace ? result.per_layer : e2e)
                          .c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
