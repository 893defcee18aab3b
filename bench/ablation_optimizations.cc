// Ablation bench for the Sec. 5.3 query optimizations: each toggle of
// QueryOptions is switched off in isolation and the query time and work
// counters are compared against the fully-optimized configuration. This
// quantifies the design choices DESIGN.md calls out: the pruning
// cascade, early abandoning, the median-out representative order, the
// value-targeted in-group scan, and the Lemma-2 early stop.

#include <cstdio>

#include "bench/common.h"
#include "core/query_processor.h"
#include "util/stats.h"
#include "util/table.h"

namespace onex {
namespace bench {
namespace {

struct Variant {
  std::string name;
  QueryOptions options;
};

int Run(int argc, char** argv) {
  BenchConfig config = ParseConfig(argc, argv);

  std::vector<Variant> variants;
  variants.push_back({"all-on", QueryOptions{}});
  {
    QueryOptions q;
    q.cascade.use_kim = false;
    q.cascade.use_keogh = false;
    variants.push_back({"no-cascade", q});
  }
  {
    QueryOptions q;
    q.cascade.use_early_abandon = false;
    variants.push_back({"no-early-abandon", q});
  }
  {
    QueryOptions q;
    q.use_median_order = false;
    variants.push_back({"no-median-order", q});
  }
  {
    QueryOptions q;
    q.use_value_targeted_scan = false;
    variants.push_back({"no-value-scan", q});
  }
  {
    QueryOptions q;
    q.stop_within_st_half = false;
    variants.push_back({"no-lemma2-stop", q});
  }
  {
    QueryOptions q;
    q.groups_to_search = 3;
    variants.push_back({"search-3-groups", q});
  }
  {
    QueryOptions q;
    q.cascade.use_kim = false;
    q.cascade.use_keogh = false;
    q.cascade.use_early_abandon = false;
    q.use_median_order = false;
    q.use_value_targeted_scan = false;
    q.stop_within_st_half = false;
    variants.push_back({"all-off", q});
  }

  TableWriter table(
      "Ablation: Sec. 5.3 query optimizations (ECG + Wafer, Q1 Any)");
  table.SetHeader({"variant", "sec/query", "reps cmp", "reps pruned",
                   "members cmp", "lengths", "vs all-on"});

  double baseline_time = 0.0;
  for (const auto& variant : variants) {
    RunningStats time;
    QueryStats work;
    for (const std::string name : {"ECG", "Wafer"}) {
      const Dataset dataset = PrepareDataset(name, config);
      const auto queries = MakeQueries(dataset, name, config);
      OnexBase base = BuildBase(dataset, config);
      QueryProcessor processor(&base, variant.options);
      for (const auto& query : queries) {
        const std::span<const double> q(query.values.data(),
                                        query.values.size());
        // Per-call stats: every timed repetition overwrites `call`, so
        // one repetition's counters per query are accumulated (the
        // query is deterministic — repetitions do identical work).
        QueryStats call;
        time.Add(TimeAverage(config.runs, [&] {
          (void)processor.FindBestMatch(q, &call);
        }));
        work.Add(call);
      }
    }
    if (variant.name == "all-on") baseline_time = time.mean();
    const double slowdown =
        baseline_time > 0 ? time.mean() / baseline_time : 1.0;
    table.AddRow({variant.name, TableWriter::Num(time.mean(), 6),
                  std::to_string(work.reps_compared),
                  std::to_string(work.reps_pruned),
                  std::to_string(work.members_compared),
                  std::to_string(work.lengths_scanned),
                  TableWriter::Num(slowdown, 2) + "x"});
  }
  table.Print();
  std::printf("Reading: each disabled optimization should cost time or "
              "work; 'all-off' bounds the total contribution of "
              "Sec. 5.3.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace onex

int main(int argc, char** argv) { return onex::bench::Run(argc, argv); }
