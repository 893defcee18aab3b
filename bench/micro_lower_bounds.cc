// Lower-bound tightness and pruning-rate ablation. Admissible bounds
// are only useful if they are *tight* (close to the true DTW) and
// *cheap*; this bench reports, for each bound, the mean tightness ratio
// LB/DTW on random and on structured (ECG-like) data, plus the fraction
// of a 1-NN scan's candidates each cascade stage prunes — the numbers
// behind the Sec. 5.3 design choices.

#include <benchmark/benchmark.h>

#include <vector>

#include "datagen/generators.h"
#include "dataset/normalize.h"
#include "distance/cascade.h"
#include "distance/dtw.h"
#include "distance/envelope.h"
#include "distance/lb_keogh.h"
#include "distance/lb_kim.h"
#include "util/rng.h"

namespace onex {
namespace {

std::vector<double> RandomVector(size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng->UniformDouble(0.0, 1.0);
  return v;
}

void BM_TightnessLbKim(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  double ratio_sum = 0.0;
  size_t count = 0;
  for (auto _ : state) {
    const auto a = RandomVector(n, &rng);
    const auto b = RandomVector(n, &rng);
    const double dtw = DtwDistance(std::span<const double>(a),
                                   std::span<const double>(b));
    const double lb =
        LbKim(std::span<const double>(a), std::span<const double>(b));
    if (dtw > 0) {
      ratio_sum += lb / dtw;
      ++count;
    }
    benchmark::DoNotOptimize(lb);
  }
  state.counters["tightness"] = count ? ratio_sum / count : 0.0;
}
BENCHMARK(BM_TightnessLbKim)->Arg(64)->Arg(256);

void BM_TightnessLbKeogh(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t w = n / 10;
  Rng rng(2);
  double ratio_sum = 0.0;
  size_t count = 0;
  const DtwOptions options{static_cast<int>(w)};
  for (auto _ : state) {
    const auto a = RandomVector(n, &rng);
    const auto b = RandomVector(n, &rng);
    const Envelope env = ComputeEnvelope(std::span<const double>(b), w);
    const double dtw = DtwDistance(std::span<const double>(a),
                                   std::span<const double>(b), options);
    const double lb = LbKeogh(std::span<const double>(a), env);
    if (dtw > 0) {
      ratio_sum += lb / dtw;
      ++count;
    }
    benchmark::DoNotOptimize(lb);
  }
  state.counters["tightness"] = count ? ratio_sum / count : 0.0;
}
BENCHMARK(BM_TightnessLbKeogh)->Arg(64)->Arg(256);

// ECG-like series, min-max normalized like the pool the query processor
// scans; `seed` picks the draw.
Dataset EcgSeries(size_t count, uint64_t seed) {
  GenOptions gen;
  gen.num_series = count;
  gen.length = 128;
  gen.seed = seed;
  Dataset series = MakeEcg(gen);
  MinMaxNormalize(&series);
  return series;
}

// Full 1-NN scans over an ECG-like pool with different cascade stages
// enabled, through the same CascadePruner the query processor runs; the
// queries are in-distribution (same generator, another seed). Counters
// report the per-stage pruning fractions.
void ScanWithOptions(benchmark::State& state,
                     const CascadeOptions& cascade_options) {
  const Dataset pool = EcgSeries(64, 5);
  const Dataset queries = EcgSeries(16, 9);
  const size_t w = 12;
  std::vector<Envelope> envelopes;
  envelopes.reserve(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    envelopes.push_back(ComputeEnvelope(pool[i].View(), w));
  }
  CascadeStats stats;
  const CascadePruner pruner(DtwOptions{static_cast<int>(w)},
                             cascade_options, &stats);
  size_t next = 0;
  for (auto _ : state) {
    const auto query = queries[next++ % queries.size()].View();
    double best = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < pool.size(); ++i) {
      const double d =
          pruner.Distance(query, pool[i].View(), &envelopes[i], best);
      best = std::min(best, d);
    }
    benchmark::DoNotOptimize(best);
  }
  const double total = static_cast<double>(stats.candidates);
  if (total > 0) {
    state.counters["kim%"] = 100.0 * stats.pruned_kim / total;
    state.counters["keogh%"] = 100.0 * stats.pruned_keogh / total;
    state.counters["abandon%"] = 100.0 * stats.dtw_abandoned / total;
    state.counters["full_dtw%"] = 100.0 * stats.dtw_completed / total;
  }
}

void BM_ScanFullCascade(benchmark::State& state) {
  ScanWithOptions(state, CascadeOptions{});
}
BENCHMARK(BM_ScanFullCascade);

void BM_ScanNoKim(benchmark::State& state) {
  CascadeOptions options;
  options.use_kim = false;
  ScanWithOptions(state, options);
}
BENCHMARK(BM_ScanNoKim);

void BM_ScanNoKeogh(benchmark::State& state) {
  CascadeOptions options;
  options.use_keogh = false;
  ScanWithOptions(state, options);
}
BENCHMARK(BM_ScanNoKeogh);

void BM_ScanNoBounds(benchmark::State& state) {
  CascadeOptions options;
  options.use_kim = false;
  options.use_keogh = false;
  options.use_early_abandon = false;
  ScanWithOptions(state, options);
}
BENCHMARK(BM_ScanNoBounds);

}  // namespace
}  // namespace onex

BENCHMARK_MAIN();
