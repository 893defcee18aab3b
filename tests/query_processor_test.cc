// Tests for the online query processor (paper Sec. 5, Algorithm 2):
// Q1 exact/any-length similarity, k-similar retrieval, Q2 seasonal
// similarity in both modes, optimization-toggle consistency, and
// accuracy against the Standard-DTW gold standard.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <tuple>

#include "baselines/standard_dtw.h"
#include "core/onex_base.h"
#include "core/query_processor.h"
#include "datagen/generators.h"
#include "dataset/normalize.h"
#include "distance/dtw.h"
#include "util/rng.h"

namespace onex {
namespace {

std::span<const double> S(const std::vector<double>& v) {
  return std::span<const double>(v.data(), v.size());
}

Dataset TestDataset(size_t n = 10, size_t len = 24, uint64_t seed = 42) {
  GenOptions options;
  options.num_series = n;
  options.length = len;
  options.seed = seed;
  Dataset d = MakeItalyPower(options);
  MinMaxNormalize(&d);
  return d;
}

OnexBase BuildBase(Dataset d, double st = 0.2,
                   LengthSpec lengths = {4, 24, 4}) {
  OnexOptions options;
  options.st = st;
  options.lengths = lengths;
  auto result = OnexBase::Build(std::move(d), options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

std::vector<double> Materialize(const Dataset& d, uint32_t p, uint32_t j,
                                uint32_t len) {
  const auto view = d[p].Subsequence(j, len);
  return std::vector<double>(view.begin(), view.end());
}

// ------------------------------------------------------------ Q1 exact.

TEST(QueryProcessorTest, InDatasetQueryFoundNearExactly) {
  OnexBase base = BuildBase(TestDataset());
  QueryProcessor processor(&base);
  const auto query = Materialize(base.dataset(), 2, 3, 8);
  auto result = processor.FindBestMatchOfLength(S(query), 8);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The query is literally in the base; ONEX searches only the best
  // group, so it must come back at (or extremely near) distance zero.
  EXPECT_LE(result.value().distance, 1e-9);
  EXPECT_EQ(result.value().ref.length, 8u);
}

TEST(QueryProcessorTest, UnindexedLengthIsNotFound) {
  OnexBase base = BuildBase(TestDataset());
  QueryProcessor processor(&base);
  std::vector<double> query(7, 0.5);
  auto result = processor.FindBestMatchOfLength(S(query), 7);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kNotFound);
}

TEST(QueryProcessorTest, EmptyQueryRejected) {
  OnexBase base = BuildBase(TestDataset());
  QueryProcessor processor(&base);
  std::vector<double> empty;
  EXPECT_FALSE(processor.FindBestMatchOfLength(S(empty), 8).ok());
  EXPECT_FALSE(processor.FindBestMatch(S(empty)).ok());
}

// -------------------------------------------------------------- Q1 any.

TEST(QueryProcessorTest, AnyLengthFindsInDatasetQuery) {
  OnexBase base = BuildBase(TestDataset());
  QueryProcessor processor(&base);
  const auto query = Materialize(base.dataset(), 5, 2, 12);
  auto result = processor.FindBestMatch(S(query));
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.value().distance, 1e-9);
}

TEST(QueryProcessorTest, AnyLengthHandlesQueryLengthNotIndexed) {
  OnexBase base = BuildBase(TestDataset());
  QueryProcessor processor(&base);
  // Length 10 is not indexed (spec strides by 4); the search must still
  // produce a cross-length answer.
  std::vector<double> query(10);
  Rng rng(9);
  for (auto& x : query) x = rng.UniformDouble(0.0, 1.0);
  auto result = processor.FindBestMatch(S(query));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(std::isfinite(result.value().distance));
  EXPECT_NE(result.value().ref.length, 10u);
}

TEST(QueryProcessorTest, AnyAtLeastAsGoodAsExactWithoutEarlyStop) {
  QueryOptions qopts;
  qopts.stop_within_st_half = false;  // Full sweep over lengths.
  OnexBase base = BuildBase(TestDataset(12, 24, 5));
  QueryProcessor processor(&base, qopts);
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> query(12);
    for (auto& x : query) x = rng.UniformDouble(0.0, 1.0);
    auto any = processor.FindBestMatch(S(query));
    auto exact = processor.FindBestMatchOfLength(S(query), 12);
    ASSERT_TRUE(any.ok());
    ASSERT_TRUE(exact.ok());
    EXPECT_LE(any.value().distance, exact.value().distance + 1e-9);
  }
}

// --------------------------------------------------- Optimization toggles.

// The brute-force reference: the query processor's search decisions
// (best representative, its group, the Lemma-2 stop) taken with a plain
// DTW for every distance — no bound, no early abandoning.
class BruteForce {
 public:
  explicit BruteForce(const OnexBase& base) : base_(base) {}

  // Normalized DTW (Def. 6) under the base's band.
  double Dist(std::span<const double> q, std::span<const double> c) const {
    const DtwOptions band = DtwOptions::FromRatio(
        base_.options().window_ratio, q.size(), c.size());
    return DtwDistance(q, c, band) /
           (2.0 * static_cast<double>(std::max(q.size(), c.size())));
  }

  // (distance, group id) of every representative of `len`, ascending.
  std::vector<std::pair<double, uint32_t>> RankedReps(
      std::span<const double> q, size_t len) const {
    const GtiEntry& entry = *base_.EntryFor(len);
    std::vector<std::pair<double, uint32_t>> ranked;
    for (uint32_t k = 0; k < entry.NumGroups(); ++k) {
      ranked.push_back({Dist(q, S(entry.groups[k].representative)), k});
    }
    std::sort(ranked.begin(), ranked.end());
    return ranked;
  }

  // Distances of every member of group k of `len`, ascending.
  std::vector<double> Members(std::span<const double> q, size_t len,
                              uint32_t k) const {
    std::vector<double> out;
    for (const LsiMember& member : base_.EntryFor(len)->groups[k].members) {
      out.push_back(Dist(q, member.ref.View(base_.dataset())));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  // FindBestMatchOfLength: best member of the `groups` best groups.
  double BestOfLength(std::span<const double> q, size_t len,
                      size_t groups) const {
    const auto ranked = RankedReps(q, len);
    double best = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < std::min(groups, ranked.size()); ++i) {
      best = std::min(best, Members(q, len, ranked[i].second).front());
    }
    return best;
  }

  // Lengths in the query processor's order: the query's own length,
  // then decreasing below it, then increasing above it.
  std::vector<size_t> Ordered(size_t m) const {
    std::vector<size_t> ordered, above;
    for (size_t len : base_.gti().Lengths()) {
      if (len < m) ordered.insert(ordered.begin(), len);
      if (len > m) above.push_back(len);
    }
    if (base_.EntryFor(m) != nullptr) ordered.insert(ordered.begin(), m);
    ordered.insert(ordered.end(), above.begin(), above.end());
    return ordered;
  }

  // FindBestMatch. With one group per length, a length whose best
  // representative is farther than the best match so far is skipped.
  double BestMatch(std::span<const double> q, const QueryOptions& opts) const {
    double best = std::numeric_limits<double>::infinity();
    for (size_t len : Ordered(q.size())) {
      const double rep_d = RankedReps(q, len).front().first;
      if (opts.groups_to_search <= 1 && rep_d > best) continue;
      best = std::min(best, BestOfLength(q, len, opts.groups_to_search));
      if (opts.stop_within_st_half && rep_d <= base_.options().st / 2.0) {
        break;
      }
    }
    return best;
  }

  // FindKSimilar: the k nearest members of the best group, over one
  // length or (len = 0) every length up to the Lemma-2 stop.
  std::vector<double> KSimilar(std::span<const double> q, size_t k,
                               size_t len, const QueryOptions& opts) const {
    std::pair<double, uint32_t> best{std::numeric_limits<double>::infinity(),
                                     0};
    size_t best_len = len;
    for (size_t l : len != 0 ? std::vector<size_t>{len} : Ordered(q.size())) {
      const auto rep = RankedReps(q, l).front();
      if (rep.first < best.first) {
        best = rep;
        best_len = l;
      }
      if (opts.stop_within_st_half &&
          rep.first <= base_.options().st / 2.0) {
        break;
      }
    }
    auto members = Members(q, best_len, best.second);
    members.resize(std::min(k, members.size()));
    return members;
  }

  // FindAllWithin over `lengths`: every subsequence whose unconstrained
  // normalized DTW is <= st, keyed by (series, start, length).
  std::map<std::tuple<uint32_t, uint32_t, uint32_t>, double> Range(
      std::span<const double> q, double st,
      const std::vector<size_t>& lengths) const {
    std::map<std::tuple<uint32_t, uint32_t, uint32_t>, double> hits;
    const Dataset& d = base_.dataset();
    for (size_t len : lengths) {
      const double norm =
          2.0 * static_cast<double>(std::max(q.size(), len));
      for (uint32_t p = 0; p < d.size(); ++p) {
        for (uint32_t j = 0; j + len <= d[p].length(); ++j) {
          const double dist =
              DtwDistance(q, d[p].Subsequence(j, len), DtwOptions{-1}) / norm;
          if (dist <= st) hits[{p, j, static_cast<uint32_t>(len)}] = dist;
        }
      }
    }
    return hits;
  }

 private:
  const OnexBase& base_;
};

QueryOptions AllStagesOff(QueryOptions opts = {}) {
  opts.cascade.use_kim = false;
  opts.cascade.use_keogh = false;
  opts.cascade.use_early_abandon = false;
  opts.use_median_order = false;
  opts.use_value_targeted_scan = false;
  return opts;
}

std::vector<double> RandomQuery(size_t n, Rng* rng) {
  std::vector<double> query(n);
  for (auto& x : query) x = rng->UniformDouble(0.0, 1.0);
  return query;
}

QueryOptions BoundsOff(QueryOptions opts) {
  opts.cascade.use_kim = false;
  opts.cascade.use_keogh = false;
  return opts;
}

// Every entry point answers the same with every cascade stage on, with
// the lower bounds off but early abandoning on, with every stage off, and
// as the brute-force reference; and every call's cascade counters account
// each candidate to exactly one stage.
void ExpectParity(const OnexBase& base, const QueryOptions& on,
                  std::span<const double> query, size_t length) {
  const QueryProcessor p_on(&base, on);
  const QueryProcessor p_no_bounds(&base, BoundsOff(on));
  const QueryProcessor p_off(&base, AllStagesOff(on));
  const BruteForce brute(base);
  const double of_want = brute.BestOfLength(query, length,
                                            on.groups_to_search);
  const double any_want = brute.BestMatch(query, on);
  const double st = base.options().st / 2.0;
  const auto range_want = brute.Range(query, st, base.gti().Lengths());

  for (const QueryProcessor* p : {&p_on, &p_no_bounds, &p_off}) {
    SCOPED_TRACE(p == &p_on ? "all stages on"
                 : p == &p_no_bounds ? "bounds off" : "all stages off");
    QueryStats stats;
    auto of = p->FindBestMatchOfLength(query, length, &stats);
    ASSERT_TRUE(of.ok());
    EXPECT_NEAR(of.value().distance, of_want, 1e-9);
    EXPECT_TRUE(stats.cascade.Consistent());

    auto any = p->FindBestMatch(query, &stats);
    ASSERT_TRUE(any.ok());
    EXPECT_NEAR(any.value().distance, any_want, 1e-9);
    EXPECT_TRUE(stats.cascade.Consistent());

    for (size_t len : {length, size_t{0}}) {
      auto got = p->FindKSimilar(query, 4, len, &stats);
      ASSERT_TRUE(got.ok());
      const auto want = brute.KSimilar(query, 4, len, on);
      ASSERT_EQ(got.value().size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_NEAR(got.value()[i].distance, want[i], 1e-9);
      }
      EXPECT_TRUE(stats.cascade.Consistent());
    }

    for (bool exact : {true, false}) {
      auto got = p->FindAllWithin(query, st, 0, exact, &stats);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got.value().size(), range_want.size()) << "exact=" << exact;
      for (const QueryMatch& match : got.value()) {
        const auto it = range_want.find(
            {match.ref.series, match.ref.start, match.ref.length});
        ASSERT_NE(it, range_want.end());
        EXPECT_NEAR(match.distance,
                    match.distance_is_upper_bound ? st : it->second, 1e-9);
      }
      EXPECT_TRUE(stats.cascade.Consistent());
    }
  }
}

TEST(QueryProcessorTest, CascadeTogglesPreserveTheAnswer) {
  OnexBase base = BuildBase(TestDataset(10, 24, 7));
  QueryOptions three_groups;
  three_groups.groups_to_search = 3;
  QueryOptions full_sweep;
  full_sweep.stop_within_st_half = false;
  Rng rng(13);
  for (const QueryOptions& on : {QueryOptions{}, three_groups, full_sweep}) {
    for (int trial = 0; trial < 10; ++trial) {
      // Length 16 is indexed; length 10 is not, so its Q1-any search
      // runs cross-length comparisons that have no LB_Keogh stage.
      const auto query = RandomQuery(trial % 2 == 0 ? 16 : 10, &rng);
      ExpectParity(base, on, S(query), 16);
    }
  }
}

// LB_Kim_FL reads two points at each end, and the base admits length-2
// subsequences: queries of 1, 2 and 3 points must match brute force
// with the bound skipped where it cannot apply.
TEST(QueryProcessorTest, ShortSeriesMatchBruteForce) {
  OnexBase base = BuildBase(TestDataset(6, 8, 3), 0.2, LengthSpec{2, 4, 1});
  const QueryProcessor processor(&base);
  const BruteForce brute(base);
  Rng rng(21);
  for (size_t n : {1, 2, 3}) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto query = RandomQuery(n, &rng);
      for (size_t len : {2, 3}) {
        QueryStats stats;
        auto exact = processor.FindBestMatchOfLength(S(query), len, &stats);
        ASSERT_TRUE(exact.ok());
        EXPECT_NEAR(exact.value().distance, brute.BestOfLength(S(query), len, 1),
                    1e-9);
        EXPECT_TRUE(stats.cascade.Consistent());
      }
      QueryStats stats;
      auto any = processor.FindBestMatch(S(query), &stats);
      ASSERT_TRUE(any.ok());
      EXPECT_NEAR(any.value().distance, brute.BestMatch(S(query), {}), 1e-9);
      EXPECT_TRUE(stats.cascade.Consistent());

      const double st = 0.1;
      auto range = processor.FindAllWithin(S(query), st, 0, true, &stats);
      ASSERT_TRUE(range.ok());
      const auto want = brute.Range(S(query), st, base.gti().Lengths());
      ASSERT_EQ(range.value().size(), want.size()) << "n=" << n;
      for (const QueryMatch& match : range.value()) {
        const auto it =
            want.find({match.ref.series, match.ref.start, match.ref.length});
        ASSERT_NE(it, want.end());
        EXPECT_NEAR(match.distance, it->second, 1e-9);
      }
      EXPECT_TRUE(stats.cascade.Consistent());
    }
  }
}

// Member scans run the same cascade as representative scans, so the
// range query's per-member scan is bound-checked by LB_Kim_FL.
TEST(QueryProcessorTest, MemberScanIsBoundChecked) {
  OnexBase base = BuildBase(TestDataset(12, 24, 19));
  const QueryProcessor processor(&base);
  Rng rng(23);
  QueryStats total;
  for (int trial = 0; trial < 5; ++trial) {
    const auto query = RandomQuery(16, &rng);
    QueryStats stats;
    ASSERT_TRUE(processor.FindAllWithin(S(query), 0.02, 16, false, &stats)
                    .ok());
    total.Add(stats);
  }
  // Range representatives are always computed exactly, so every Kim
  // prune here is a member's.
  EXPECT_GT(total.members_compared, 0u);
  EXPECT_GT(total.cascade.pruned_kim, 0u);
  EXPECT_TRUE(total.cascade.Consistent());
}

TEST(QueryProcessorTest, PruningReducesWork) {
  OnexBase base = BuildBase(TestDataset(12, 24, 19));
  std::vector<double> query(16);
  Rng rng(17);
  for (auto& x : query) x = rng.UniformDouble(0.0, 1.0);

  QueryProcessor pruned(&base);
  QueryStats pruned_stats;
  pruned.FindBestMatchOfLength(S(query), 16, &pruned_stats);
  QueryOptions off;
  off.cascade.use_kim = false;
  off.cascade.use_keogh = false;
  off.cascade.use_early_abandon = false;
  QueryProcessor plain(&base, off);
  QueryStats plain_stats;
  plain.FindBestMatchOfLength(S(query), 16, &plain_stats);
  // Same candidates, but the pruned run must complete fewer full DTWs
  // (reps_compared counts non-pruned representative comparisons).
  EXPECT_LE(pruned_stats.reps_compared, plain_stats.reps_compared);
  EXPECT_GT(plain_stats.reps_compared, 0u);
}

// ------------------------------------------------- Accuracy vs oracle.

TEST(QueryProcessorTest, AccuracyCloseToStandardDtw) {
  Dataset d = TestDataset(10, 24, 23);
  LengthSpec lengths{6, 24, 6};
  OnexBase base = BuildBase(d, 0.2, lengths);
  StandardDtwSearch oracle(&base.dataset(), lengths);
  QueryProcessor processor(&base);

  Rng rng(29);
  double total_error = 0.0;
  const int kQueries = 10;
  for (int q = 0; q < kQueries; ++q) {
    std::vector<double> query(12);
    for (auto& x : query) x = rng.UniformDouble(0.2, 0.8);
    auto onex_result = processor.FindBestMatch(S(query));
    const SearchResult oracle_result = oracle.FindBestMatch(S(query));
    ASSERT_TRUE(onex_result.ok());
    // ONEX can never beat the exhaustive oracle...
    EXPECT_GE(onex_result.value().distance, oracle_result.distance - 1e-9);
    total_error += onex_result.value().distance - oracle_result.distance;
  }
  // ...but the paper reports ~97-99% accuracy; at this scale the mean
  // absolute error in normalized DTW must stay small.
  EXPECT_LE(total_error / kQueries, 0.05);
}

// ------------------------------------------------------------- kSimilar.

TEST(QueryProcessorTest, KSimilarSortedAndBounded) {
  OnexBase base = BuildBase(TestDataset());
  QueryProcessor processor(&base);
  const auto query = Materialize(base.dataset(), 1, 0, 8);
  auto result = processor.FindKSimilar(S(query), 5, 8);
  ASSERT_TRUE(result.ok());
  const auto& matches = result.value();
  ASSERT_FALSE(matches.empty());
  EXPECT_LE(matches.size(), 5u);
  for (size_t i = 1; i < matches.size(); ++i) {
    EXPECT_GE(matches[i].distance, matches[i - 1].distance);
  }
  // Best of the k equals the single best match of that length.
  auto single = processor.FindBestMatchOfLength(S(query), 8);
  ASSERT_TRUE(single.ok());
  EXPECT_NEAR(matches[0].distance, single.value().distance, 1e-9);
}

TEST(QueryProcessorTest, KSimilarAnyLength) {
  OnexBase base = BuildBase(TestDataset());
  QueryProcessor processor(&base);
  const auto query = Materialize(base.dataset(), 1, 0, 8);
  auto result = processor.FindKSimilar(S(query), 3);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().empty());
}

TEST(QueryProcessorTest, KSimilarValidation) {
  OnexBase base = BuildBase(TestDataset());
  QueryProcessor processor(&base);
  std::vector<double> query(8, 0.5);
  EXPECT_FALSE(processor.FindKSimilar(S(query), 0, 8).ok());
  EXPECT_FALSE(processor.FindKSimilar(S(query), 3, 7).ok());
}

// ------------------------------------------------------------- Seasonal.

TEST(QueryProcessorTest, SeasonalSimilarityFindsRecurringPattern) {
  // A series that repeats the same motif four times must exhibit
  // recurring similarity at the motif length.
  Dataset d("seasonal");
  std::vector<double> series;
  for (int rep = 0; rep < 4; ++rep) {
    for (int i = 0; i < 8; ++i) {
      series.push_back(0.5 + 0.4 * std::sin(2.0 * M_PI * i / 8.0));
    }
  }
  d.Add(TimeSeries(series, 1));
  // A second series of unrelated noise.
  Rng rng(31);
  std::vector<double> noise(32);
  for (auto& x : noise) x = rng.UniformDouble(0.0, 1.0);
  d.Add(TimeSeries(noise, 2));

  OnexBase base = BuildBase(std::move(d), 0.2, LengthSpec{8, 8, 1});
  QueryProcessor processor(&base);
  auto result = processor.SeasonalSimilarity(0, 8);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.value().empty());
  size_t recurring = 0;
  for (const auto& group : result.value()) {
    EXPECT_GE(group.size(), 2u);
    for (const auto& ref : group) {
      EXPECT_EQ(ref.series, 0u);
      EXPECT_EQ(ref.length, 8u);
    }
    recurring += group.size();
  }
  // The four aligned motif occurrences (offsets 0, 8, 16, 24) are
  // near-identical, so at least those must recur together.
  EXPECT_GE(recurring, 4u);
}

TEST(QueryProcessorTest, SeasonalValidation) {
  OnexBase base = BuildBase(TestDataset());
  QueryProcessor processor(&base);
  EXPECT_FALSE(processor.SeasonalSimilarity(999, 8).ok());
  EXPECT_FALSE(processor.SeasonalSimilarity(0, 7).ok());
}

TEST(QueryProcessorTest, DataDrivenSeasonalReturnsMultiMemberGroups) {
  OnexBase base = BuildBase(TestDataset(12, 24, 37));
  QueryProcessor processor(&base);
  auto result = processor.SimilarGroupsOfLength(8);
  ASSERT_TRUE(result.ok());
  for (const auto& group : result.value()) {
    EXPECT_GE(group.size(), 2u);
    for (const auto& ref : group) EXPECT_EQ(ref.length, 8u);
  }
  EXPECT_FALSE(processor.SimilarGroupsOfLength(7).ok());
}

// ----------------------------------------------------------------- Stats.

TEST(QueryProcessorTest, PerCallStatsReportEachCallsWork) {
  OnexBase base = BuildBase(TestDataset());
  const QueryProcessor processor(&base);  // Query methods are const.
  std::vector<double> query(8, 0.5);
  QueryStats call;
  auto result = processor.FindBestMatchOfLength(S(query), 8, &call);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(call.reps_compared + call.reps_pruned, 0u);
  EXPECT_GT(call.members_compared, 0u);
  EXPECT_EQ(call.lengths_scanned, 1u);
  EXPECT_FALSE(call.ToString().empty());
  // A second identical call returns fresh counters, not a running sum.
  QueryStats second;
  (void)processor.FindBestMatchOfLength(S(query), 8, &second);
  EXPECT_EQ(second.lengths_scanned, call.lengths_scanned);
  EXPECT_EQ(second.members_compared, call.members_compared);
  // Callers wanting totals aggregate explicitly.
  QueryStats total;
  total.Add(call);
  total.Add(second);
  EXPECT_EQ(total.members_compared, 2 * call.members_compared);
  total.Reset();
  EXPECT_EQ(total.members_compared, 0u);
}

TEST(QueryProcessorTest, NullStatsOutParamIsAccepted) {
  OnexBase base = BuildBase(TestDataset());
  const QueryProcessor processor(&base);
  std::vector<double> query(8, 0.5);
  // Counters are simply discarded; the result is unaffected.
  auto with = processor.FindBestMatchOfLength(S(query), 8);
  QueryStats call;
  auto without = processor.FindBestMatchOfLength(S(query), 8, &call);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_DOUBLE_EQ(with.value().distance, without.value().distance);
}

}  // namespace
}  // namespace onex
