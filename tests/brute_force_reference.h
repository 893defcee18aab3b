// Copyright 2026 The ONEX Reproduction Authors.
// Brute-force reference for query-processor parity tests: the ONEX
// search decisions recomputed with plain DTW, and ExpectParity, which
// checks every query entry point against it with the pruning cascade
// on, with the lower bounds off, and with every stage off.

#ifndef ONEX_TESTS_BRUTE_FORCE_REFERENCE_H_
#define ONEX_TESTS_BRUTE_FORCE_REFERENCE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "core/onex_base.h"
#include "core/query_processor.h"
#include "distance/dtw.h"
#include "util/rng.h"

namespace onex {

inline std::span<const double> S(const std::vector<double>& v) {
  return std::span<const double>(v.data(), v.size());
}

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

inline QueryOptions AllStagesOff(QueryOptions opts = {}) {
  opts.cascade.use_kim = false;
  opts.cascade.use_keogh = false;
  opts.cascade.use_early_abandon = false;
  opts.use_median_order = false;
  opts.use_value_targeted_scan = false;
  return opts;
}

inline std::vector<double> RandomQuery(size_t n, Rng* rng) {
  std::vector<double> query(n);
  for (auto& x : query) x = rng->UniformDouble(0.0, 1.0);
  return query;
}

inline QueryOptions BoundsOff(QueryOptions opts) {
  opts.cascade.use_kim = false;
  opts.cascade.use_keogh = false;
  return opts;
}

// Every entry point answers the same with every cascade stage on, with
// the lower bounds off but early abandoning on, with every stage off, and
// as the brute-force reference; and every call's cascade counters account
// each candidate to exactly one stage.
inline void ExpectParity(const OnexBase& base, const QueryOptions& on,
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

}  // namespace onex

#endif  // ONEX_TESTS_BRUTE_FORCE_REFERENCE_H_
