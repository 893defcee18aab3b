// Tests for the cascading lower-bound pruner: exactness of survivors,
// admissibility end-to-end (a cascade scan finds the same best as a
// brute-force scan), counter accounting into the caller's stats, and
// short series that LB_Kim_FL cannot read.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "distance/cascade.h"
#include "distance/dtw.h"
#include "distance/envelope.h"
#include "util/rng.h"

namespace onex {
namespace {

std::span<const double> S(const std::vector<double>& v) {
  return std::span<const double>(v.data(), v.size());
}

std::vector<double> RandomVector(size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng->UniformDouble(0.0, 1.0);
  return v;
}

TEST(CascadeTest, ExactWhenNotPruned) {
  Rng rng(1);
  const auto q = RandomVector(32, &rng);
  const auto c = RandomVector(32, &rng);
  DtwOptions dtw_options{4};
  CascadeStats stats;
  CascadePruner pruner(dtw_options, {}, &stats);
  const Envelope env = ComputeEnvelope(S(c), 4);
  const double d = pruner.Distance(S(q), S(c), &env,
                                   std::numeric_limits<double>::infinity());
  EXPECT_NEAR(d, DtwDistance(S(q), S(c), dtw_options), 1e-9);
  EXPECT_EQ(stats.candidates, 1u);
  EXPECT_EQ(stats.dtw_completed, 1u);
}

TEST(CascadeTest, PrunesObviouslyFarCandidate) {
  Rng rng(2);
  const auto q = RandomVector(32, &rng);
  auto c = RandomVector(32, &rng);
  for (auto& x : c) x += 100.0;
  CascadeStats stats;
  CascadePruner pruner(DtwOptions{4}, {}, &stats);
  const Envelope env = ComputeEnvelope(S(c), 4);
  const double d = pruner.Distance(S(q), S(c), &env, 0.5);
  EXPECT_TRUE(std::isinf(d));
  EXPECT_EQ(stats.dtw_completed, 0u);
  EXPECT_EQ(stats.pruned_kim, 1u);
}

// The make-or-break property: scanning with the cascade yields the same
// minimum as scanning with plain DTW, for any candidate pool.
TEST(CascadeTest, ScanFindsSameBestAsBruteForce) {
  Rng rng(3);
  const size_t kCandidates = 200, kLen = 48;
  const size_t window = 5;
  DtwOptions dtw_options{static_cast<int>(window)};

  for (int repeat = 0; repeat < 5; ++repeat) {
    const auto q = RandomVector(kLen, &rng);
    std::vector<std::vector<double>> pool;
    std::vector<Envelope> envelopes;
    for (size_t i = 0; i < kCandidates; ++i) {
      pool.push_back(RandomVector(kLen, &rng));
      envelopes.push_back(ComputeEnvelope(S(pool.back()), window));
    }

    // Brute force.
    double best_plain = std::numeric_limits<double>::infinity();
    size_t best_plain_idx = 0;
    for (size_t i = 0; i < kCandidates; ++i) {
      const double d = DtwDistance(S(q), S(pool[i]), dtw_options);
      if (d < best_plain) {
        best_plain = d;
        best_plain_idx = i;
      }
    }

    // Cascade scan with a shrinking best-so-far.
    CascadeStats stats;
    CascadePruner pruner(dtw_options, {}, &stats);
    double best_cascade = std::numeric_limits<double>::infinity();
    size_t best_cascade_idx = 0;
    for (size_t i = 0; i < kCandidates; ++i) {
      const double d =
          pruner.Distance(S(q), S(pool[i]), &envelopes[i], best_cascade);
      if (d < best_cascade) {
        best_cascade = d;
        best_cascade_idx = i;
      }
    }

    EXPECT_NEAR(best_cascade, best_plain, 1e-9);
    EXPECT_EQ(best_cascade_idx, best_plain_idx);
    // And the cascade must actually have pruned something on random data.
    EXPECT_EQ(stats.candidates, kCandidates);
    EXPECT_GT(stats.pruned_kim + stats.pruned_keogh + stats.dtw_abandoned,
              0u);
  }
}

TEST(CascadeTest, StageTogglesDisableStages) {
  Rng rng(4);
  const auto q = RandomVector(32, &rng);
  auto far = RandomVector(32, &rng);
  for (auto& x : far) x += 100.0;
  const Envelope env = ComputeEnvelope(S(far), 4);

  CascadeOptions no_kim;
  no_kim.use_kim = false;
  CascadeStats stats;
  CascadePruner pruner(DtwOptions{4}, no_kim, &stats);
  pruner.Distance(S(q), S(far), &env, 0.5);
  EXPECT_EQ(stats.pruned_kim, 0u);
  EXPECT_EQ(stats.pruned_keogh, 1u);

  CascadeOptions nothing;
  nothing.use_kim = false;
  nothing.use_keogh = false;
  nothing.use_early_abandon = false;
  CascadeStats plain_stats;
  CascadePruner plain(DtwOptions{4}, nothing, &plain_stats);
  // Full DTW computed, then rejected against the threshold like any
  // other stage would have rejected it.
  const double d = plain.Distance(S(q), S(far), &env, 0.5);
  EXPECT_TRUE(std::isinf(d));
  EXPECT_EQ(plain_stats.dtw_completed, 1u);
}

TEST(CascadeTest, NullEnvelopeSkipsKeogh) {
  Rng rng(5);
  const auto q = RandomVector(16, &rng);
  const auto c = RandomVector(24, &rng);  // Different length.
  CascadeStats stats;
  CascadePruner pruner(DtwOptions{-1}, {}, &stats);
  const double d = pruner.Distance(S(q), S(c), nullptr,
                                   std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isfinite(d));
  EXPECT_EQ(stats.pruned_keogh, 0u);
}

// LB_Kim_FL needs three points on each side; shorter series skip the
// Kim stage instead of reading past their end, and still prune by DTW.
TEST(CascadeTest, SeriesShorterThanThreeSkipKim) {
  const DtwOptions dtw_options{-1};
  const std::vector<std::vector<double>> series = {
      {0.0}, {100.0}, {0.0, 1.0}, {100.0, 101.0}, {0.0, 1.0, 2.0},
      {100.0, 101.0, 102.0}};
  for (const auto& q : series) {
    for (const auto& c : series) {
      CascadeStats stats;
      CascadePruner pruner(dtw_options, {}, &stats);
      const double exact = DtwDistance(S(q), S(c), dtw_options);
      const double d = pruner.Distance(S(q), S(c), nullptr, 0.5);
      if (exact <= 0.5) {
        EXPECT_NEAR(d, exact, 1e-9);
      } else {
        EXPECT_TRUE(std::isinf(d));
      }
      if (q.size() < 3 || c.size() < 3) {
        EXPECT_EQ(stats.pruned_kim, 0u);
      }
      EXPECT_TRUE(stats.Consistent());
    }
  }
}

TEST(CascadeTest, StatsAccounting) {
  Rng rng(6);
  CascadeStats stats;
  CascadePruner pruner(DtwOptions{3}, {}, &stats);
  const auto q = RandomVector(24, &rng);
  double bsf = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 50; ++i) {
    const auto c = RandomVector(24, &rng);
    const Envelope env = ComputeEnvelope(S(c), 3);
    const double d = pruner.Distance(S(q), S(c), &env, bsf);
    bsf = std::min(bsf, d);
  }
  EXPECT_EQ(stats.candidates, 50u);
  EXPECT_EQ(stats.candidates,
            stats.pruned_kim + stats.pruned_keogh + stats.dtw_abandoned +
                stats.dtw_completed);
  EXPECT_FALSE(stats.ToString().empty());
  stats.Reset();
  EXPECT_EQ(stats.candidates, 0u);
}

}  // namespace
}  // namespace onex
