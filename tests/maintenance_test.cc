// Tests for incremental base maintenance (OnexBase::AppendSeries /
// AppendBatch): the Algorithm-1 invariants must keep holding after
// appends, appended data must become queryable, and stats must track the
// growth. Maintenance is incremental — only touched groups are
// re-frozen — so the tests also pin that this changes nothing: batching
// does not change the base, untouched groups keep their bytes, the
// derived state equals a fresh freeze, and queries over an
// appended base match brute force.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "brute_force_reference.h"
#include "core/gti.h"
#include "core/onex_base.h"
#include "core/query_processor.h"
#include "core/serialization.h"
#include "datagen/generators.h"
#include "dataset/normalize.h"

namespace onex {
namespace {

OnexBase BuildTestBase(size_t n_series = 8) {
  GenOptions gen;
  gen.num_series = n_series;
  gen.length = 24;
  gen.seed = 42;
  Dataset d = MakeItalyPower(gen);
  MinMaxNormalize(&d);
  OnexOptions options;
  options.st = 0.2;
  options.lengths = {8, 24, 8};
  auto result = OnexBase::Build(std::move(d), options);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

TimeSeries NewSeries(uint64_t seed, size_t length = 24) {
  GenOptions gen;
  gen.num_series = 1;
  gen.length = length;
  gen.seed = seed;
  Dataset d = MakeItalyPower(gen);
  MinMaxNormalize(&d);
  return d[0];
}

uint64_t KeyOf(const SubsequenceRef& ref) {
  return (static_cast<uint64_t>(ref.series) << 40) |
         (static_cast<uint64_t>(ref.start) << 16) | ref.length;
}

TEST(MaintenanceTest, AppendGrowsDatasetAndStats) {
  OnexBase base = BuildTestBase();
  const uint64_t before_subs = base.stats().num_subsequences;
  const size_t before_series = base.dataset().size();
  ASSERT_TRUE(base.AppendSeries(NewSeries(99)).ok());
  EXPECT_EQ(base.dataset().size(), before_series + 1);
  // The new series contributes (24-8+1) + (24-16+1) + (24-24+1)
  // subsequences at lengths 8, 16, 24.
  EXPECT_EQ(base.stats().num_subsequences, before_subs + 17 + 9 + 1);
}

TEST(MaintenanceTest, CoverageInvariantHoldsAfterAppend) {
  OnexBase base = BuildTestBase();
  ASSERT_TRUE(base.AppendSeries(NewSeries(7)).ok());
  ASSERT_TRUE(base.AppendSeries(NewSeries(8)).ok());
  for (size_t length : base.gti().Lengths()) {
    const GtiEntry* entry = base.EntryFor(length);
    std::set<uint64_t> seen;
    size_t total = 0;
    for (const auto& group : entry->groups) {
      for (const auto& member : group.members) {
        EXPECT_TRUE(seen.insert(KeyOf(member.ref)).second);
        ++total;
      }
    }
    EXPECT_EQ(total, base.dataset().size() * (24 - length + 1));
  }
}

TEST(MaintenanceTest, AppendedDataIsQueryable) {
  OnexBase base = BuildTestBase();
  TimeSeries fresh = NewSeries(1234);
  ASSERT_TRUE(base.AppendSeries(fresh).ok());
  const uint32_t new_id = static_cast<uint32_t>(base.dataset().size() - 1);

  // Query with a fragment of the appended series: the exact fragment is
  // in the base, but ONEX descends into the group whose representative
  // is DTW-nearest, which may be a sibling group — so assert a
  // near-zero distance rather than exactly zero (the same inherent
  // approximation the paper's accuracy tables quantify).
  const auto view = base.dataset()[new_id].Subsequence(5, 16);
  std::vector<double> query(view.begin(), view.end());
  QueryProcessor processor(&base);
  auto result = processor.FindBestMatchOfLength(
      std::span<const double>(query.data(), query.size()), 16);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.value().distance, 0.02);
}

TEST(MaintenanceTest, IndexStructuresStayConsistent) {
  OnexBase base = BuildTestBase();
  ASSERT_TRUE(base.AppendSeries(NewSeries(55)).ok());
  for (size_t length : base.gti().Lengths()) {
    const GtiEntry* entry = base.EntryFor(length);
    const size_t g = entry->NumGroups();
    ASSERT_EQ(entry->dc.size(), g * g);
    ASSERT_EQ(entry->sum_sorted.size(), g);
    for (const auto& group : entry->groups) {
      EXPECT_EQ(group.envelope.size(), length);
      for (size_t i = 1; i < group.members.size(); ++i) {
        EXPECT_LE(group.members[i - 1].ed_to_rep,
                  group.members[i].ed_to_rep);
      }
    }
  }
}

TEST(MaintenanceTest, IncrementalMatchesScratchBuildStatistically) {
  // Appending one-by-one is order-dependent (the running averages see
  // different orders), so exact equality with a scratch build is not
  // expected — but coverage and the group-count scale must agree.
  OnexBase incremental = BuildTestBase(8);
  for (uint64_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(incremental.AppendSeries(NewSeries(100 + s)).ok());
  }

  GenOptions gen;
  gen.num_series = 8;
  gen.length = 24;
  gen.seed = 42;
  Dataset all = MakeItalyPower(gen);
  MinMaxNormalize(&all);
  for (uint64_t s = 0; s < 4; ++s) all.Add(NewSeries(100 + s));
  OnexOptions options;
  options.st = 0.2;
  options.lengths = {8, 24, 8};
  auto scratch = OnexBase::Build(std::move(all), options);
  ASSERT_TRUE(scratch.ok());

  EXPECT_EQ(incremental.stats().num_subsequences,
            scratch.value().stats().num_subsequences);
  const double inc_groups =
      static_cast<double>(incremental.stats().num_representatives);
  const double scr_groups =
      static_cast<double>(scratch.value().stats().num_representatives);
  EXPECT_LT(std::abs(inc_groups - scr_groups) / scr_groups, 0.5);
}

TEST(MaintenanceTest, EmptySeriesRejected) {
  OnexBase base = BuildTestBase();
  EXPECT_EQ(base.AppendSeries(TimeSeries()).code(),
            Status::Code::kInvalidArgument);
}

TEST(MaintenanceTest, ShortSeriesOnlyFeedsShortLengths) {
  OnexBase base = BuildTestBase();
  const uint64_t before = base.stats().num_subsequences;
  // A 10-point series only produces length-8 subsequences (spec 8/16/24).
  std::vector<double> values(10, 0.5);
  ASSERT_TRUE(base.AppendSeries(TimeSeries(values, 1)).ok());
  EXPECT_EQ(base.stats().num_subsequences, before + (10 - 8 + 1));
}

// ------------------------------------------------ incremental upkeep.

/// Series [first, end) of one fixed append sequence: mostly full-length
/// series, every fourth a 16-point one that only feeds lengths 8 and 16.
std::vector<TimeSeries> AppendSequence(size_t first, size_t end) {
  std::vector<TimeSeries> out;
  for (size_t i = first; i < end; ++i) {
    out.push_back(NewSeries(300 + i, i % 4 == 3 ? 16 : 24));
  }
  return out;
}

std::string Bytes(const OnexBase& base) {
  auto bytes = SaveBaseToString(base);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? bytes.value() : std::string();
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameGroup(const LsiEntry& a, const LsiEntry& b) {
  if (!SameBits(a.representative, b.representative) ||
      !SameBits(a.envelope.lower, b.envelope.lower) ||
      !SameBits(a.envelope.upper, b.envelope.upper) ||
      a.members.size() != b.members.size()) {
    return false;
  }
  for (size_t m = 0; m < a.members.size(); ++m) {
    if (KeyOf(a.members[m].ref) != KeyOf(b.members[m].ref) ||
        !SameBits(a.members[m].ed_to_rep, b.members[m].ed_to_rep)) {
      return false;
    }
  }
  return true;
}

TEST(MaintenanceTest, AppendOrderDoesNotChangeTheBase) {
  // Batching is a cost decision only: the same series appended one at a
  // time, in one batch, or in two batches give the same base, byte for
  // byte. (WAL recovery replays what a live leader appended one by one
  // as a single batch.)
  constexpr size_t kSeries = 12;
  OnexBase one_by_one = BuildTestBase();
  for (TimeSeries& series : AppendSequence(0, kSeries)) {
    ASSERT_TRUE(one_by_one.AppendSeries(std::move(series)).ok());
  }
  OnexBase one_batch = BuildTestBase();
  ASSERT_TRUE(one_batch.AppendBatch(AppendSequence(0, kSeries)).ok());
  OnexBase two_batches = BuildTestBase();
  ASSERT_TRUE(two_batches.AppendBatch(AppendSequence(0, 5)).ok());
  ASSERT_TRUE(two_batches.AppendBatch(AppendSequence(5, kSeries)).ok());

  const std::string want = Bytes(one_by_one);
  ASSERT_FALSE(want.empty());
  EXPECT_TRUE(Bytes(one_batch) == want) << "one batch differs";
  EXPECT_TRUE(Bytes(two_batches) == want) << "two batches differ";
}

TEST(MaintenanceTest, UntouchedGroupsKeepTheirBytes) {
  // A group no new subsequence joined keeps its representative, member
  // order, EDs and envelope bit for bit, and so does the Dc cell
  // between two such groups.
  OnexBase base = BuildTestBase();
  size_t untouched = 0, touched = 0, changed = 0, dc_changed = 0;
  for (TimeSeries& series : AppendSequence(0, 16)) {
    const OnexBase before = base;
    ASSERT_TRUE(base.AppendSeries(std::move(series)).ok());
    for (size_t length : before.gti().Lengths()) {
      const GtiEntry& was = *before.EntryFor(length);
      const GtiEntry& now = *base.EntryFor(length);
      ASSERT_GE(now.NumGroups(), was.NumGroups());
      std::vector<bool> kept(was.NumGroups());
      for (size_t k = 0; k < was.NumGroups(); ++k) {
        kept[k] = now.groups[k].size() == was.groups[k].size();
        if (!kept[k]) {
          ++touched;
          continue;
        }
        ++untouched;
        if (!SameGroup(was.groups[k], now.groups[k])) ++changed;
      }
      for (size_t k = 0; k < was.NumGroups(); ++k) {
        for (size_t l = 0; l < was.NumGroups(); ++l) {
          if (kept[k] && kept[l] && !SameBits(was.Dc(k, l), now.Dc(k, l))) {
            ++dc_changed;
          }
        }
      }
    }
  }
  EXPECT_GT(untouched, 0u);
  EXPECT_GT(touched, 0u);
  EXPECT_EQ(changed, 0u) << "of " << untouched << " untouched group-appends";
  EXPECT_EQ(dc_changed, 0u);
}

TEST(MaintenanceTest, DerivedStateMatchesAFreshFreeze) {
  // Everything an append derives incrementally (member order and EDs,
  // envelopes, Dc, sums, SP-Space markers) equals a fresh
  // FreezeGroup + IndexLength over the final groups, bit for bit —
  // whatever order the members are handed over in.
  OnexBase base = BuildTestBase();
  for (TimeSeries& series : AppendSequence(0, 6)) {
    ASSERT_TRUE(base.AppendSeries(std::move(series)).ok());
  }
  ASSERT_TRUE(base.AppendBatch(AppendSequence(6, 12)).ok());

  const OnexOptions& options = base.options();
  for (size_t length : base.gti().Lengths()) {
    SCOPED_TRACE("length " + std::to_string(length));
    const GtiEntry& live = *base.EntryFor(length);
    GtiEntry fresh;
    fresh.length = length;
    for (const LsiEntry& group : live.groups) {
      LsiEntry refrozen;
      refrozen.representative = group.representative;
      refrozen.members = group.members;
      std::reverse(refrozen.members.begin(), refrozen.members.end());
      for (LsiMember& member : refrozen.members) member.ed_to_rep = 0.0;
      FreezeGroup(base.dataset(),
                  EnvelopeWindow(length, options.window_ratio), 0, &refrozen);
      fresh.groups.push_back(std::move(refrozen));
    }
    IndexLength(&fresh, options.st, options.compute_sp_space);

    ASSERT_EQ(fresh.NumGroups(), live.NumGroups());
    for (size_t k = 0; k < live.NumGroups(); ++k) {
      EXPECT_TRUE(SameGroup(fresh.groups[k], live.groups[k])) << "group " << k;
    }
    EXPECT_TRUE(SameBits(fresh.dc, live.dc));
    ASSERT_EQ(fresh.sum_sorted.size(), live.sum_sorted.size());
    for (size_t i = 0; i < live.sum_sorted.size(); ++i) {
      EXPECT_EQ(fresh.sum_sorted[i].first, live.sum_sorted[i].first);
      EXPECT_TRUE(SameBits(fresh.sum_sorted[i].second,
                           live.sum_sorted[i].second));
    }
    EXPECT_TRUE(SameBits(fresh.st_half, live.st_half));
    EXPECT_TRUE(SameBits(fresh.st_final, live.st_final));
  }
}

TEST(MaintenanceTest, FreezeOfAStalePrefixMatchesAFreshFreeze) {
  // FreezeGroup re-sorts a previously frozen prefix adaptively and falls
  // back to a full sort when the prefix is far from sorted; both routes
  // must land on the one total order a fresh freeze produces.
  OnexBase base = BuildTestBase(12);
  const GtiEntry& entry = *base.EntryFor(8);
  const LsiEntry* big = &entry.groups[0];
  for (const LsiEntry& group : entry.groups) {
    if (group.size() > big->size()) big = &group;
  }
  ASSERT_GE(big->size(), 12u);
  const size_t window = EnvelopeWindow(8, base.options().window_ratio);
  const auto far_view = big->members.back().ref.View(base.dataset());
  const std::vector<double> far(far_view.begin(), far_view.end());
  std::vector<double> nudged = big->representative;
  nudged[3] += 0.01;
  // (representative, prefix reversed): a small shift, a large one, and a
  // prefix in exactly the wrong order (past the insertion-sort budget).
  const std::vector<std::pair<std::vector<double>, bool>> cases = {
      {nudged, false}, {far, false}, {big->representative, true}};
  for (const auto& [rep, reversed] : cases) {
    LsiEntry stale = *big;  // Members in the order of the old rep.
    stale.representative = rep;
    if (reversed) std::reverse(stale.members.begin(), stale.members.end());
    LsiEntry fresh = stale;
    std::reverse(fresh.members.begin(), fresh.members.end());
    FreezeGroup(base.dataset(), window, stale.size(), &stale);
    FreezeGroup(base.dataset(), window, 0, &fresh);
    EXPECT_TRUE(SameGroup(stale, fresh));
  }
}

TEST(MaintenanceTest, AppendedBaseMatchesBruteForce) {
  // Q1 exact, Q1 any, k-NN and range over an appended base answer as
  // the plain-DTW reference does, with the cascade on and off.
  OnexBase base = BuildTestBase();
  for (TimeSeries& series : AppendSequence(0, 6)) {
    ASSERT_TRUE(base.AppendSeries(std::move(series)).ok());
  }
  ASSERT_TRUE(base.AppendBatch(AppendSequence(6, 10)).ok());

  QueryOptions three_groups;
  three_groups.groups_to_search = 3;
  QueryOptions full_sweep;
  full_sweep.stop_within_st_half = false;
  Rng rng(29);
  const uint32_t appended = static_cast<uint32_t>(base.dataset().size() - 1);
  for (const QueryOptions& on : {QueryOptions{}, three_groups, full_sweep}) {
    for (int trial = 0; trial < 6; ++trial) {
      const auto query = RandomQuery(trial % 2 == 0 ? 16 : 12, &rng);
      ExpectParity(base, on, S(query), 16);
    }
    // A fragment of an appended series, slightly perturbed.
    const auto view = base.dataset()[appended].Subsequence(4, 16);
    std::vector<double> fragment(view.begin(), view.end());
    for (double& x : fragment) x += rng.UniformDouble(-0.02, 0.02);
    ExpectParity(base, on, S(fragment), 16);
  }
}

}  // namespace
}  // namespace onex
