#include "core/threshold_refiner.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/group_builder.h"
#include "distance/euclidean.h"
#include "util/trace.h"

namespace onex {
namespace {

// Rebuilds a SimilarityGroup from a fixed member list (the point-wise
// average of Def. 7, up to rounding in the order members are folded).
SimilarityGroup GroupFromMembers(const Dataset& dataset, size_t length,
                                 const std::vector<SubsequenceRef>& refs) {
  SimilarityGroup group(length, refs.front(), refs.front().View(dataset));
  for (size_t i = 1; i < refs.size(); ++i) {
    group.Add(refs[i], refs[i].View(dataset));
  }
  return group;
}

}  // namespace

Result<GtiEntry> ThresholdRefiner::RefineLength(size_t length,
                                                double st_prime,
                                                const ExecContext* ctx) const {
  ONEX_TRACE_SPAN("refine.length");
  if (st_prime <= 0.0) {
    return Status::InvalidArgument("st' must be positive");
  }
  const GtiEntry* entry = base_->EntryFor(length);
  if (entry == nullptr) {
    return Status::NotFound("length " + std::to_string(length) +
                            " is not in the ONEX base");
  }
  const double st = base_->options().st;
  if (st_prime == st) return *entry;  // Case 1: use as-is.
  ExecChecker check(ctx);
  GtiEntry refined = st_prime < st ? Split(*entry, st_prime, check)
                                   : Merge(*entry, st_prime, check);
  // A half-refined entry would answer queries wrong; drop it and report
  // the interruption instead.
  if (!check.status().ok()) return check.status();
  return refined;
}

GtiEntry ThresholdRefiner::Split(const GtiEntry& entry, double st_prime,
                                 ExecChecker& check) const {
  const Dataset& dataset = base_->dataset();
  const size_t length = entry.length;
  const double radius =
      std::sqrt(static_cast<double>(length)) * st_prime / 2.0;
  const double radius_sq = radius * radius;

  // Re-cluster each group's members at the smaller radius with the
  // original assignment rule (nearest qualifying representative).
  std::vector<SimilarityGroup> refined;
  for (const LsiEntry& group : entry.groups) {
    if (check.ShouldStop()) break;
    std::vector<SimilarityGroup> local;
    for (const LsiMember& member : group.members) {
      if (check.ShouldStop()) break;
      const auto values = member.ref.View(dataset);
      double min_sq = std::numeric_limits<double>::infinity();
      size_t min_k = 0;
      for (size_t k = 0; k < local.size(); ++k) {
        const double d_sq = SquaredEuclideanEarlyAbandon(
            values,
            std::span<const double>(local[k].representative().data(), length),
            std::min(min_sq, radius_sq));
        if (d_sq < min_sq) {
          min_sq = d_sq;
          min_k = k;
        }
      }
      if (min_sq <= radius_sq) {
        local[min_k].Add(member.ref, values);
      } else {
        local.emplace_back(length, member.ref, values);
      }
    }
    for (auto& g : local) refined.push_back(std::move(g));
  }
  return BuildGtiEntry(dataset, std::move(refined), st_prime,
                       base_->options().window_ratio,
                       base_->options().compute_sp_space);
}

GtiEntry ThresholdRefiner::Merge(const GtiEntry& entry, double st_prime,
                                 ExecChecker& check) const {
  const Dataset& dataset = base_->dataset();
  const size_t length = entry.length;
  const double st = base_->options().st;
  const double budget = st_prime - st;  // Merge fires when Dc <= budget.

  // Working set: member lists + weighted-average representatives.
  struct Working {
    std::vector<SubsequenceRef> members;
    std::vector<double> rep;
  };
  std::vector<Working> work;
  work.reserve(entry.NumGroups());
  for (const LsiEntry& group : entry.groups) {
    Working w;
    w.rep = group.representative;
    w.members.reserve(group.members.size());
    for (const LsiMember& member : group.members) {
      w.members.push_back(member.ref);
    }
    work.push_back(std::move(w));
  }

  // Cascading merge (Sec. 5.2 case 3.2a): repeatedly merge the *closest*
  // qualifying pair (deterministic stand-in for the paper's random pick),
  // recompute the merged representative, repeat until no pair qualifies.
  bool merged = true;
  while (merged && work.size() > 1) {
    if (check.ShouldStop()) break;
    merged = false;
    double best_d = std::numeric_limits<double>::infinity();
    size_t best_a = 0, best_b = 0;
    for (size_t a = 0; a < work.size(); ++a) {
      if (check.ShouldStop()) break;
      for (size_t b = a + 1; b < work.size(); ++b) {
        const double d = NormalizedEuclidean(
            std::span<const double>(work[a].rep.data(), length),
            std::span<const double>(work[b].rep.data(), length));
        if (d <= budget && d < best_d) {
          best_d = d;
          best_a = a;
          best_b = b;
        }
      }
    }
    if (best_d <= budget) {
      Working& a = work[best_a];
      Working& b = work[best_b];
      const double na = static_cast<double>(a.members.size());
      const double nb = static_cast<double>(b.members.size());
      for (size_t i = 0; i < length; ++i) {
        a.rep[i] = (a.rep[i] * na + b.rep[i] * nb) / (na + nb);
      }
      a.members.insert(a.members.end(), b.members.begin(), b.members.end());
      work.erase(work.begin() + static_cast<ptrdiff_t>(best_b));
      merged = true;
    }
  }

  std::vector<SimilarityGroup> refined;
  refined.reserve(work.size());
  for (const Working& w : work) {
    refined.push_back(GroupFromMembers(dataset, length, w.members));
  }
  return BuildGtiEntry(dataset, std::move(refined), st_prime,
                       base_->options().window_ratio,
                       base_->options().compute_sp_space);
}

Result<GlobalTimeIndex> ThresholdRefiner::RefineAll(
    double st_prime, const ExecContext* ctx) const {
  if (st_prime <= 0.0) {
    return Status::InvalidArgument("st' must be positive");
  }
  GlobalTimeIndex refined;
  for (size_t length : base_->gti().Lengths()) {
    auto entry = RefineLength(length, st_prime, ctx);
    if (!entry.ok()) return entry.status();
    refined.Insert(std::move(entry).value());
  }
  return refined;
}

Result<OnexBase> ThresholdRefiner::RefinedBase(double st_prime) const {
  auto refined = RefineAll(st_prime);
  if (!refined.ok()) return refined.status();
  OnexOptions options = base_->options();
  options.st = st_prime;
  return OnexBase::FromParts(base_->dataset(), options,
                             std::move(refined).value());
}

}  // namespace onex
