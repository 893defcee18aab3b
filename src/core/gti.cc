#include "core/gti.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "core/sp_space.h"
#include "distance/euclidean.h"

namespace onex {
namespace {

/// The LSI member order: ascending ED to the representative, ties
/// broken by position so the order is total.
bool MemberLess(const LsiMember& a, const LsiMember& b) {
  if (a.ed_to_rep != b.ed_to_rep) return a.ed_to_rep < b.ed_to_rep;
  if (a.ref.series != b.ref.series) return a.ref.series < b.ref.series;
  return a.ref.start < b.ref.start;
}

/// Insertion sort that gives up once it has shifted more than `budget`
/// elements (leaving a permutation behind). True when `m` is sorted.
bool InsertionSortWithin(std::span<LsiMember> m, size_t budget) {
  size_t shifts = 0;
  for (size_t i = 1; i < m.size(); ++i) {
    if (!MemberLess(m[i], m[i - 1])) continue;
    const LsiMember x = m[i];
    size_t j = i;
    do {
      m[j] = m[j - 1];
      --j;
      ++shifts;
    } while (j > 0 && MemberLess(x, m[j - 1]));
    m[j] = x;
    if (shifts > budget) return false;
  }
  return true;
}

}  // namespace

size_t EnvelopeWindow(size_t length, double window_ratio) {
  // The ratio is capped at 1.0 (and NaN read as the full window) before
  // the size_t cast, so a corrupt snapshot value cannot become undefined
  // behaviour; ComputeEnvelope clamps to the length anyway.
  return !(window_ratio >= 0.0)
             ? length
             : static_cast<size_t>(std::ceil(std::min(window_ratio, 1.0) *
                                             static_cast<double>(length)));
}

void FreezeGroup(const Dataset& dataset, size_t window, size_t sorted_prefix,
                 LsiEntry* group) {
  const std::span<const double> rep(group->representative);
  std::vector<LsiMember>& members = group->members;
  for (LsiMember& member : members) {
    member.ed_to_rep = NormalizedEuclidean(member.ref.View(dataset), rep);
  }
  // The old prefix is re-sorted adaptively, the new members are sorted
  // on their own, and the two runs are merged.
  const auto mid = members.begin() + static_cast<ptrdiff_t>(sorted_prefix);
  if (!InsertionSortWithin(std::span<LsiMember>(members.data(), sorted_prefix),
                           4 * sorted_prefix)) {
    std::sort(members.begin(), mid, MemberLess);
  }
  std::sort(mid, members.end(), MemberLess);
  std::inplace_merge(members.begin(), mid, members.end(), MemberLess);
  group->envelope = ComputeEnvelope(rep, window);
}

void IndexLength(GtiEntry* entry, double st, bool compute_sp_space) {
  const size_t g = entry->groups.size();
  const size_t length = entry->length;

  // Pairwise Inter-Representative Distances (Def. 10), normalized ED.
  std::vector<double>& dc = entry->dc;
  dc.assign(g * g, 0.0);
  for (size_t k = 0; k < g; ++k) {
    const std::span<const double> rk(entry->groups[k].representative.data(),
                                     length);
    for (size_t l = k + 1; l < g; ++l) {
      const std::span<const double> rl(entry->groups[l].representative.data(),
                                       length);
      const double d = NormalizedEuclidean(rk, rl);
      dc[k * g + l] = d;
      dc[l * g + k] = d;
    }
  }

  // S_i(k, sum_k): group ids sorted by the sum of their Dc row, the seed
  // order for the median-out representative search (Sec. 5.3).
  entry->sum_sorted.clear();
  entry->sum_sorted.reserve(g);
  for (size_t k = 0; k < g; ++k) {
    double sum = 0.0;
    for (size_t l = 0; l < g; ++l) sum += dc[k * g + l];
    entry->sum_sorted.push_back({static_cast<uint32_t>(k), sum});
  }
  std::sort(entry->sum_sorted.begin(), entry->sum_sorted.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });

  // Local SP-Space markers (Sec. 4.2).
  if (compute_sp_space) {
    const MergeThresholds t = ComputeMergeThresholds(
        std::span<const double>(dc.data(), dc.size()), g, st);
    entry->st_half = t.st_half;
    entry->st_final = t.st_final;
  } else {
    entry->st_half = st;
    entry->st_final = st;
  }
}

GtiEntry BuildGtiEntry(const Dataset& dataset,
                       std::vector<SimilarityGroup> groups, double st,
                       double window_ratio, bool compute_sp_space) {
  GtiEntry entry;
  if (groups.empty()) return entry;
  entry.length = groups.front().length();
  const size_t window = EnvelopeWindow(entry.length, window_ratio);
  entry.groups.reserve(groups.size());
  for (const SimilarityGroup& group : groups) {
    LsiEntry lsi;
    lsi.representative = group.representative();
    lsi.members.reserve(group.size());
    for (const SubsequenceRef& ref : group.members()) {
      lsi.members.push_back({ref, 0.0});
    }
    FreezeGroup(dataset, window, 0, &lsi);
    entry.groups.push_back(std::move(lsi));
  }
  IndexLength(&entry, st, compute_sp_space);
  return entry;
}

}  // namespace onex
