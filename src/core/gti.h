// Copyright 2026 The ONEX Reproduction Authors.
// Global Time Index (paper Sec. 4.3): per-length directory over the
// groups. Stores the group list, the pairwise Inter-Representative
// Distance matrix Dc (Def. 10), the sum-of-Dc sorted array S_i(k, sum_k)
// that seeds the median-out representative search (Sec. 5.3), and the
// per-length SThalf / STfinal markers of the SP-Space (Sec. 4.2).

#ifndef ONEX_CORE_GTI_H_
#define ONEX_CORE_GTI_H_

#include <cstdint>
#include <map>
#include <vector>

#include "core/group.h"
#include "core/lsi.h"

namespace onex {

/// Everything GTI knows about one length.
struct GtiEntry {
  size_t length = 0;
  /// The groups of this length; index into this vector = group id k.
  std::vector<LsiEntry> groups;
  /// Row-major k x k normalized-ED matrix between representatives.
  std::vector<double> dc;
  /// (group id, sum of its Dc row), sorted ascending by sum.
  std::vector<std::pair<uint32_t, double>> sum_sorted;
  /// Local similarity-threshold markers (Sec. 4.2); st_half is the ST'
  /// at which half the groups of this length have merged, st_final when
  /// all have. Both equal the base ST when the length has one group.
  double st_half = 0.0;
  double st_final = 0.0;

  double Dc(size_t k, size_t l) const { return dc[k * groups.size() + l]; }

  size_t NumGroups() const { return groups.size(); }

  /// GTI bytes: identifiers, Dc matrix, sums, thresholds (Table 4 split).
  size_t GtiMemoryBytes() const {
    return dc.capacity() * sizeof(double) +
           sum_sorted.capacity() * sizeof(std::pair<uint32_t, double>) +
           2 * sizeof(double);
  }

  /// LSI bytes aggregated over the groups of this length.
  size_t LsiMemoryBytes() const {
    size_t total = 0;
    for (const auto& g : groups) total += g.MemoryBytes();
    return total;
  }
};

/// Envelope band of one length: ceil(window_ratio * length), or the
/// whole length when window_ratio < 0 (unconstrained DTW). A ratio
/// above 1 is capped at 1 and NaN reads as the whole length.
size_t EnvelopeWindow(size_t length, double window_ratio);

/// Freezes one group's own derived state from its representative and
/// member list: each member's normalized ED to the representative, the
/// member order, and the envelope (band `window`). Members are ordered
/// by (ed_to_rep, series, start) — a total order, so the result does
/// not depend on the order they arrived in. Members [0, sorted_prefix)
/// must still be in the order an earlier freeze left them; after the
/// small representative shift an append causes they are nearly sorted,
/// and an adaptive insertion sort restores the order in about linear
/// time (a full sort takes over past a shift budget). A fresh group
/// passes 0.
void FreezeGroup(const Dataset& dataset, size_t window, size_t sorted_prefix,
                 LsiEntry* group);

/// Derives the per-length state from frozen groups: the Dc matrix, the
/// sum-sorted array and (when requested) the merge thresholds; `st` is
/// the base similarity threshold.
void IndexLength(GtiEntry* entry, double st, bool compute_sp_space);

/// Builds the GtiEntry for one length from construction-time groups:
/// FreezeGroup for every group, then IndexLength. Takes the groups by
/// value so a caller that moves them in releases each length's
/// construction-time groups as soon as that length is frozen.
GtiEntry BuildGtiEntry(const Dataset& dataset,
                       std::vector<SimilarityGroup> groups, double st,
                       double window_ratio, bool compute_sp_space);

/// The full index: one GtiEntry per constructed length.
class GlobalTimeIndex {
 public:
  GlobalTimeIndex() = default;

  void Insert(GtiEntry entry) {
    entries_[entry.length] = std::move(entry);
  }

  /// Entry for exactly `length`, or nullptr.
  const GtiEntry* Find(size_t length) const {
    auto it = entries_.find(length);
    return it == entries_.end() ? nullptr : &it->second;
  }

  /// All indexed lengths, ascending.
  std::vector<size_t> Lengths() const {
    std::vector<size_t> lengths;
    lengths.reserve(entries_.size());
    for (const auto& [len, entry] : entries_) lengths.push_back(len);
    return lengths;
  }

  const std::map<size_t, GtiEntry>& entries() const { return entries_; }
  std::map<size_t, GtiEntry>* mutable_entries() { return &entries_; }

 private:
  std::map<size_t, GtiEntry> entries_;
};

}  // namespace onex

#endif  // ONEX_CORE_GTI_H_
