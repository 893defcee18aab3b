// Copyright 2026 The ONEX Reproduction Authors.
// A similarity group under construction (paper Defs. 7-8): subsequences
// of one length whose normalized ED to the group's representative is at
// most ST/2, with the representative maintained as the running
// point-wise average of the members (Def. 7). The representative and
// the member count are a group's whole running state: FoldIntoAverage
// advances it, for groups under construction here and for frozen
// groups during base maintenance alike.

#ifndef ONEX_CORE_GROUP_H_
#define ONEX_CORE_GROUP_H_

#include <span>
#include <vector>

#include "dataset/subsequence.h"

namespace onex {

/// Folds the values of a new member into the running point-wise average
/// `rep`, which then covers `count` members (count >= 1):
/// rep += (values - rep) * (1 / count).
void FoldIntoAverage(std::span<double> rep, std::span<const double> values,
                     size_t count);

/// Mutable group used by GroupBuilder (Algorithm 1). Frozen into an
/// LsiEntry once construction finishes.
class SimilarityGroup {
 public:
  /// Creates a group of subsequences of `length`, seeded by its first
  /// member `ref` with values `values` (which becomes the representative).
  SimilarityGroup(size_t length, SubsequenceRef ref,
                  std::span<const double> values);

  /// Adds a member and folds its values into the running average.
  void Add(SubsequenceRef ref, std::span<const double> values);

  size_t length() const { return length_; }
  size_t size() const { return members_.size(); }
  const std::vector<SubsequenceRef>& members() const { return members_; }

  /// Current representative: point-wise average of all members so far.
  const std::vector<double>& representative() const { return rep_; }

 private:
  size_t length_;
  std::vector<SubsequenceRef> members_;
  std::vector<double> rep_;  ///< Running average over members_.
};

}  // namespace onex

#endif  // ONEX_CORE_GROUP_H_
