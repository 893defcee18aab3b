#include "core/group.h"

#include <cassert>

namespace onex {

void FoldIntoAverage(std::span<double> rep, std::span<const double> values,
                     size_t count) {
  assert(rep.size() == values.size() && count >= 1);
  const double inv_count = 1.0 / static_cast<double>(count);
  for (size_t i = 0; i < rep.size(); ++i) {
    rep[i] += (values[i] - rep[i]) * inv_count;
  }
}

SimilarityGroup::SimilarityGroup(size_t length, SubsequenceRef ref,
                                 std::span<const double> values)
    : length_(length), rep_(values.begin(), values.end()) {
  assert(values.size() == length);
  members_.push_back(ref);
}

void SimilarityGroup::Add(SubsequenceRef ref, std::span<const double> values) {
  assert(values.size() == length_);
  members_.push_back(ref);
  FoldIntoAverage(rep_, values, members_.size());
}

}  // namespace onex
