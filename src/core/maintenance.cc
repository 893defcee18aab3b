// Incremental maintenance of a built ONEX base (OnexBase::AppendSeries
// / AppendBatch). The paper defers base maintenance to its tech report;
// the natural incremental form of Algorithm 1 is implemented here. Each
// affected length's GtiEntry is updated in place: every subsequence of
// a new series is assigned against the live representatives (nearest
// in-radius one, the offline loop's early abandoning and tie rule) and
// folded into that group's running average, or founds a new group at
// the end of the list, so group ids never change. A frozen
// representative plus its member count is a group's whole running
// state; nothing is re-read from the members.
//
// Cost per length: the assignment is O(new subsequences * g * L). Only
// the touched groups are re-frozen: member EDs at O(members * L), an
// adaptive re-sort that is near-linear because a small representative
// shift leaves the old members nearly sorted, a sort of the new
// members and a merge, and the envelope. Dc is recomputed
// (O(g^2 * L)) and the sum order and SP-Space markers are re-derived
// from it (O(g^2 log g)). A batch of N series pays the freeze and index
// once per length instead of N times (WAL replay leans on this) and
// builds the same base: however N appends are batched, the result
// serializes byte-identically.

#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "core/group.h"
#include "core/gti.h"
#include "core/onex_base.h"
#include "distance/euclidean.h"

namespace onex {
namespace {

/// Assigns every subsequence of `series` at `length` into `groups`
/// (nearest in-radius representative, or a new group at the end) — the
/// inner loop of Algorithm 1's incremental form.
void AssignSubsequences(const Dataset& dataset, uint32_t series_id,
                        size_t length, double radius_sq,
                        std::vector<LsiEntry>* groups) {
  const TimeSeries& stored = dataset[series_id];
  for (uint32_t j = 0; j + length <= stored.length(); ++j) {
    const SubsequenceRef ref{series_id, j, static_cast<uint32_t>(length)};
    const auto values = ref.View(dataset);
    double min_sq = std::numeric_limits<double>::infinity();
    size_t min_k = 0;
    for (size_t k = 0; k < groups->size(); ++k) {
      const double d_sq = SquaredEuclideanEarlyAbandon(
          values,
          std::span<const double>((*groups)[k].representative.data(), length),
          std::min(min_sq, radius_sq));
      if (d_sq < min_sq) {
        min_sq = d_sq;
        min_k = k;
      }
    }
    if (min_sq <= radius_sq) {
      LsiEntry& group = (*groups)[min_k];
      group.members.push_back({ref, 0.0});
      FoldIntoAverage(group.representative, values, group.members.size());
    } else {
      LsiEntry founded;
      founded.representative.assign(values.begin(), values.end());
      founded.members.push_back({ref, 0.0});
      groups->push_back(std::move(founded));
    }
  }
}

}  // namespace

Status OnexBase::AppendSeries(TimeSeries series) {
  std::vector<TimeSeries> batch;
  batch.push_back(std::move(series));
  return AppendBatch(std::move(batch));
}

Status OnexBase::AppendBatch(std::vector<TimeSeries> batch) {
  for (const TimeSeries& series : batch) {
    if (series.empty()) {
      return Status::InvalidArgument("cannot append an empty series");
    }
  }
  if (batch.empty()) return Status::OK();

  const uint32_t first_id = static_cast<uint32_t>(dataset_.size());
  for (TimeSeries& series : batch) dataset_.Add(std::move(series));
  const uint32_t end_id = static_cast<uint32_t>(dataset_.size());

  // Union of candidate lengths across the new series; each series only
  // contributes subsequences at the lengths its own LengthsFor yields,
  // exactly as the sequential path would.
  std::set<size_t> lengths;
  for (uint32_t id = first_id; id < end_id; ++id) {
    for (size_t length : options_.lengths.LengthsFor(dataset_[id].length())) {
      lengths.insert(length);
    }
  }

  for (size_t length : lengths) {
    GtiEntry& entry = (*gti_.mutable_entries())[length];
    entry.length = length;
    // Member counts at the last freeze: a group that grows past its
    // count was touched, and its first `frozen` members are still in
    // frozen order.
    std::vector<size_t> frozen(entry.NumGroups());
    for (size_t k = 0; k < frozen.size(); ++k) {
      frozen[k] = entry.groups[k].size();
    }
    const double radius =
        std::sqrt(static_cast<double>(length)) * options_.st / 2.0;
    const double radius_sq = radius * radius;
    for (uint32_t id = first_id; id < end_id; ++id) {
      if (!options_.lengths.Contains(length, dataset_[id].length())) {
        continue;
      }
      AssignSubsequences(dataset_, id, length, radius_sq, &entry.groups);
    }

    const size_t window = EnvelopeWindow(length, options_.window_ratio);
    for (size_t k = 0; k < entry.NumGroups(); ++k) {
      const bool old = k < frozen.size();
      if (old && entry.groups[k].size() == frozen[k]) continue;
      FreezeGroup(dataset_, window, old ? frozen[k] : 0, &entry.groups[k]);
    }
    IndexLength(&entry, options_.st, options_.compute_sp_space);
  }
  RefreshDerivedState();
  return Status::OK();
}

}  // namespace onex
