// Copyright 2026 The ONEX Reproduction Authors.
// The ONEX base (paper Secs. 3-4): the dataset plus the R-Space — every
// similarity group of every candidate length, indexed by GTI/LSI, plus
// the SP-Space threshold markers. Built once offline (the phase Fig. 5
// times); all online queries (Sec. 5) run against this object.

#ifndef ONEX_CORE_ONEX_BASE_H_
#define ONEX_CORE_ONEX_BASE_H_

#include <cstdint>
#include <string>

#include "core/gti.h"
#include "core/options.h"
#include "core/sp_space.h"
#include "dataset/dataset.h"
#include "util/status.h"

namespace onex {

/// Size/time accounting in the shape of the paper's Table 4 and Fig. 5/6.
struct BaseStats {
  double build_seconds = 0.0;
  uint64_t num_subsequences = 0;     ///< Grouped subsequences (all lengths).
  uint64_t num_representatives = 0;  ///< Total groups across lengths.
  uint64_t num_lengths = 0;
  size_t gti_bytes = 0;
  size_t lsi_bytes = 0;

  size_t TotalBytes() const { return gti_bytes + lsi_bytes; }
  double TotalMb() const {
    return static_cast<double>(TotalBytes()) / (1024.0 * 1024.0);
  }
  std::string ToString() const;
};

/// Immutable-after-build knowledge base.
class OnexBase {
 public:
  /// Builds the base over `dataset` (taken by value; the base must keep
  /// the original data to return actual sequences, paper Sec. 7).
  /// The dataset is expected to be normalized already (Sec. 6.1).
  static Result<OnexBase> Build(Dataset dataset, const OnexOptions& options);

  /// Reassembles a base from prebuilt parts (deserialization, refined
  /// views). Derived state — SP-Space registry and size stats — is
  /// recomputed from the entries; build_seconds is reported as 0.
  static OnexBase FromParts(Dataset dataset, OnexOptions options,
                            GlobalTimeIndex gti);

  /// Appends one new time series to the base, maintaining every
  /// invariant of Algorithm 1: each new subsequence joins its nearest
  /// in-radius representative (folding into its running average) or
  /// founds a new group, and the touched groups and the affected
  /// lengths' Dc matrices, sum orders and SP-Space markers are
  /// refreshed. This is the "ONEX base maintenance" the paper defers to
  /// its tech report. InvalidArgument for an empty series.
  Status AppendSeries(TimeSeries series);

  /// Appends a whole batch with ONE maintenance pass: per affected
  /// length every new subsequence is assigned in batch order (the same
  /// nearest-in-radius rule the sequential path applies), then the
  /// touched groups are re-frozen and the length re-indexed once —
  /// instead of once per series. WAL replay batches recovery through
  /// this. The result does not depend on the batching: N series
  /// appended one at a time or in any split into batches give a base
  /// that serializes byte-identically. All-or-nothing validation: an
  /// empty series anywhere rejects the batch unapplied.
  Status AppendBatch(std::vector<TimeSeries> batch);

  const Dataset& dataset() const { return dataset_; }
  const OnexOptions& options() const { return options_; }
  const GlobalTimeIndex& gti() const { return gti_; }
  const SpSpace& sp_space() const { return sp_space_; }
  const BaseStats& stats() const { return stats_; }

  /// Groups for one length (nullptr if the length was not constructed).
  const GtiEntry* EntryFor(size_t length) const { return gti_.Find(length); }

 private:
  OnexBase() = default;

  /// Recomputes stats_ and sp_space_ from gti_ (shared by Build,
  /// FromParts, and AppendSeries).
  void RefreshDerivedState();

  Dataset dataset_;
  OnexOptions options_;
  GlobalTimeIndex gti_;
  SpSpace sp_space_;
  BaseStats stats_;
};

}  // namespace onex

#endif  // ONEX_CORE_ONEX_BASE_H_
