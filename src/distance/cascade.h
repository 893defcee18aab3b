// Copyright 2026 The ONEX Reproduction Authors.
// Cascading lower-bound pruner (paper Sec. 5.3, adopted from [11], [22]):
// candidates pass through LB_Kim_FL (O(1)) then LB_Keogh (O(n)) before
// the O(n^2) early-abandoning DTW is paid. Every DTW decision of the
// query processor goes through CascadePruner::Distance, so the per-stage
// counters it writes are the live pruning breakdown each query reports.

#ifndef ONEX_DISTANCE_CASCADE_H_
#define ONEX_DISTANCE_CASCADE_H_

#include <cstdint>
#include <span>
#include <string>

#include "distance/dtw.h"
#include "distance/envelope.h"

namespace onex {

/// Per-stage counters accumulated across Distance() calls.
struct CascadeStats {
  uint64_t candidates = 0;      ///< Total candidates examined.
  uint64_t pruned_kim = 0;      ///< Dropped by LB_Kim.
  uint64_t pruned_keogh = 0;    ///< Dropped by LB_Keogh.
  uint64_t dtw_abandoned = 0;   ///< DTW started but abandoned early.
  uint64_t dtw_completed = 0;   ///< Full DTW evaluations.

  void Reset() { *this = CascadeStats(); }

  /// Merges another accumulation into this one (per-query counters roll
  /// up into the server-wide totals this way).
  void Add(const CascadeStats& other) {
    candidates += other.candidates;
    pruned_kim += other.pruned_kim;
    pruned_keogh += other.pruned_keogh;
    dtw_abandoned += other.dtw_abandoned;
    dtw_completed += other.dtw_completed;
  }

  /// Every candidate is accounted to exactly one terminal stage.
  /// (dtw_abandoned + dtw_completed is the wire's `dtw_evaluated`.)
  bool Consistent() const {
    return candidates ==
           pruned_kim + pruned_keogh + dtw_abandoned + dtw_completed;
  }

  std::string ToString() const;
};

/// Stage toggles (all on by default); the ablation benches switch these.
struct CascadeOptions {
  bool use_kim = true;
  bool use_keogh = true;
  bool use_early_abandon = true;
};

/// Evaluates DTW(query, candidate) only when no lower bound exceeds the
/// threshold. Counts each call once, into the caller's CascadeStats.
class CascadePruner {
 public:
  /// `stats` must be non-null and outlive the pruner.
  CascadePruner(DtwOptions dtw_options, CascadeOptions cascade_options,
                CascadeStats* stats)
      : dtw_options_(dtw_options), options_(cascade_options), stats_(stats) {}

  /// Returns the exact DTW under `dtw_options` when it is <= `threshold`
  /// (raw, unnormalized DTW units), else +infinity — whichever stages are
  /// on, so the toggles change the work done, never the answer. A
  /// non-finite threshold tries no bound and returns the exact DTW.
  /// `envelope` is the candidate-side envelope matching query length;
  /// pass nullptr when unavailable (e.g. cross-length comparisons or
  /// members, which store none), which skips the LB_Keogh stage.
  double Distance(std::span<const double> query,
                  std::span<const double> candidate,
                  const Envelope* envelope, double threshold) const;

 private:
  DtwOptions dtw_options_;
  CascadeOptions options_;
  CascadeStats* stats_;
};

}  // namespace onex

#endif  // ONEX_DISTANCE_CASCADE_H_
