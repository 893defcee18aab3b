#include "distance/cascade.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "distance/lb_kim.h"
#include "distance/lb_keogh.h"

namespace onex {
namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

std::string CascadeStats::ToString() const {
  std::ostringstream out;
  out << "candidates=" << candidates << " pruned_kim=" << pruned_kim
      << " pruned_keogh=" << pruned_keogh
      << " dtw_abandoned=" << dtw_abandoned
      << " dtw_completed=" << dtw_completed;
  return out.str();
}

double CascadePruner::Distance(std::span<const double> query,
                               std::span<const double> candidate,
                               const Envelope* envelope,
                               double threshold) const {
  ++stats_->candidates;
  if (!std::isfinite(threshold)) {
    // Nothing can be pruned or abandoned against an infinite threshold.
    ++stats_->dtw_completed;
    return DtwDistance(query, candidate, dtw_options_);
  }
  // LB_Kim_FL reads the first and last two points of each series.
  if (options_.use_kim && query.size() >= 3 && candidate.size() >= 3 &&
      LbKimFl(query, candidate) > threshold) {
    ++stats_->pruned_kim;
    return kInf;
  }
  if (options_.use_keogh && envelope != nullptr &&
      envelope->size() == query.size() &&
      LbKeoghEarlyAbandon(query, *envelope, threshold) > threshold) {
    ++stats_->pruned_keogh;
    return kInf;
  }
  if (options_.use_early_abandon) {
    const double d =
        DtwEarlyAbandon(query, candidate, threshold, dtw_options_);
    if (std::isinf(d)) {
      ++stats_->dtw_abandoned;
      return kInf;
    }
    ++stats_->dtw_completed;
    // Abandoning tests whole DP rows, so a DTW can still finish above
    // the threshold; rejecting it here keeps the stage toggles from
    // changing which candidates pass.
    return d <= threshold ? d : kInf;
  }
  ++stats_->dtw_completed;
  const double d = DtwDistance(query, candidate, dtw_options_);
  return d <= threshold ? d : kInf;
}

}  // namespace onex
