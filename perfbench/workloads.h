// Copyright 2026 The ONEX Reproduction Authors.
// The three benchmark workloads. Each builds its topology in-process on
// loopback from seeded src/datagen data, measures for the configured
// time, checks the answers, and, in a traced run, adds the per-layer
// metrics.

#ifndef ONEX_PERFBENCH_WORKLOADS_H_
#define ONEX_PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// Read-only analysts: 4 closed-loop connections to one in-memory node
/// serving ECG and Wafer at 200x128; primary op = one query.
WorkloadResult RunExplore(const RunConfig& config);

/// A durable leader under one closed-loop writer (a fixed, seeded append
/// sequence per episode), open-loop readers, and a follower synced every
/// few appends; primary op = one acknowledged APPEND.
WorkloadResult RunIngest(const RunConfig& config);

/// The front door: sessions of tagged queries through a router in front
/// of a durable leader and a bootstrapped follower; primary op = one
/// routed query.
WorkloadResult RunRouted(const RunConfig& config);

}  // namespace perfbench

#endif  // ONEX_PERFBENCH_WORKLOADS_H_
