// Copyright 2026 The ONEX Reproduction Authors.
// `routed`: the front door. An in-process router sits in front of a
// durable leader and one follower, bootstrapped at set-up so reads land
// on it. The leader serves two small shards, shard-a and shard-b (ECG
// 40 x 64 each), so queries are cheap and the router hop dominates.
// Four connections each play successive exploration sessions: connect,
// `use shard-*` (scatter, every third session) or one shard, send 32
// tagged progress=1 Q1/Q1k queries one at a time, disconnect. The
// session length models one user's session; it is not chosen around
// the router's per-query thread retention, which shows in the traced
// run's router.vm_growth_kb_per_query.
//
// Sampled answers are checked: a single-shard final must equal the
// shard engine's own answer, and a scatter final must equal the global
// re-rank (ascending distance, shard-a before shard-b on ties) of the
// two per-shard answers.

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>

#include "router/router.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kConnections = 4;
constexpr size_t kSessionQueries = 32;
constexpr size_t kMixCyclesPerShard = 16;  // 16 x 80 queries.
constexpr size_t kCheckEvery = 32;
constexpr size_t kShards = 2;

const BaseSpec kShard{"ECG", 40, 64, 8, 8, 0.2};
// Mostly Q1, as in explore. Q1k replies stream PART frames, about half
// of which stall ~40 ms (see README, Findings); at this share the median
// stays inside the fast mode instead of on the edge between the modes.
const QueryMix kMix{80, 0, 20, 0, 0};
const char* const kShardNames[kShards] = {"shard-a", "shard-b"};

/// Leader + follower (now serving) + router, all on loopback.
struct Topology {
  std::unique_ptr<ReplicaPair> pair;
  std::unique_ptr<onex::server::Server> follower;
  std::unique_ptr<onex::router::Router> router;

  ~Topology() {
    if (router != nullptr) router->Stop();
    if (follower != nullptr) follower->Stop();
  }
};

std::unique_ptr<Topology> StartTopology(const std::string& dir) {
  auto topo = std::make_unique<Topology>();
  topo->pair = StartReplicaPair(dir, 4, [](onex::server::Catalog& catalog) {
    for (size_t s = 0; s < kShards; ++s) {
      catalog.Register(kShardNames[s],
                       BuildEngine(kShard, DeriveSeed(kCorpusSeed, 10 + s)));
    }
  });
  onex::server::ServerOptions follower_server;
  onex::server::ReplicaSyncer* syncer = topo->pair->syncer.get();
  follower_server.replica_status = [syncer] { return syncer->status(); };
  follower_server.replica_lag_budget_s = 3600.0;  // No syncs after set-up.
  auto follower = onex::server::Server::Start(
      std::move(follower_server), topo->pair->follower_catalog);
  if (!follower.ok()) Die(follower.status().ToString());
  topo->follower = std::move(follower).value();

  onex::router::RouterOptions router_options;
  router_options.upstreams = {{"127.0.0.1", topo->pair->leader->port()},
                              {"127.0.0.1", topo->follower->port()}};
  auto router = onex::router::Router::Start(router_options);
  if (!router.ok()) Die(router.status().ToString());
  topo->router = std::move(router).value();
  return topo;
}

/// Seeded queries cut from one shard's data (and unseen series).
struct ShardQueries {
  std::vector<onex::QueryRequest> requests;
};

/// Final payloads of the first reply to every checked query, keyed by
/// (target, entry): target s >= 0 is a session on shard s; -1 - s is a
/// scatter session replaying shard s's queries.
struct Observed {
  std::map<std::pair<int, size_t>, std::vector<std::string>> payloads;
};

/// `use` target of session number `session`: every third session
/// scatters, the rest alternate between the shards.
int SessionTarget(size_t session) {
  return session % 3 == 0 ? -1 : static_cast<int>(session % kShards);
}

/// Latency classes of the mix: (single shard | scatter) x (Q1 | Q1k).
enum LatencyClass { kSingleQ1, kSingleQ1k, kScatterQ1, kScatterQ1k, kClasses };
const char* const kClassNames[kClasses] = {"single-shard Q1",
                                           "single-shard Q1k", "scatter Q1",
                                           "scatter Q1k"};
using ClassLatencies = std::array<std::vector<double>, kClasses>;

OpStats Measure(uint16_t router_port,
                const std::vector<ShardQueries>& queries, double seconds,
                std::vector<Observed>* observed, ClassLatencies* by_class,
                FailureLedger* ledger) {
  std::vector<ClassLatencies> per_thread(kConnections);
  OpStats stats = RunClosedLoop(
      kConnections, seconds,
      [&](size_t c, LoopThread& loop) {
        size_t cursor = c * 17;  // Connections start at different entries.
        for (size_t session = c; !loop.stopped(); session += kConnections) {
          const int target = SessionTarget(session);
          const std::vector<onex::QueryRequest>& list =
              queries[target < 0 ? session / 3 % kShards : target].requests;
          loop.ledger.Attempt();
          auto connected =
              onex::server::Client::Connect("127.0.0.1", router_port);
          if (!connected.ok()) {
            loop.ledger.Fail(kTransportFailure);
            continue;
          }
          onex::server::Client client = std::move(connected).value();
          const std::string use =
              target < 0 ? "use shard-*"
                         : std::string("use ") + kShardNames[target];
          if (!Call(client, use, &loop.ledger).has_value()) continue;
          for (size_t q = 0; q < kSessionQueries && !loop.stopped(); ++q) {
            const size_t entry = cursor++ % list.size();
            const auto sent = Clock::now();
            loop.ledger.Attempt();
            auto reply = [&] {
              ScopedSpan span("router.query", loop.NextRequestId());
              return SubmitAndWait(client, list[entry]);
            }();
            if (!reply.ok()) {
              loop.ledger.Fail(kTransportFailure);
              break;  // The session is gone; start a new one.
            }
            if (!reply.value().ok) {
              loop.ledger.Fail(reply.value().code);
              continue;
            }
            const double latency_s = loop.Completed(sent);
            const bool knn =
                std::holds_alternative<onex::KSimilarRequest>(list[entry]);
            per_thread[c][(target < 0 ? kScatterQ1 : kSingleQ1) + knn]
                .push_back(latency_s);
            const int key = target < 0 ? -1 - static_cast<int>(
                                                   session / 3 % kShards)
                                       : target;
            if (entry % kCheckEvery == 0) {
              (*observed)[c].payloads.try_emplace({key, entry},
                                                  reply.value().payload);
            }
          }
          client.Close();
        }
      },
      ledger);
  for (const ClassLatencies& thread : per_thread) {
    for (size_t k = 0; k < kClasses; ++k) {
      (*by_class)[k].insert((*by_class)[k].end(), thread[k].begin(),
                            thread[k].end());
    }
  }
  return stats;
}

/// The `match ...` rows of a payload, in order.
std::vector<std::string> MatchRows(const std::vector<std::string>& payload) {
  std::vector<std::string> rows;
  for (const std::string& line : payload) {
    if (line.rfind("match ", 0) == 0) rows.push_back(line);
  }
  return rows;
}

double RowDistance(const std::string& row) {
  const auto kv = onex::server::ParseKeyValues(row);
  const auto it = kv.find("distance");
  return it == kv.end() ? 0 : std::strtod(it->second.c_str(), nullptr);
}

/// Global re-rank of the per-shard answers: ascending distance, shard
/// order then row order on ties, cut to the query's k.
std::vector<std::string> ExpectedScatter(
    const std::vector<const onex::Engine*>& shards,
    const onex::QueryRequest& request) {
  std::vector<std::string> rows;
  for (const onex::Engine* engine : shards) {
    for (std::string& row : MatchRows(ExpectedPayload(*engine, request))) {
      rows.push_back(std::move(row));
    }
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const std::string& a, const std::string& b) {
                     return RowDistance(a) < RowDistance(b);
                   });
  size_t keep = 1;
  if (const auto* knn = std::get_if<onex::KSimilarRequest>(&request)) {
    keep = knn->k;
  }
  if (rows.size() > keep) rows.resize(keep);
  return rows;
}

void SetMetric(std::vector<Metric>* metrics, const std::string& name,
               double value) {
  for (Metric& m : *metrics) {
    if (m.name == name) m.value = value;
  }
}

}  // namespace

WorkloadResult RunRouted(const RunConfig& config) {
  WorkloadResult result;
  std::unique_ptr<Topology> topo;
  for (int r = 0; MoreSetups(result.setup_samples); ++r) {
    topo.reset();
    const auto start = Clock::now();
    topo = StartTopology(config.work_dir + "/setup" + std::to_string(r));
    result.setup_samples.push_back(SecondsBetween(start, Clock::now()));
  }
  result.setup_s = Median(result.setup_samples);

  std::vector<const onex::Engine*> shards;
  std::vector<std::shared_ptr<const onex::Engine>> held;
  std::vector<ShardQueries> queries(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    auto engine = topo->pair->leader_catalog->Acquire(kShardNames[s]);
    if (!engine.ok()) Die(engine.status().ToString());
    held.push_back(engine.value());
    shards.push_back(held.back().get());
    const onex::Dataset unseen = MakeDataset(
        {kShard.generator, 20, kShard.length}, DeriveSeed(config.seed, 500 + s));
    queries[s].requests =
        MakeQueries(shards[s]->dataset(), unseen, kShard, kMix,
                    kMixCyclesPerShard, DeriveSeed(config.seed, 510 + s));
  }

  const uint16_t port = topo->router->port();
  std::vector<Observed> observed(kConnections);
  {
    std::vector<Observed> warm(kConnections);
    FailureLedger warm_ledger;
    ClassLatencies warm_classes;
    Measure(port, queries, 1.0, &warm, &warm_classes, &warm_ledger);
    result.ledger.Merge(warm_ledger);
  }
  ClassLatencies by_class;
  std::map<std::string, double> router_before, router_after;
  std::map<std::string, double> follower_before, follower_after;
  if (!config.trace) {
    result.primary =
        Measure(port, queries, config.seconds, &observed, &by_class,
                &result.ledger);
  } else {
    const OpStats untraced = Measure(port, queries, config.seconds / 2,
                                     &observed, &by_class, &result.ledger);
    Tracer::Get().Enable(true);
    router_before = ScrapeMetrics(port);
    follower_before = ScrapeMetrics(topo->follower->port());
    result.primary = Measure(port, queries, config.seconds / 2, &observed,
                             &by_class, &result.ledger);
    router_after = ScrapeMetrics(port);
    follower_after = ScrapeMetrics(topo->follower->port());
    NoteTracingOverhead(untraced, result.primary, &result.notes);
  }

  size_t total = 0;
  for (const std::vector<double>& latencies : by_class) {
    total += latencies.size();
  }
  for (size_t k = 0; k < kClasses; ++k) {
    const std::vector<double>& latencies = by_class[k];
    char line[200];
    std::snprintf(line, sizeof(line),
                  "routed %s: %.1f%% of queries, p25/p50/p75/p90 "
                  "%.3f/%.3f/%.3f/%.3f ms",
                  kClassNames[k], 100.0 * latencies.size() / total,
                  Percentile(latencies, 25.0, 0).value_or(0) * 1e3,
                  Percentile(latencies, 50.0, 0).value_or(0) * 1e3,
                  Percentile(latencies, 75.0, 0).value_or(0) * 1e3,
                  Percentile(latencies, 90.0, 0).value_or(0) * 1e3);
    result.notes.push_back(line);
  }

  // Sampled answers: single-shard finals byte-identical to the shard's
  // own answer, scatter finals equal to the global re-rank.
  size_t checked = 0;
  for (const Observed& obs : observed) {
    for (const auto& [key, payload] : obs.payloads) {
      const auto [target, entry] = key;
      ++checked;
      bool same = false;
      if (target >= 0) {
        same = payload == ExpectedPayload(*shards[target],
                                          queries[target].requests[entry]);
      } else {
        const size_t list = static_cast<size_t>(-1 - target);
        same = MatchRows(payload) ==
               ExpectedScatter(shards, queries[list].requests[entry]);
      }
      if (!same) {
        result.ledger.Fail(kWrongAnswer);
        result.correct = false;
      }
    }
  }
  result.notes.push_back("routed: " + std::to_string(checked) +
                         " sampled finals checked (single-shard and "
                         "scatter re-rank)");

  if (config.trace) {
    ProbeInput probe;
    probe.engine = shards[0];
    probe.spec = kShard;
    probe.data_seed = DeriveSeed(kCorpusSeed, 10);
    probe.requests = queries[0].requests;
    const onex::Dataset fresh = MakeDataset(
        {kShard.generator, 32, kShard.length}, DeriveSeed(kCorpusSeed, 520));
    for (size_t i = 0; i < fresh.size(); ++i) probe.appends.push_back(fresh[i]);
    probe.appends_per_cut = 4;
    RunLayerProbes(probe, config, &result.per_layer);

    // Server and hop cost on shard-a's queries: in process, directly on
    // the follower (where reads land), and through a router in front of
    // both nodes.
    RunRouterProbe(*shards[0],
                   {topo->pair->leader->port(), topo->follower->port()},
                   topo->follower->port(), kShardNames[0],
                   queries[0].requests, kSessionQueries, &result.per_layer);
    // Fan-out and failovers as the workload itself saw them.
    SetMetric(&result.per_layer, "router.legs_per_query",
              MetricDelta(router_before, router_after,
                          "onex_router_upstream_requests_total") /
                  MetricDelta(router_before, router_after,
                              "onex_router_requests_total"));
    SetMetric(&result.per_layer, "router.failovers",
              MetricDelta(router_before, router_after,
                          "onex_router_failovers_total"));
    result.per_layer.push_back(QueueWaitMetric(
        MetricDelta(follower_before, follower_after,
                    "onex_queue_wait_seconds_sum"),
        MetricDelta(follower_before, follower_after,
                    "onex_queue_wait_seconds_count")));
  }
  return result;
}

}  // namespace perfbench
