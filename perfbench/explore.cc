// Copyright 2026 The ONEX Reproduction Authors.
// `explore`: read-only analysts talking directly to one node. Four
// closed-loop connections each send untagged round trips one at a time
// against an in-memory catalog of ECG and Wafer (200 x 128, lengths
// 8..128 step 8). The mix is Sec. 6.2.1's: half the queries are cut from
// the dataset, half from unseen series of the same generator, with
// lengths across the indexed grid; mostly Q1 (exact length, any length,
// k-NN) plus a small share of Q2 seasonal and Q3 recommend. No range
// queries: one costs ~100 ms and would alone set qps and p99.

#include <cstdio>

#include "server/server.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kConnections = 4;
constexpr size_t kMixCyclesPerConnection = 2;  // 2 x 640 queries.
constexpr size_t kCheckEvery = 32;  // Every 32nd list entry is verified.

const BaseSpec kEcg{"ECG", 200, 128, 8, 8, 0.2};
const BaseSpec kWafer{"Wafer", 200, 128, 8, 8, 0.2};
const QueryMix kMix{40, 25, 25, 5, 5};

struct Node {
  std::shared_ptr<onex::server::Catalog> catalog;
  std::unique_ptr<onex::server::Server> server;
  std::shared_ptr<const onex::Engine> ecg;
  std::shared_ptr<const onex::Engine> wafer;
};

Node StartNode() {
  Node node;
  node.catalog = std::make_shared<onex::server::Catalog>();
  node.catalog->Register("ecg", BuildEngine(kEcg, DeriveSeed(kCorpusSeed, 1)));
  node.catalog->Register("wafer", BuildEngine(kWafer, DeriveSeed(kCorpusSeed, 2)));
  node.ecg = node.catalog->Acquire("ecg").value();
  node.wafer = node.catalog->Acquire("wafer").value();
  onex::server::ServerOptions options;
  options.num_workers = 4;
  auto started = onex::server::Server::Start(options, node.catalog);
  if (!started.ok()) Die(started.status().ToString());
  node.server = std::move(started).value();
  return node;
}

struct Connection {
  std::string dataset;
  const onex::Engine* engine = nullptr;
  std::vector<onex::QueryRequest> requests;
  std::vector<std::string> lines;
  /// Payload of the first reply to every kCheckEvery-th entry.
  std::vector<std::optional<std::vector<std::string>>> observed;
};

/// One closed-loop phase: every connection sends back-to-back until the
/// phase has what it needs.
OpStats Measure(uint16_t port, std::vector<Connection>& connections,
                double seconds, FailureLedger* ledger) {
  return RunClosedLoop(
      connections.size(), seconds,
      [&](size_t c, LoopThread& loop) {
        Connection& conn = connections[c];
        onex::server::Client client = ConnectOrDie(port);
        Call(client, "use " + conn.dataset, &loop.ledger);
        for (size_t i = 0; !loop.stopped(); ++i) {
          const size_t entry = i % conn.lines.size();
          const auto sent = Clock::now();
          std::optional<onex::server::WireResponse> reply;
          {
            ScopedSpan span("server.roundtrip", loop.NextRequestId());
            reply = Call(client, conn.lines[entry], &loop.ledger);
          }
          if (!reply.has_value()) continue;
          loop.Completed(sent);
          if (entry % kCheckEvery == 0 && !conn.observed[entry].has_value()) {
            conn.observed[entry] = reply->payload;
          }
        }
      },
      ledger);
}

}  // namespace

WorkloadResult RunExplore(const RunConfig& config) {
  WorkloadResult result;
  Node node;
  for (int r = 0; MoreSetups(result.setup_samples); ++r) {
    node = Node{};  // Tear the previous instance down first.
    const auto start = Clock::now();
    node = StartNode();
    result.setup_samples.push_back(SecondsBetween(start, Clock::now()));
  }
  result.setup_s = Median(result.setup_samples);

  std::vector<Connection> connections(kConnections);
  for (size_t c = 0; c < kConnections; ++c) {
    Connection& conn = connections[c];
    const bool ecg = (c % 2 == 0);
    const BaseSpec& spec = ecg ? kEcg : kWafer;
    conn.dataset = ecg ? "ecg" : "wafer";
    conn.engine = ecg ? node.ecg.get() : node.wafer.get();
    const onex::Dataset unseen =
        MakeDataset({spec.generator, 50, spec.length},
                    DeriveSeed(config.seed, 100 + c));
    conn.requests = MakeQueries(conn.engine->dataset(), unseen, spec, kMix,
                                kMixCyclesPerConnection,
                                DeriveSeed(config.seed, 200 + c));
    for (const onex::QueryRequest& request : conn.requests) {
      conn.lines.push_back(onex::server::RenderRequestLine(request));
    }
    conn.observed.resize(conn.lines.size());
  }

  const uint16_t port = node.server->port();
  {
    FailureLedger warm_ledger;  // Warm-up: caches, lazy components.
    Measure(port, connections, 1.0, &warm_ledger);
    result.ledger.Merge(warm_ledger);
  }
  if (!config.trace) {
    result.primary = Measure(port, connections, config.seconds, &result.ledger);
  } else {
    // Half the time untraced, half traced: the difference is the
    // tracing overhead; the per-layer numbers come from the traced half
    // and the probes that follow.
    const OpStats untraced =
        Measure(port, connections, config.seconds / 2, &result.ledger);
    Tracer::Get().Enable(true);
    const auto before = ScrapeMetrics(port);
    result.primary =
        Measure(port, connections, config.seconds / 2, &result.ledger);
    const auto after = ScrapeMetrics(port);
    NoteTracingOverhead(untraced, result.primary, &result.notes);

    ProbeInput probe;
    probe.engine = node.ecg.get();
    probe.spec = kEcg;
    probe.data_seed = DeriveSeed(kCorpusSeed, 1);
    probe.requests = connections[0].requests;
    const onex::Dataset fresh =
        MakeDataset({kEcg.generator, 8, kEcg.length},
                    DeriveSeed(kCorpusSeed, 300));
    for (size_t i = 0; i < fresh.size(); ++i) probe.appends.push_back(fresh[i]);
    probe.appends_per_cut = 2;
    RunLayerProbes(probe, config, &result.per_layer);

    RunRouterProbe(*node.ecg, {port}, port, "ecg", connections[0].requests,
                   32, &result.per_layer);
    result.per_layer.push_back(QueueWaitMetric(
        MetricDelta(before, after, "onex_queue_wait_seconds_sum"),
        MetricDelta(before, after, "onex_queue_wait_seconds_count")));
  }
  node.server->Stop();

  // Sampled answers must equal the engine's own in-process answers.
  size_t checked = 0;
  for (const Connection& conn : connections) {
    for (size_t i = 0; i < conn.observed.size(); ++i) {
      if (!conn.observed[i].has_value()) continue;
      ++checked;
      if (*conn.observed[i] != ExpectedPayload(*conn.engine,
                                               conn.requests[i])) {
        result.ledger.Fail(kWrongAnswer);
        result.correct = false;
      }
    }
  }
  result.notes.push_back("explore: " + std::to_string(checked) +
                         " sampled answers checked against Engine::Execute");
  return result;
}

}  // namespace perfbench
