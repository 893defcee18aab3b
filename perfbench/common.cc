// Copyright 2026 The ONEX Reproduction Authors.

#include "common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iterator>
#include <numeric>
#include <sstream>
#include <thread>

#include "datagen/registry.h"
#include "dataset/normalize.h"
#include "distance/dtw.h"
#include "distance/envelope.h"
#include "distance/lb_keogh.h"
#include "distance/lb_kim.h"
#include "router/merge.h"
#include "router/router.h"
#include "server/replica.h"
#include "server/server.h"
#include "storage/storage.h"
#include "util/rng.h"

namespace perfbench {

namespace fs = std::filesystem;
using onex::Engine;
using onex::QueryRequest;

namespace {

double Ms(double seconds) { return seconds * 1e3; }

/// The query vector of a Q1-shaped request (nullptr for Q2/Q3).
const std::vector<double>* QueryVector(const QueryRequest& request) {
  if (const auto* q = std::get_if<onex::BestMatchRequest>(&request)) {
    return &q->query;
  }
  if (const auto* q = std::get_if<onex::KSimilarRequest>(&request)) {
    return &q->query;
  }
  return nullptr;
}

/// Median over `reps` of fn(), each call returning one measurement.
double MedianOf(int reps, const std::function<double()>& fn) {
  std::vector<double> values;
  for (int r = 0; r < reps; ++r) values.push_back(fn());
  return Median(values);
}

/// Sum of file bytes that are new or changed in `after` versus `before`.
uint64_t ChangedBytes(const std::map<std::string, uint64_t>& before,
                      const std::map<std::string, uint64_t>& after,
                      const std::string& skip_suffix) {
  uint64_t bytes = 0;
  for (const auto& [name, size] : after) {
    if (!skip_suffix.empty() && name.ends_with(skip_suffix)) continue;
    const auto it = before.find(name);
    if (it == before.end() || it->second != size) bytes += size;
  }
  return bytes;
}

// ------------------------------------------------------- distance probe

void ProbeDistance(const ProbeInput& input, std::vector<Metric>* out) {
  struct Pair {
    std::vector<double> query;
    std::vector<double> candidate;
    onex::Envelope envelope;
    onex::DtwOptions band;
    double cells = 0;
  };
  const onex::Dataset& data = input.engine->dataset();
  std::vector<Pair> pairs;
  for (const QueryRequest& request : input.requests) {
    const std::vector<double>* query = QueryVector(request);
    if (query == nullptr || pairs.size() >= 256) continue;
    const size_t n = query->size();
    const auto& series = data[pairs.size() * 7 % data.size()].values();
    if (series.size() < n) continue;
    Pair pair;
    pair.query = *query;
    pair.candidate.assign(series.begin(), series.begin() + n);
    pair.band = onex::DtwOptions::FromRatio(
        input.engine->options().window_ratio, n, n);
    const size_t w = static_cast<size_t>(std::max(pair.band.window, 0));
    pair.envelope = onex::ComputeEnvelope(pair.candidate, w);
    for (size_t i = 0; i < n; ++i) {
      pair.cells += static_cast<double>(std::min(n - 1, i + w) -
                                        (i > w ? i - w : 0) + 1);
    }
    pairs.push_back(std::move(pair));
  }
  if (pairs.empty()) Die("distance probe: no Q1 queries in the mix");
  double cells = 0;
  for (const Pair& p : pairs) cells += p.cells;

  // Each timed pass sweeps every pair enough times to last ~30 ms.
  volatile double sink = 0;
  auto timed = [&](const char* span, const std::function<double(
                                         const Pair&)>& kernel) {
    int sweeps = 1;
    while (true) {
      const auto start = Clock::now();
      {
        ScopedSpan s(span);
        for (int r = 0; r < sweeps; ++r) {
          for (const Pair& p : pairs) sink = sink + kernel(p);
        }
      }
      const double seconds = SecondsBetween(start, Clock::now());
      if (seconds >= 0.03 || sweeps >= (1 << 20)) return seconds / sweeps;
      sweeps *= 2;
    }
  };
  const double dtw_s = MedianOf(5, [&] {
    return timed("distance.dtw", [](const Pair& p) {
      return onex::DtwDistance(p.query, p.candidate, p.band);
    });
  });
  const double keogh_s = MedianOf(5, [&] {
    return timed("distance.lb_keogh", [](const Pair& p) {
      return onex::LbKeogh(p.query, p.envelope);
    });
  });
  const double kim_s = MedianOf(5, [&] {
    return timed("distance.lb_kim", [](const Pair& p) {
      return onex::LbKim(p.query, p.candidate);
    });
  });
  const double n = static_cast<double>(pairs.size());
  out->push_back({"distance.dtw_ns_per_cell", dtw_s * 1e9 / cells, "ns"});
  out->push_back({"distance.lb_keogh_ns", keogh_s * 1e9 / n, "ns"});
  out->push_back({"distance.lb_kim_ns", kim_s * 1e9 / n, "ns"});
}

// ------------------------------------------------------ api / core probe

void ProbeExecute(const ProbeInput& input, std::vector<Metric>* out) {
  std::vector<double> latencies;
  onex::QueryStats totals;
  const size_t want =
      std::max(SamplesNeededFor(99.0), input.requests.size());
  for (size_t i = 0; i < want; ++i) {
    const QueryRequest& request = input.requests[i % input.requests.size()];
    const auto start = Clock::now();
    onex::Result<onex::QueryResponse> response = [&] {
      ScopedSpan span("api.execute", i + 1);
      return input.engine->Execute(request, onex::ExecContext{});
    }();
    latencies.push_back(SecondsBetween(start, Clock::now()));
    if (!response.ok()) Die("api probe: " + response.status().ToString());
    totals.Add(response.value().stats);
  }
  const double queries = static_cast<double>(want);
  const double candidates = static_cast<double>(totals.cascade.candidates);
  const double evaluated = static_cast<double>(totals.cascade.dtw_abandoned +
                                               totals.cascade.dtw_completed);
  out->push_back({"core.candidates_per_query", candidates / queries,
                  "count"});
  out->push_back({"core.dtw_evaluated_per_query", evaluated / queries,
                  "count"});
  out->push_back({"core.pruning_ratio",
                  candidates > 0 ? 1.0 - evaluated / candidates : 0.0,
                  "ratio"});
  out->push_back({"core.rep_scan_ms", Ms(totals.rep_scan_seconds) / queries,
                  "ms"});
  out->push_back({"core.member_scan_ms",
                  Ms(totals.member_scan_seconds) / queries, "ms"});
  out->push_back({"core.knn_ms", Ms(totals.knn_seconds) / queries, "ms"});
  out->push_back({"api.execute_p50_ms", Ms(Median(latencies)), "ms"});
  out->push_back(
      {"api.execute_p99_ms", Ms(*Percentile(latencies, 99.0)), "ms"});
}

// ----------------------------------------------------------- merge probe

/// The router's scatter merge (router/merge.h) over two legs that each
/// carry the engine's own final payload for a match-shaped request:
/// split, global re-rank, render. Median per request.
void ProbeMerge(const ProbeInput& input, std::vector<Metric>* out) {
  std::vector<double> merge_ms;
  for (const QueryRequest& request : input.requests) {
    if (!onex::router::IsMatchShaped(request)) continue;
    const std::vector<std::string> payload =
        ExpectedPayload(*input.engine, request);
    const auto start = Clock::now();
    {
      ScopedSpan span("router.merge");
      onex::router::MergedStats stats;
      std::vector<std::vector<std::string>> legs(2);
      std::vector<std::string> extra;
      for (std::vector<std::string>& rows : legs) {
        onex::router::SplitFinalPayload(payload, &stats, &rows, &extra);
      }
      const std::string block = onex::router::RenderMergedFinal(
          onex::ToString(onex::KindOf(request)), 1,
          onex::router::MergeMatchRows(
              legs, onex::router::MergeKeepLimit(request)),
          0, false, "", stats, extra);
      if (block.empty()) Die("merge probe: empty block");
    }
    merge_ms.push_back(Ms(SecondsBetween(start, Clock::now())));
  }
  if (merge_ms.empty()) Die("merge probe: no match-shaped queries");
  out->push_back({"router.merge_ms", Median(merge_ms), "ms"});
}

// ------------------------------------------------ storage / replica probe

/// Appends each series to an in-memory twin and then to a durable twin
/// behind a leader server (alternating, so both see the same machine),
/// cutting a checkpoint and syncing a follower every `appends_per_cut`
/// appends; then times recovery of the final cut.
void ProbeDurable(const ProbeInput& input, const RunConfig& config,
                  std::vector<Metric>* out) {
  Engine twin = BuildEngine(input.spec, input.data_seed);
  std::unique_ptr<ReplicaPair> pair = StartReplicaPair(
      config.work_dir + "/probe", 4, [&](onex::server::Catalog& catalog) {
        catalog.Register("probe", BuildEngine(input.spec, input.data_seed));
      });
  onex::server::Catalog& leader_catalog = *pair->leader_catalog;
  const std::string leader_dir = pair->leader_dir();
  const std::string follower_dir = pair->follower_dir();

  std::vector<double> core_ms, storage_ms, checkpoint_ms, fetch_ms,
      delta_bytes, fetch_bytes;
  double written = 0;
  double user_bytes = 0;
  for (size_t i = 0; i < input.appends.size(); ++i) {
    const onex::TimeSeries& series = input.appends[i];
    user_bytes += static_cast<double>(series.length() * sizeof(double));
    const auto core_start = Clock::now();
    onex::Status applied = [&] {
      ScopedSpan span("core.append");
      return twin.AppendSeries(series);
    }();
    core_ms.push_back(Ms(SecondsBetween(core_start, Clock::now())));
    if (!applied.ok()) Die("core append probe: " + applied.ToString());
    const auto start = Clock::now();
    auto appended = [&] {
      ScopedSpan span("storage.append");
      return leader_catalog.Append("probe", series);
    }();
    storage_ms.push_back(Ms(SecondsBetween(start, Clock::now())));
    if (!appended.ok()) Die("storage probe: " + appended.status().ToString());
    if ((i + 1) % input.appends_per_cut != 0) continue;

    written += static_cast<double>(leader_catalog.DurableStats().wal_bytes);
    const auto leader_before = FileSizes(leader_dir);
    const auto cut_start = Clock::now();
    auto cut = [&] {
      ScopedSpan span("storage.checkpoint");
      return leader_catalog.CheckpointAll();
    }();
    checkpoint_ms.push_back(Ms(SecondsBetween(cut_start, Clock::now())));
    if (!cut.ok()) Die("checkpoint probe: " + cut.status().ToString());
    const double cut_bytes = static_cast<double>(
        ChangedBytes(leader_before, FileSizes(leader_dir), ".wal"));
    delta_bytes.push_back(cut_bytes);
    written += cut_bytes;

    // The leader cut is already published, so this round's MANIFEST is
    // the incremental no-op and the span times fetch + publish.
    const auto follower_before = FileSizes(follower_dir);
    const auto sync_start = Clock::now();
    onex::Status synced = [&] {
      ScopedSpan span("server.replica.sync");
      return pair->syncer->SyncOnce();
    }();
    fetch_ms.push_back(Ms(SecondsBetween(sync_start, Clock::now())));
    if (!synced.ok()) Die("replica probe: " + synced.ToString());
    fetch_bytes.push_back(static_cast<double>(
        ChangedBytes(follower_before, FileSizes(follower_dir), "")));
  }
  const uint64_t chain = leader_catalog.DurableStats().delta_chain_length;
  pair->leader->Stop();
  const double recovery_ms = Ms(MedianRecoverySeconds(
      leader_dir, "probe", pair->dir, [&](const Engine& recovered) {
        if (recovered.num_series() !=
            input.spec.series + input.appends.size()) {
          Die("recovery probe: recovered base lost acknowledged appends");
        }
      }));

  // Each pair of appends ran on bases of the same size, so the per-pair
  // ratio cancels the base's growth.
  std::vector<double> wal_shares;
  for (size_t i = 0; i < core_ms.size(); ++i) {
    wal_shares.push_back(1.0 - core_ms[i] / storage_ms[i]);
  }
  out->push_back({"core.append_ms", Median(core_ms), "ms"});
  out->push_back({"storage.append_ms", Median(storage_ms), "ms"});
  out->push_back({"storage.wal_share", Median(wal_shares), "ratio"});
  out->push_back({"storage.checkpoint_ms", Median(checkpoint_ms), "ms"});
  out->push_back({"storage.delta_bytes_per_cut", Median(delta_bytes),
                  "bytes"});
  out->push_back({"storage.bytes_written_per_user_byte",
                  written / user_bytes, "ratio"});
  out->push_back({"storage.chain_length", static_cast<double>(chain),
                  "count"});
  out->push_back({"storage.recovery_ms_per_link",
                  recovery_ms / static_cast<double>(chain + 1),
                  "ms"});
  out->push_back({"server.replica_fetch_bytes_per_sync", Median(fetch_bytes),
                  "bytes"});
  out->push_back({"server.replica_fetch_ms", Median(fetch_ms), "ms"});
  const std::string root = pair->dir;
  pair.reset();
  std::error_code ec;
  fs::remove_all(root, ec);
}

}  // namespace

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 over (seed, stream): independent streams per purpose.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

onex::Dataset MakeDataset(const BaseSpec& spec, uint64_t seed) {
  onex::GenOptions gen;
  gen.num_series = spec.series;
  gen.length = spec.length;
  gen.seed = seed;
  auto made = onex::MakeDatasetByName(spec.generator, gen);
  if (!made.ok()) Die(made.status().ToString());
  onex::Dataset dataset = std::move(made).value();
  onex::MinMaxNormalize(&dataset);
  return dataset;
}

Engine BuildEngine(const BaseSpec& spec, uint64_t seed) {
  onex::OnexOptions options;
  options.st = spec.st;
  options.lengths = {spec.min_length, spec.length, spec.step};
  auto built = Engine::Build(MakeDataset(spec, seed), options);
  if (!built.ok()) Die(built.status().ToString());
  return std::move(built).value();
}

std::vector<size_t> LengthGrid(const BaseSpec& spec) {
  return onex::LengthSpec{spec.min_length, spec.length, spec.step}
      .LengthsFor(spec.length);
}

std::vector<QueryRequest> MakeQueries(const onex::Dataset& data,
                                      const onex::Dataset& unseen,
                                      const BaseSpec& spec,
                                      const QueryMix& mix, size_t cycles,
                                      uint64_t seed) {
  // Kind slots: the mix in lowest terms (40/25/25/5/5 -> 8/5/5/1/1).
  const std::vector<int> shares = {mix.q1_exact, mix.q1_any, mix.q1k,
                                   mix.q2, mix.q3};
  int divisor = 0;
  for (int share : shares) divisor = std::gcd(divisor, share);
  std::vector<int> slots;
  for (int kind = 0; kind < static_cast<int>(shares.size()); ++kind) {
    for (int n = 0; n < shares[kind] / divisor; ++n) slots.push_back(kind);
  }
  const std::vector<size_t> grid = LengthGrid(spec);
  onex::Rng rng(seed);
  std::vector<QueryRequest> out;
  for (size_t cycle = 0; cycle < cycles; ++cycle) {
    std::vector<QueryRequest> batch;
    for (int kind : slots) {
      for (size_t len : grid) {
        for (const onex::Dataset* source : {&data, &unseen}) {
          const auto& series = (*source)[rng.Uniform(source->size())].values();
          const size_t start = rng.Uniform(series.size() - len + 1);
          std::vector<double> query(series.begin() + start,
                                    series.begin() + start + len);
          switch (kind) {
            case 0:
              batch.emplace_back(onex::BestMatchRequest{std::move(query), len});
              break;
            case 1:
              batch.emplace_back(onex::BestMatchRequest{std::move(query), 0});
              break;
            case 2:
              batch.emplace_back(
                  onex::KSimilarRequest{std::move(query), 5, len});
              break;
            case 3:
              batch.emplace_back(onex::SeasonalRequest{
                  static_cast<uint32_t>(rng.Uniform(data.size())), len});
              break;
            default:
              batch.emplace_back(onex::RecommendRequest{std::nullopt, len});
          }
        }
      }
    }
    // Seeded Fisher-Yates, so heavy and light kinds interleave in time.
    for (size_t i = batch.size(); i > 1; --i) {
      std::swap(batch[i - 1], batch[rng.Uniform(i)]);
    }
    std::move(batch.begin(), batch.end(), std::back_inserter(out));
  }
  return out;
}

ReplicaPair::~ReplicaPair() {
  syncer.reset();  // Before the follower catalog it points at.
  if (leader != nullptr) leader->Stop();
}

std::unique_ptr<ReplicaPair> StartReplicaPair(
    const std::string& dir, size_t leader_workers,
    const std::function<void(onex::server::Catalog&)>& populate) {
  auto pair = std::make_unique<ReplicaPair>();
  pair->dir = dir;
  fs::create_directories(pair->leader_dir());
  fs::create_directories(pair->follower_dir());

  onex::server::CatalogOptions leader_options;
  leader_options.data_dir = pair->leader_dir();
  leader_options.durable = true;
  pair->leader_catalog =
      std::make_shared<onex::server::Catalog>(leader_options);
  populate(*pair->leader_catalog);
  onex::server::ServerOptions server_options;
  server_options.num_workers = leader_workers;
  auto leader =
      onex::server::Server::Start(server_options, pair->leader_catalog);
  if (!leader.ok()) Die(leader.status().ToString());
  pair->leader = std::move(leader).value();

  onex::server::CatalogOptions follower_options;
  follower_options.data_dir = pair->follower_dir();
  follower_options.durable = true;
  follower_options.read_only = true;
  pair->follower_catalog =
      std::make_shared<onex::server::Catalog>(follower_options);
  onex::server::ReplicaOptions replica;
  replica.leader_port = pair->leader->port();
  replica.data_dir = pair->follower_dir();
  pair->syncer = std::make_unique<onex::server::ReplicaSyncer>(
      replica, pair->follower_catalog.get());
  if (onex::Status s = pair->syncer->SyncOnce(); !s.ok()) {
    Die("follower bootstrap: " + s.ToString());
  }
  return pair;
}

double MedianRecoverySeconds(
    const std::string& dir, const std::string& name,
    const std::string& scratch,
    const std::function<void(const onex::Engine&)>& check) {
  std::vector<double> seconds;
  for (int r = 0; r < 3; ++r) {
    const std::string copy = scratch + "/recover" + std::to_string(r);
    CopyDir(dir, copy);
    const auto start = Clock::now();
    auto reopened = [&] {
      ScopedSpan span("storage.recovery");
      return onex::storage::DurableEngine::Open(copy, name);
    }();
    seconds.push_back(SecondsBetween(start, Clock::now()));
    if (!reopened.ok()) Die("recovery: " + reopened.status().ToString());
    check(*reopened.value()->const_engine());
  }
  return Median(seconds);
}

onex::server::Client ConnectOrDie(uint16_t port) {
  auto connected = onex::server::Client::Connect("127.0.0.1", port);
  if (!connected.ok()) Die(connected.status().ToString());
  return std::move(connected).value();
}

std::optional<onex::server::WireResponse> Call(onex::server::Client& client,
                                               const std::string& line,
                                               FailureLedger* ledger) {
  ledger->Attempt();
  auto reply = client.Roundtrip(line);
  if (!reply.ok()) {
    ledger->Fail(kTransportFailure);
    return std::nullopt;
  }
  if (!reply.value().ok) {
    ledger->Fail(reply.value().code);
    return std::nullopt;
  }
  return std::move(reply).value();
}

onex::Result<onex::server::WireResponse> SubmitAndWait(
    onex::server::Client& client, const QueryRequest& request) {
  onex::server::Client::SubmitOptions options;
  options.on_progress = [](const onex::server::WireResponse&) {};
  auto handle = client.Submit(request, std::move(options));
  if (!handle.ok()) return handle.status();
  return handle.value().Wait();
}

std::vector<std::string> ExpectedPayload(const Engine& engine,
                                         const QueryRequest& request) {
  auto response = engine.Execute(request, onex::ExecContext{});
  if (!response.ok()) return {"ERR " + response.status().ToString()};
  std::vector<std::string> lines;
  std::istringstream block(onex::server::RenderResponse(response.value()));
  for (std::string line; std::getline(block, line);) lines.push_back(line);
  auto parsed = onex::server::ParseResponseBlock(lines);
  if (!parsed.ok()) return {"UNPARSEABLE"};
  return parsed.value().payload;
}

std::map<std::string, double> ScrapeMetrics(uint16_t port) {
  std::map<std::string, double> out;
  auto connected = onex::server::Client::Connect("127.0.0.1", port);
  if (!connected.ok()) return out;
  auto reply = connected.value().Roundtrip("metrics");
  if (!reply.ok() || !reply.value().ok) return out;
  for (const std::string& line : reply.value().payload) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

double MetricDelta(const std::map<std::string, double>& before,
                   const std::map<std::string, double>& after,
                   const std::string& prefix) {
  double delta = 0;
  for (auto it = after.lower_bound(prefix);
       it != after.end() && it->first.starts_with(prefix); ++it) {
    const auto b = before.find(it->first);
    delta += it->second - (b == before.end() ? 0.0 : b->second);
  }
  return delta;
}

void OpStats::AddWindow(const std::vector<double>& latencies,
                        double seconds) {
  latencies_s.insert(latencies_s.end(), latencies.begin(), latencies.end());
  if (latencies.empty() || seconds <= 0) return;
  window_rates.push_back(static_cast<double>(latencies.size()) / seconds);
  window_p50s_s.push_back(Median(latencies));
}

void OpStats::AddPhase(std::vector<OpSample> samples, size_t windows) {
  std::sort(samples.begin(), samples.end(),
            [](const OpSample& a, const OpSample& b) {
              return a.done_s < b.done_s;
            });
  double previous_end_s = 0;
  for (size_t w = 0; w < windows; ++w) {
    const size_t begin = samples.size() * w / windows;
    const size_t end = samples.size() * (w + 1) / windows;
    if (begin == end) continue;
    std::vector<double> latencies;
    for (size_t i = begin; i < end; ++i) {
      latencies.push_back(samples[i].latency_s);
    }
    AddWindow(latencies, samples[end - 1].done_s - previous_end_s);
    previous_end_s = samples[end - 1].done_s;
  }
}

std::vector<Metric> EndToEndMetrics(const WorkloadResult& result,
                                    bool* complete) {
  const std::optional<double> p99 =
      StretchPercentile(result.primary.latencies_s, 99.0);
  *complete = p99.has_value() && result.setup_s > 0 &&
              !result.primary.window_rates.empty();
  return {
      {"ops_per_s", Median(result.primary.window_rates), "1/s"},
      {"op_p50_ms", Ms(Median(result.primary.window_p50s_s)), "ms"},
      {"op_p99_ms", Ms(p99.value_or(0)), "ms"},
      {"setup_s", result.setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

bool MoreSetups(const std::vector<double>& samples) {
  constexpr size_t kMin = 5, kMax = 40;
  const double spent = std::accumulate(samples.begin(), samples.end(), 0.0);
  return samples.size() < kMin || (spent < 1.0 && samples.size() < kMax);
}

double LoopThread::Completed(Clock::time_point sent) {
  const auto done = Clock::now();
  const double latency_s = SecondsBetween(sent, done);
  samples.push_back({SecondsBetween(start_, done), latency_s});
  completed_->fetch_add(1, std::memory_order_relaxed);
  return latency_s;
}

OpStats RunClosedLoop(size_t connections, double seconds,
                      const std::function<void(size_t, LoopThread&)>& body,
                      FailureLedger* ledger) {
  constexpr size_t kWindows = 20;
  std::atomic<bool> stop{false};
  std::atomic<size_t> completed{0};
  std::atomic<uint64_t> request_ids{0};
  const auto start = Clock::now();
  std::vector<LoopThread> loops;
  for (size_t c = 0; c < connections; ++c) {
    loops.emplace_back(start, &stop, &completed, &request_ids);
  }
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] { body(c, loops[c]); });
  }
  // Past the deadline, keep going until the p99 has its samples.
  for (;;) {
    const double elapsed = SecondsBetween(start, Clock::now());
    if (elapsed >= seconds &&
        (completed.load() >= SamplesNeededFor(99.0) ||
         elapsed >= 3 * seconds)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop = true;
  for (std::thread& t : threads) t.join();
  std::vector<OpSample> samples;
  for (LoopThread& loop : loops) {
    samples.insert(samples.end(), loop.samples.begin(), loop.samples.end());
    ledger->Merge(loop.ledger);
  }
  OpStats total;
  total.AddPhase(std::move(samples), kWindows);
  return total;
}

void RunLayerProbes(const ProbeInput& input, const RunConfig& config,
                    std::vector<Metric>* out) {
  ProbeDistance(input, out);
  ProbeExecute(input, out);
  ProbeMerge(input, out);
  ProbeDurable(input, config, out);
}

void RunRouterProbe(const Engine& engine,
                    const std::vector<uint16_t>& upstream_ports,
                    uint16_t node_port, const std::string& dataset,
                    const std::vector<QueryRequest>& requests,
                    size_t session_queries, std::vector<Metric>* out) {
  std::vector<std::string> lines;
  for (const QueryRequest& request : requests) {
    lines.push_back(onex::server::RenderRequestLine(request));
  }
  onex::router::RouterOptions options;
  for (uint16_t port : upstream_ports) {
    options.upstreams.push_back({"127.0.0.1", port});
  }
  auto started = onex::router::Router::Start(options);
  if (!started.ok()) Die("router probe: " + started.status().ToString());
  std::unique_ptr<onex::router::Router> router = std::move(started).value();
  const auto before = ScrapeMetrics(router->port());

  // Each request runs in process, directly on the node, and through the
  // router, back to back: the per-request differences are the server's
  // and the router's own cost, free of the machine's drift.
  FailureLedger ledger;
  onex::server::Client direct = ConnectOrDie(node_port);
  onex::server::Client routed = ConnectOrDie(router->port());
  Call(direct, "use " + dataset, &ledger);
  Call(routed, "use " + dataset, &ledger);
  std::vector<double> server_ms, hop_ms;
  const size_t rounds = std::max<size_t>(400, lines.size());
  for (size_t i = 0; i < rounds; ++i) {
    const size_t entry = i % lines.size();
    auto start = Clock::now();
    if (!engine.Execute(requests[entry], onex::ExecContext{}).ok()) {
      Die("router probe: in-process execute failed");
    }
    const double execute_s = SecondsBetween(start, Clock::now());
    start = Clock::now();
    {
      ScopedSpan span("server.roundtrip", i + 1);
      Call(direct, lines[entry], &ledger);
    }
    const double direct_s = SecondsBetween(start, Clock::now());
    start = Clock::now();
    {
      ScopedSpan span("router.roundtrip", i + 1);
      Call(routed, lines[entry], &ledger);
    }
    const double routed_s = SecondsBetween(start, Clock::now());
    server_ms.push_back(Ms(direct_s - execute_s));
    hop_ms.push_back(Ms(routed_s - direct_s));
  }
  const auto after = ScrapeMetrics(router->port());

  // One user session of tagged, progress-reporting queries: what each
  // leaves behind in the router process shows in VmSize.
  onex::server::Client session = ConnectOrDie(router->port());
  Call(session, "use " + dataset, &ledger);
  const double vm_before = VmSizeKb();
  for (size_t i = 0; i < session_queries; ++i) {
    ledger.Attempt();
    auto reply = SubmitAndWait(session, requests[i % requests.size()]);
    if (!reply.ok()) {
      ledger.Fail(kTransportFailure);
    } else if (!reply.value().ok) {
      ledger.Fail(reply.value().code);
    }
  }
  const double vm_after = VmSizeKb();
  session.Close();
  router->Stop();
  if (ledger.failed() > 0) Die("router probe failures: " + ledger.Describe());

  const double routed_requests =
      MetricDelta(before, after, "onex_router_requests_total");
  const double legs =
      MetricDelta(before, after, "onex_router_upstream_requests_total");
  out->push_back({"server.overhead_ms", Median(server_ms), "ms"});
  out->push_back({"router.hop_p50_ms", Median(hop_ms), "ms"});
  out->push_back(
      {"router.legs_per_query",
       routed_requests > 0 ? legs / routed_requests : 0.0,
       "count"});
  out->push_back({"router.vm_growth_kb_per_query",
                  (vm_after - vm_before) / static_cast<double>(session_queries),
                  "kB"});
  out->push_back({"router.failovers",
                  MetricDelta(before, after, "onex_router_failovers_total"),
                  "count"});
}

Metric QueueWaitMetric(double queue_wait_sum_s, double queue_wait_count) {
  return {"server.queue_wait_ms",
          queue_wait_count > 0 ? Ms(queue_wait_sum_s / queue_wait_count) : 0.0,
          "ms"};
}

void NoteTracingOverhead(const OpStats& untraced, const OpStats& traced,
                         std::vector<std::string>* notes) {
  WorkloadResult a, b;
  a.primary = untraced;
  b.primary = traced;
  bool complete = false;
  const std::vector<Metric> before = EndToEndMetrics(a, &complete);
  const std::vector<Metric> after = EndToEndMetrics(b, &complete);
  for (size_t i = 0; i < before.size(); ++i) {
    if (before[i].name == "setup_s" || before[i].name == "peak_rss_mb" ||
        before[i].value <= 0 || after[i].value <= 0) {
      continue;
    }
    char line[160];
    std::snprintf(line, sizeof(line),
                  "tracing overhead %s: untraced %.4f -> traced %.4f %s "
                  "(%+.2f%%)",
                  before[i].name.c_str(), before[i].value, after[i].value,
                  before[i].unit.c_str(),
                  100.0 * (after[i].value / before[i].value - 1.0));
    notes->push_back(line);
  }
}

void CopyDir(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::create_directories(fs::path(to).parent_path(), ec);
  fs::copy(from, to, fs::copy_options::recursive, ec);
  if (ec) Die("copy " + from + " -> " + to + ": " + ec.message());
}

std::map<std::string, uint64_t> FileSizes(const std::string& dir) {
  std::map<std::string, uint64_t> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) {
      out[entry.path().filename().string()] = entry.file_size();
    }
  }
  return out;
}

}  // namespace perfbench
