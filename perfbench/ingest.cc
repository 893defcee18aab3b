// Copyright 2026 The ONEX Reproduction Authors.
// `ingest`: a durable leader under writes, with a follower and readers.
//
// One episode starts a leader from the same persisted base (ECG 40 x 64,
// lengths 8..64 step 8) and replays a fixed, seeded sequence of 208 new
// series through one closed-loop writer sending APPEND over the wire.
// The count is fixed because append cost grows with the base: a
// duration-bound run would measure a different base every time. Every
// 16 acknowledged appends the writer runs one follower round
// (ReplicaSyncer::SyncOnce: leader cut + fetch + publish), so every
// episode produces the same delta chain, compaction included. Two
// readers query the leader in an open loop at a fixed rate, timed from
// each request's due time. Episodes repeat until the run's time is up.
//
// Flush policy: sync_appends on (every append is fsynced before it is
// acknowledged), as shipped, on the run's own scratch directory.
//
// After the last episode the follower must answer byte-identically to
// the leader, and reopening a copy of the leader's data directory must
// recover every acknowledged append and answer as the leader did.

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

constexpr size_t kAppendsPerEpisode = 208;
constexpr size_t kAppendsPerSync = 16;
constexpr size_t kReaders = 2;
constexpr double kReaderRatePerS = 100;  // Per reader.
constexpr size_t kReaderMixCycles = 4;  // 4 x 160 queries.
constexpr size_t kCheckedQueries = 64;

const BaseSpec kBase{"ECG", 40, 64, 8, 8, 0.2};
const QueryMix kReadMix{50, 20, 30, 0, 0};

/// Persists the base once; every episode starts from a copy of it.
void MakeGolden(const std::string& dir) {
  fs::create_directories(dir);
  onex::server::CatalogOptions options;
  options.data_dir = dir;
  options.durable = true;
  onex::server::Catalog catalog(options);
  catalog.Register("ecg", BuildEngine(kBase, DeriveSeed(kCorpusSeed, 1)));
  if (!catalog.Acquire("ecg").ok()) Die("golden base did not persist");
}

/// One episode's topology: a leader started from a copy of `golden`.
std::unique_ptr<ReplicaPair> StartTopology(const std::string& golden,
                                           const std::string& dir) {
  CopyDir(golden, dir + "/leader");
  return StartReplicaPair(dir, 2, [](onex::server::Catalog&) {});
}

struct EpisodeStats {
  OpStats appends;
  std::vector<double> syncs_s;
  std::vector<double> reads_s;
  std::vector<double> reader_lateness_s;
  double episode_seconds = 0;   ///< Wall time of the measured episodes.
  double queue_wait_sum_s = 0;  ///< Leader METRICS deltas.
  double queue_wait_count = 0;
};

/// Runs one episode on a fresh topology: the writer's fixed sequence
/// while the readers keep their schedule.
void RunEpisode(ReplicaPair& topo, const std::vector<std::string>& appends,
                const std::vector<std::string>& reads, EpisodeStats* stats,
                FailureLedger* ledger, uint64_t* request_ids) {
  std::atomic<bool> writer_done{false};
  std::vector<std::vector<double>> read_s(kReaders);
  std::vector<std::vector<double>> late_s(kReaders);
  std::vector<FailureLedger> read_ledgers(kReaders);
  const uint16_t port = topo.leader->port();
  const auto metrics_before = ScrapeMetrics(port);
  const auto start = Clock::now();

  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      onex::server::Client client = ConnectOrDie(port);
      Call(client, "use ecg", &read_ledgers[r]);
      const OpenLoopSchedule schedule(start, kReaderRatePerS);
      for (uint64_t i = 0; !writer_done.load(); ++i) {
        const Clock::time_point due = schedule.DueTime(i);
        std::this_thread::sleep_until(due);
        if (writer_done.load()) break;
        late_s[r].push_back(SecondsBetween(due, Clock::now()));
        const std::string& line = reads[(i * kReaders + r) % reads.size()];
        if (Call(client, line, &read_ledgers[r]).has_value()) {
          read_s[r].push_back(schedule.LatencySeconds(i, Clock::now()));
        }
      }
    });
  }

  onex::server::Client writer = ConnectOrDie(port);
  Call(writer, "use ecg", ledger);
  std::vector<double> append_s;
  const auto writer_start = Clock::now();
  for (size_t i = 0; i < appends.size(); ++i) {
    const auto sent = Clock::now();
    bool ok = false;
    {
      ScopedSpan span("server.append", ++*request_ids);
      ok = Call(writer, appends[i], ledger).has_value();
    }
    if (ok) append_s.push_back(SecondsBetween(sent, Clock::now()));
    if ((i + 1) % kAppendsPerSync != 0) continue;
    const auto sync_start = Clock::now();
    onex::Status synced = [&] {
      ScopedSpan span("server.replica.sync");
      return topo.syncer->SyncOnce();
    }();
    ledger->Attempt();
    if (!synced.ok()) {
      ledger->Fail("SYNC_" + std::string(onex::server::WireCode(
                                 synced.code())));
    }
    stats->syncs_s.push_back(SecondsBetween(sync_start, Clock::now()));
  }
  // One window per episode: appends per second of the writer's whole
  // episode, follower rounds included, so cut, fetch and publish cost
  // shows in the rate as it does to a user who writes and replicates.
  stats->appends.AddWindow(append_s,
                           SecondsBetween(writer_start, Clock::now()));
  stats->episode_seconds += SecondsBetween(start, Clock::now());
  writer_done = true;
  for (std::thread& t : readers) t.join();
  const auto metrics_after = ScrapeMetrics(port);
  stats->queue_wait_sum_s += MetricDelta(metrics_before, metrics_after,
                                         "onex_queue_wait_seconds_sum");
  stats->queue_wait_count += MetricDelta(metrics_before, metrics_after,
                                         "onex_queue_wait_seconds_count");
  for (size_t r = 0; r < kReaders; ++r) {
    stats->reads_s.insert(stats->reads_s.end(), read_s[r].begin(),
                          read_s[r].end());
    stats->reader_lateness_s.insert(stats->reader_lateness_s.end(),
                                    late_s[r].begin(), late_s[r].end());
    ledger->Merge(read_ledgers[r]);
  }
}

std::string FormatMs(const char* what, const std::vector<double>& s) {
  char line[160];
  const std::optional<double> p99 = Percentile(s, 99.0);
  std::snprintf(line, sizeof(line), "%s: p50 %.4f ms, p99 %s ms (n=%zu)",
                what, Median(s) * 1e3,
                p99 ? std::to_string(*p99 * 1e3).c_str() : "n/a", s.size());
  return line;
}

/// Runs episodes until the writer has been measured for `seconds` and
/// the append p99 has its samples (at most 3 x `seconds`); returns the
/// last episode's topology, still running.
std::unique_ptr<ReplicaPair> MeasureEpisodes(
    const RunConfig& config, const std::string& golden, double seconds,
    const std::vector<std::string>& appends,
    const std::vector<std::string>& reads, EpisodeStats* stats,
    FailureLedger* ledger, int* episodes) {
  uint64_t request_ids = 0;
  std::unique_ptr<ReplicaPair> topo;
  const size_t needed = SamplesNeededFor(99.0);
  auto more = [&] {
    const double measured = stats->episode_seconds;
    if (*episodes == 0 || measured < seconds) return true;
    return stats->appends.latencies_s.size() < needed &&
           measured < 3 * seconds;
  };
  static int serial = 0;  // Episode directories are never reused.
  while (more()) {
    if (topo != nullptr) {
      const std::string previous = topo->dir;
      topo.reset();
      std::error_code ec;
      fs::remove_all(previous, ec);
    }
    topo = StartTopology(golden, config.work_dir + "/episode" +
                                     std::to_string(serial++));
    RunEpisode(*topo, appends, reads, stats, ledger, &request_ids);
    ++*episodes;
  }
  return topo;
}

}  // namespace

WorkloadResult RunIngest(const RunConfig& config) {
  WorkloadResult result;
  const std::string golden = config.work_dir + "/golden";
  for (int r = 0; MoreSetups(result.setup_samples); ++r) {
    const std::string dir = config.work_dir + "/setup" + std::to_string(r);
    const auto start = Clock::now();
    MakeGolden(dir + "/golden");
    std::unique_ptr<ReplicaPair> topo = StartTopology(dir + "/golden", dir);
    result.setup_samples.push_back(SecondsBetween(start, Clock::now()));
    topo.reset();
    std::error_code ec;
    fs::remove_all(golden, ec);
    fs::rename(dir + "/golden", golden, ec);
    fs::remove_all(dir, ec);
  }
  result.setup_s = Median(result.setup_samples);

  const onex::Dataset fresh = MakeDataset(
      {kBase.generator, kAppendsPerEpisode, kBase.length},
      DeriveSeed(kCorpusSeed, 400));
  std::vector<std::string> appends;
  for (size_t i = 0; i < fresh.size(); ++i) {
    appends.push_back(onex::server::RenderAppendLine(
        {fresh[i].values(), fresh[i].label()}));
  }
  const onex::Engine base = BuildEngine(kBase, DeriveSeed(kCorpusSeed, 1));
  const onex::Dataset unseen = MakeDataset(
      {kBase.generator, 20, kBase.length}, DeriveSeed(config.seed, 401));
  const std::vector<onex::QueryRequest> queries =
      MakeQueries(base.dataset(), unseen, kBase, kReadMix, kReaderMixCycles,
                  DeriveSeed(config.seed, 402));
  std::vector<std::string> reads;
  for (const onex::QueryRequest& q : queries) {
    reads.push_back(onex::server::RenderRequestLine(q));
  }

  // Warm-up episode: not measured.
  {
    EpisodeStats warm;
    FailureLedger warm_ledger;
    int n = 0;
    MeasureEpisodes(config, golden, 0, appends, reads, &warm, &warm_ledger,
                    &n);
    result.ledger.Merge(warm_ledger);
  }

  EpisodeStats stats;
  int episodes = 0;
  std::unique_ptr<ReplicaPair> topo;
  if (!config.trace) {
    topo = MeasureEpisodes(config, golden, config.seconds, appends, reads,
                           &stats, &result.ledger, &episodes);
  } else {
    EpisodeStats untraced;
    int untraced_episodes = 0;
    MeasureEpisodes(config, golden, config.seconds / 2, appends, reads,
                    &untraced, &result.ledger, &untraced_episodes);
    Tracer::Get().Enable(true);
    topo = MeasureEpisodes(config, golden, config.seconds / 2, appends,
                           reads, &stats, &result.ledger, &episodes);
    NoteTracingOverhead(untraced.appends, stats.appends, &result.notes);
  }
  result.primary = stats.appends;
  result.notes.push_back("ingest: " + std::to_string(episodes) +
                         " episodes of " + std::to_string(appends.size()) +
                         " appends");
  result.notes.push_back(FormatMs("ingest appends", stats.appends.latencies_s));
  result.notes.push_back(FormatMs("ingest reads (from due time)",
                                  stats.reads_s));
  result.notes.push_back(FormatMs("ingest reader lateness",
                                  stats.reader_lateness_s));
  result.notes.push_back(FormatMs("ingest sync rounds", stats.syncs_s));

  // The follower, after the final sync, answers as the leader does.
  auto leader_engine = topo->leader_catalog->Acquire("ecg");
  auto follower_engine = topo->follower_catalog->Acquire("ecg");
  if (!leader_engine.ok() || !follower_engine.ok()) {
    Die("final engines unavailable");
  }
  const size_t expected_series = kBase.series + appends.size();
  std::vector<std::vector<std::string>> leader_answers;
  for (size_t i = 0; i < kCheckedQueries; ++i) {
    leader_answers.push_back(
        ExpectedPayload(*leader_engine.value(), queries[i]));
  }
  auto check = [&](const onex::Engine& engine, const char* who) {
    result.ledger.Attempt();
    bool same = engine.num_series() == expected_series;
    for (size_t i = 0; same && i < kCheckedQueries; ++i) {
      same = ExpectedPayload(engine, queries[i]) == leader_answers[i];
    }
    if (!same) {
      result.ledger.Fail(kWrongAnswer);
      result.correct = false;
      result.notes.push_back(std::string("ingest: ") + who +
                             " does not answer as the leader");
    }
  };
  check(*leader_engine.value(), "leader");
  check(*follower_engine.value(), "follower");

  // Recovery: reopen fresh copies of the final data directory.
  topo->leader->Stop();
  const double recovery_s = MedianRecoverySeconds(
      topo->leader_dir(), "ecg", config.work_dir,
      [&](const onex::Engine& recovered) {
        check(recovered, "recovered leader");
      });
  char line[128];
  std::snprintf(line, sizeof(line), "ingest recovery: %.4f s (median of 3)",
                recovery_s);
  result.notes.push_back(line);
  topo.reset();

  if (config.trace) {
    ProbeInput probe;
    probe.engine = &base;
    probe.spec = kBase;
    probe.data_seed = DeriveSeed(kCorpusSeed, 1);
    probe.requests = queries;
    for (size_t i = 0; i < fresh.size(); ++i) probe.appends.push_back(fresh[i]);
    probe.appends_per_cut = kAppendsPerSync;
    RunLayerProbes(probe, config, &result.per_layer);

    // Router hop and server overhead on the readers' requests, on a
    // fresh leader at the base state.
    std::unique_ptr<ReplicaPair> hop =
        StartTopology(golden, config.work_dir + "/hop");
    RunRouterProbe(base, {hop->leader->port()}, hop->leader->port(), "ecg",
                   queries, 32, &result.per_layer);
    result.per_layer.push_back(
        QueueWaitMetric(stats.queue_wait_sum_s, stats.queue_wait_count));
  }
  return result;
}

}  // namespace perfbench
