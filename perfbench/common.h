// Copyright 2026 The ONEX Reproduction Authors.
// Pieces the three workloads share: seeded data and query generation,
// wire helpers, the layer probes of a traced run, and the run report.

#ifndef ONEX_PERFBENCH_COMMON_H_
#define ONEX_PERFBENCH_COMMON_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "dataset/dataset.h"
#include "harness.h"
#include "server/catalog.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/replica.h"
#include "server/server.h"

namespace perfbench {

/// Command-line settings of one run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  ///< Scratch directory owned by this run.
  std::string out_dir;   ///< Where trace files go.
};

/// A seeded generator dataset and the ONEX base built over it.
struct BaseSpec {
  std::string generator;
  size_t series = 0;
  size_t length = 0;
  size_t min_length = 8;
  size_t step = 8;
  double st = 0.2;
};

/// Seed of the fixed corpus: the served bases and the ingest append
/// sequence are the same in every run, as the paper's UCR datasets are;
/// the run's --seed drives the workload over them (query samples,
/// unseen series, session order). Changing the corpus would change what
/// every recorded number means.
inline constexpr uint64_t kCorpusSeed = 2016;

/// Prints `what` and exits non-zero: for set-up failures and broken
/// invariants, after which no number of the run would mean anything.
[[noreturn]] void Die(const std::string& what);

/// Whether a run should set its topology up once more: at least 5
/// times, and until 1 s of set-up is measured (at most 40 times), so a
/// cheap set-up's median has samples enough. setup_s is their median.
bool MoreSetups(const std::vector<double>& samples);

/// Derives an independent 64-bit stream seed from a seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// MinMax-normalized generator output (Sec. 6.1 preprocessing).
onex::Dataset MakeDataset(const BaseSpec& spec, uint64_t seed);

/// Builds the base over MakeDataset(spec, seed). Exits on failure: a
/// base that cannot be built is a broken benchmark, not a data point.
onex::Engine BuildEngine(const BaseSpec& spec, uint64_t seed);

/// The query lengths of the base's grid.
std::vector<size_t> LengthGrid(const BaseSpec& spec);

/// Shares of each query kind in a generated mix, in percent.
struct QueryMix {
  int q1_exact = 0;
  int q1_any = 0;
  int q1k = 0;
  int q2 = 0;
  int q3 = 0;
};

/// Seeded requests against `data`, stratified so that every seed draws
/// the same mix: each cycle holds every (kind slot, grid length, source)
/// combination exactly once, in seeded order. Kinds fill the slots in
/// proportion to `mix`; the source alternates Sec. 6.2.1's halves — a
/// subsequence cut from `data`, or from `unseen` (same generator, other
/// seed). Only the series and offset of each cut are random.
std::vector<onex::QueryRequest> MakeQueries(const onex::Dataset& data,
                                            const onex::Dataset& unseen,
                                            const BaseSpec& spec,
                                            const QueryMix& mix,
                                            size_t cycles, uint64_t seed);

/// Connects to 127.0.0.1:port; exits on failure (set-up only).
onex::server::Client ConnectOrDie(uint16_t port);

/// Sends one line and classifies the outcome into `ledger` (one attempt;
/// a transport error or ERR reply is a failure by its code). Returns the
/// reply on success.
std::optional<onex::server::WireResponse> Call(onex::server::Client& client,
                                               const std::string& line,
                                               FailureLedger* ledger);

/// Submits `request` tagged, with progress frames requested (and
/// discarded), and waits for its final reply block.
onex::Result<onex::server::WireResponse> SubmitAndWait(
    onex::server::Client& client, const onex::QueryRequest& request);

/// The payload lines the engine's own answer renders to — what a wire
/// reply to the same request must carry byte for byte.
std::vector<std::string> ExpectedPayload(const onex::Engine& engine,
                                         const onex::QueryRequest& request);

/// One METRICS scrape flattened to sample name -> value.
std::map<std::string, double> ScrapeMetrics(uint16_t port);

/// after[name] - before[name], summed over every sample whose name
/// starts with `prefix` (so labelled series add up).
double MetricDelta(const std::map<std::string, double>& before,
                   const std::map<std::string, double>& after,
                   const std::string& prefix);

// ------------------------------------------------------------ topology

/// A durable leader node over `<dir>/leader` and a read-only follower
/// catalog over `<dir>/follower`, kept in step by a ReplicaSyncer that
/// has run its bootstrap round. sync_appends stays on, as shipped.
struct ReplicaPair {
  std::string dir;
  std::shared_ptr<onex::server::Catalog> leader_catalog;
  std::unique_ptr<onex::server::Server> leader;
  std::shared_ptr<onex::server::Catalog> follower_catalog;
  std::unique_ptr<onex::server::ReplicaSyncer> syncer;

  std::string leader_dir() const { return dir + "/leader"; }
  std::string follower_dir() const { return dir + "/follower"; }
  ~ReplicaPair();
};

/// Starts a ReplicaPair in `dir`. `populate` registers the leader's
/// datasets (a no-op when `<dir>/leader` already holds them).
std::unique_ptr<ReplicaPair> StartReplicaPair(
    const std::string& dir, size_t leader_workers,
    const std::function<void(onex::server::Catalog&)>& populate);

/// Reopens 3 fresh copies (made under `scratch`) of durable dataset
/// `name` in `dir`, timing each DurableEngine::Open; `check` sees every
/// recovered engine. Returns the median seconds.
double MedianRecoverySeconds(
    const std::string& dir, const std::string& name,
    const std::string& scratch,
    const std::function<void(const onex::Engine&)>& check);

// ------------------------------------------------------------- results

/// One completed operation of a measured phase.
struct OpSample {
  double done_s = 0;     ///< Completion, seconds since the phase began.
  double latency_s = 0;
};

/// Latency and throughput of one operation class. Throughput and p50
/// are medians over measurement windows, so a brief stall of the machine
/// moves one window, not the run; the p99 pools every sample.
struct OpStats {
  std::vector<double> latencies_s;   ///< Every op (the p99's samples).
  std::vector<double> window_rates;  ///< Ops per second, one per window.
  std::vector<double> window_p50s_s; ///< Median latency, one per window.

  /// Adds one window: its ops' latencies over `seconds` of measurement.
  void AddWindow(const std::vector<double>& latencies, double seconds);
  /// Splits a closed-loop phase into `windows` runs of consecutive
  /// completions; a window's rate is its op count over the time from
  /// the previous window's last completion to its own.
  void AddPhase(std::vector<OpSample> samples, size_t windows);
};

/// What a workload hands back: e2e numbers, accounting, correctness.
struct WorkloadResult {
  OpStats primary;      ///< The op behind ops_per_s / op_p50 / op_p99.
  double setup_s = 0;   ///< Median of the repeated set-ups.
  std::vector<double> setup_samples;
  FailureLedger ledger;
  bool correct = true;
  std::vector<std::string> notes;   ///< Human-readable summary lines.
  std::vector<Metric> per_layer;    ///< Filled by traced runs only.
};

/// ops_per_s, op_p50_ms, op_p99_ms (StretchPercentile), setup_s,
/// peak_rss_mb. Missing
/// samples (or too few for a p99) make `*complete` false.
std::vector<Metric> EndToEndMetrics(const WorkloadResult& result,
                                    bool* complete);

/// What one connection thread of a closed-loop phase sees and records.
class LoopThread {
 public:
  LoopThread(Clock::time_point start, const std::atomic<bool>* stop,
             std::atomic<size_t>* completed,
             std::atomic<uint64_t>* request_ids)
      : start_(start), stop_(stop), completed_(completed),
        request_ids_(request_ids) {}

  /// True once the phase has what it needs; the body should return.
  bool stopped() const { return stop_->load(std::memory_order_relaxed); }
  /// A request id unique within the phase, for spans.
  uint64_t NextRequestId() { return ++*request_ids_; }
  /// Records one op sent at `sent` that completed now; returns its
  /// latency in seconds.
  double Completed(Clock::time_point sent);

  FailureLedger ledger;
  std::vector<OpSample> samples;

 private:
  Clock::time_point start_;
  const std::atomic<bool>* stop_;
  std::atomic<size_t>* completed_;
  std::atomic<uint64_t>* request_ids_;
};

/// One closed-loop phase: runs `body(c, thread)` on `connections`
/// threads until `seconds` have passed and the p99 has its samples
/// (within 3 x `seconds`), merges their ledgers into `ledger`, and
/// splits the completions into measurement windows.
OpStats RunClosedLoop(size_t connections, double seconds,
                      const std::function<void(size_t, LoopThread&)>& body,
                      FailureLedger* ledger);

// --------------------------------------------------------- layer probes

/// Inputs of the layer probes a traced run adds on the workload's data.
struct ProbeInput {
  const onex::Engine* engine = nullptr;   ///< The workload's served base.
  BaseSpec spec;
  uint64_t data_seed = 0;                 ///< Rebuilds a private twin.
  std::vector<onex::QueryRequest> requests;
  std::vector<onex::TimeSeries> appends;  ///< Seeded new series.
  size_t appends_per_cut = 4;
};

/// distance.*, core.* (counts and stage times from QueryStats),
/// api.execute_p50_ms / p99_ms, router.merge_ms, core.append_ms, and the
/// storage.* and server.replica_* probes on a private durable twin with
/// a follower. Appends the metrics to `out`.
void RunLayerProbes(const ProbeInput& input, const RunConfig& config,
                    std::vector<Metric>* out);

/// Router probe: each request back to back in process on `engine`,
/// directly on the node at `node_port` that serves it as `dataset`, and
/// through a router in front of `upstream_ports`; then one session of
/// tagged queries for the VmSize growth. Adds server.overhead_ms
/// (median direct - in-process), router.hop_p50_ms (median routed -
/// direct), router.legs_per_query, vm_growth_kb_per_query, failovers.
void RunRouterProbe(const onex::Engine& engine,
                    const std::vector<uint16_t>& upstream_ports,
                    uint16_t node_port, const std::string& dataset,
                    const std::vector<onex::QueryRequest>& requests,
                    size_t session_queries, std::vector<Metric>* out);

/// server.queue_wait_ms: mean of a node's onex_queue_wait_seconds
/// (sum and count deltas of its METRICS).
Metric QueueWaitMetric(double queue_wait_sum_s, double queue_wait_count);

/// Appends "tracing overhead <metric>: untraced -> traced" lines for the
/// end-to-end metrics of the two halves of a traced run.
void NoteTracingOverhead(const OpStats& untraced, const OpStats& traced,
                         std::vector<std::string>* notes);

// ------------------------------------------------------------ utilities

/// Recursively copies directory `from` to `to` (which must not exist).
void CopyDir(const std::string& from, const std::string& to);

/// Bytes of every regular file under `dir`, by file name.
std::map<std::string, uint64_t> FileSizes(const std::string& dir);

}  // namespace perfbench

#endif  // ONEX_PERFBENCH_COMMON_H_
