// The QueryResponse-v2 / protocol-v4 redesign, tested across the stack:
//
//   - compile-time exhaustiveness of the typed payload and progress
//     variants (a new alternative cannot ship without a visitor arm,
//     a shape mapping, and a wire rendering);
//   - engine-level streaming for the NEW shapes: Seasonal queries emit
//     GroupProgress, Recommend queries emit RecommendProgress, and
//     interruption hands back a right-shaped partial payload;
//   - wire-vs-direct parity for the v4 PART GROUP / PART REC frame
//     variants (payload lines byte-identical to final-block rows);
//   - end-to-end: a progress=1 q2 / q3 over TCP receives typed PART
//     frames before the final reply;
//   - v3 byte-compatibility: golden-byte regression over every render
//     path a v3 session can observe, plus a live v3-style session that
//     must never see a v4-only token;
//   - earliest-deadline-first worker dispatch and the deadline_miss
//     metric (ROADMAP item riding along with the redesign).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "api/engine.h"
#include "core/exec_context.h"
#include "core/inflight.h"
#include "datagen/generators.h"
#include "dataset/normalize.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace onex {
namespace {

using server::ParseKeyValues;
using server::ParseResponseBlock;
using server::RenderCancelLine;
using server::RenderError;
using server::RenderPartBlock;
using server::RenderRequestLine;
using server::RenderResponse;
using server::RequestAttrs;
using server::WireResponse;

// ------------------------------------------- compile-time contracts

// The payload and progress variants must stay in lockstep with the
// PayloadShape discriminator and the QueryKind set; these asserts (and
// the exhaustive Visit calls below, which fail to COMPILE if an
// alternative is missing a handler) are the "visitor exhaustiveness"
// guarantee of the redesign.
static_assert(std::variant_size_v<QueryPayload> == 4,
              "QueryPayload gained/lost an alternative — update "
              "PayloadShape, EmptyPayloadOf, RenderResponse, and the "
              "accessors together");
static_assert(std::variant_size_v<ProgressPayload> == 3,
              "ProgressPayload gained/lost an alternative — update the "
              "PART frame variants and every progress visitor");
static_assert(std::variant_size_v<QueryRequest> ==
                  static_cast<size_t>(QueryKind::kRefineThreshold) + 1,
              "QueryKind and QueryRequest diverged");
static_assert(static_cast<size_t>(PayloadShape::kRefine) + 1 ==
                  std::variant_size_v<QueryPayload>,
              "PayloadShape and QueryPayload diverged");

TEST(TypedPayloadTest, ShapeOfAndEmptyPayloadAgreeForEveryKind) {
  for (size_t i = 0; i < std::variant_size_v<QueryRequest>; ++i) {
    const QueryKind kind = static_cast<QueryKind>(i);
    const QueryPayload payload = EmptyPayloadOf(kind);
    // The payload's variant index must equal the shape discriminator.
    EXPECT_EQ(payload.index(), static_cast<size_t>(ShapeOf(kind)))
        << ToString(kind);
  }
  EXPECT_EQ(ShapeOf(QueryKind::kBestMatch), PayloadShape::kMatch);
  EXPECT_EQ(ShapeOf(QueryKind::kKSimilar), PayloadShape::kMatch);
  EXPECT_EQ(ShapeOf(QueryKind::kRangeWithin), PayloadShape::kMatch);
  EXPECT_EQ(ShapeOf(QueryKind::kSeasonal), PayloadShape::kGroup);
  EXPECT_EQ(ShapeOf(QueryKind::kRecommend), PayloadShape::kRecommend);
  EXPECT_EQ(ShapeOf(QueryKind::kRefineThreshold), PayloadShape::kRefine);
}

TEST(TypedPayloadTest, VisitIsExhaustiveAndReachesTheRightAlternative) {
  QueryResponse response;
  response.kind = QueryKind::kSeasonal;
  response.payload = SeasonalResult{{{{0, 1, 8}, {0, 9, 8}}}};
  // One handler per alternative; omitting any of the four would not
  // compile, which is the point.
  const PayloadShape seen = response.Visit(
      [](const MatchResult&) { return PayloadShape::kMatch; },
      [](const SeasonalResult&) { return PayloadShape::kGroup; },
      [](const RecommendResult&) { return PayloadShape::kRecommend; },
      [](const RefineResult&) { return PayloadShape::kRefine; });
  EXPECT_EQ(seen, PayloadShape::kGroup);
  EXPECT_EQ(response.groups().size(), 1u);
  // Shape-checked accessors hard-fail on confusion instead of silently
  // returning an empty parallel vector (the v1 failure mode).
  EXPECT_THROW(response.matches(), std::bad_variant_access);
  EXPECT_THROW(response.recommendations(), std::bad_variant_access);
}

// ------------------------------------------------ engine streaming

/// A dataset where every series has an identical twin, so same-length
/// windows are guaranteed to cluster into multi-member groups — both
/// Q2 modes always have something to return and to stream.
Engine BuildClusteredEngine(size_t series = 8, size_t days = 64) {
  GenOptions gen;
  gen.num_series = series;
  gen.length = days;
  gen.seed = 5;
  Dataset walks = MakeRandomWalk(gen);
  Dataset data("clustered");
  for (size_t i = 0; i < walks.size(); ++i) {
    data.Add(walks[i]);
    data.Add(walks[i]);
  }
  MinMaxNormalize(&data);
  OnexOptions options;
  options.st = 0.2;
  options.lengths = {8, 0, 8};
  auto built = Engine::Build(std::move(data), options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

TEST(TypedPayloadTest, SeasonalProgressStreamsGroupsCoveringTheAnswer) {
  const Engine engine = BuildClusteredEngine();
  ExecContext ctx;
  size_t events = 0;
  size_t streamed = 0;
  double last_fraction = 0.0;
  ctx.progress = [&](const ProgressEvent& event) {
    ++events;
    streamed += event.groups().size();  // Throws if wrongly shaped.
    EXPECT_FALSE(event.snapshot);       // Group scans append.
    EXPECT_GE(event.work_fraction, last_fraction);
    last_fraction = event.work_fraction;
  };
  auto response = engine.Execute(SeasonalRequest{std::nullopt, 8}, ctx);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response.value().partial);
  ASSERT_GT(response.value().groups().size(), 0u);
  EXPECT_GT(events, 0u);
  // Every group of the final answer was streamed exactly once.
  EXPECT_EQ(streamed, response.value().groups().size());
}

TEST(TypedPayloadTest, InterruptedSeasonalReturnsPartialGroups) {
  const Engine engine = BuildClusteredEngine();
  auto full = engine.Execute(SeasonalRequest{std::nullopt, 8},
                             ExecContext{});
  ASSERT_TRUE(full.ok());
  const size_t all_groups = full.value().groups().size();
  ASSERT_GT(all_groups, 1u);

  ExecContext ctx;
  ctx.check_every = 1;
  CancelToken token = ctx.cancel;
  size_t events = 0;
  ctx.progress = [&](const ProgressEvent& event) {
    (void)event;
    if (++events == 1) token.Cancel();  // Abort after the first group.
  };
  auto partial = engine.Execute(SeasonalRequest{std::nullopt, 8}, ctx);
  ASSERT_TRUE(partial.ok());
  EXPECT_TRUE(partial.value().partial);
  EXPECT_EQ(partial.value().interrupt, Status::Code::kCancelled);
  // Right-shaped, holding the confirmed prefix of the full answer.
  EXPECT_GE(partial.value().groups().size(), 1u);
  EXPECT_LT(partial.value().groups().size(), all_groups);
  for (size_t i = 0; i < partial.value().groups().size(); ++i) {
    EXPECT_EQ(partial.value().groups()[i], full.value().groups()[i]);
  }
}

TEST(TypedPayloadTest, RecommendProgressStreamsOneRowPerDegree) {
  const Engine engine = BuildClusteredEngine();
  ExecContext ctx;
  std::vector<Recommendation> streamed;
  ctx.progress = [&](const ProgressEvent& event) {
    for (const Recommendation& row : event.rows()) streamed.push_back(row);
    EXPECT_FALSE(event.snapshot);
  };
  auto response =
      engine.Execute(RecommendRequest{std::nullopt, size_t{0}}, ctx);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response.value().partial);
  ASSERT_EQ(response.value().recommendations().size(), 3u);
  ASSERT_EQ(streamed.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(streamed[i].degree,
              response.value().recommendations()[i].degree);
    EXPECT_DOUBLE_EQ(streamed[i].st_low,
                     response.value().recommendations()[i].st_low);
  }
}

TEST(TypedPayloadTest, InterruptedRecommendReturnsPartialRows) {
  const Engine engine = BuildClusteredEngine();
  ExecContext ctx;
  CancelToken token = ctx.cancel;
  ctx.progress = [&](const ProgressEvent& event) {
    (void)event;
    token.Cancel();  // After the first streamed row.
  };
  auto partial =
      engine.Execute(RecommendRequest{std::nullopt, size_t{0}}, ctx);
  ASSERT_TRUE(partial.ok());
  EXPECT_TRUE(partial.value().partial);
  EXPECT_EQ(partial.value().interrupt, Status::Code::kCancelled);
  ASSERT_EQ(partial.value().recommendations().size(), 1u);
  EXPECT_EQ(partial.value().recommendations()[0].degree,
            SimilarityDegree::kStrict);
}

TEST(TypedPayloadTest, ImmediatelyInterruptedResponsesAreRightShaped) {
  const Engine engine = BuildClusteredEngine(4, 32);
  ExecContext ctx;
  ctx.cancel.Cancel();
  const QueryRequest requests[] = {
      QueryRequest(BestMatchRequest{{0.1, 0.5}, 0}),
      QueryRequest(SeasonalRequest{std::nullopt, 8}),
      QueryRequest(RecommendRequest{std::nullopt, size_t{0}}),
      QueryRequest(RefineThresholdRequest{0.1, 0}),
  };
  for (const QueryRequest& request : requests) {
    auto response = engine.Execute(request, ctx);
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response.value().partial);
    EXPECT_EQ(response.value().payload.index(),
              static_cast<size_t>(ShapeOf(KindOf(request))));
  }
}

// ------------------------------------- wire-vs-direct PART parity

std::vector<std::string> SplitLines(const std::string& block) {
  std::vector<std::string> lines;
  std::istringstream in(block);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Runs `request` with a sink that renders every event as the typed
/// PART block (exactly what the CLI prints and the server streams),
/// parses each block back, and appends the parsed frames to *frames.
void StreamAsFrames(const Engine& engine, const QueryRequest& request,
                    std::vector<WireResponse>* frames,
                    QueryResponse* final_response) {
  ExecContext ctx;
  uint64_t seq = 0;
  const QueryKind kind = KindOf(request);
  ctx.progress = [&](const ProgressEvent& event) {
    auto parsed =
        ParseResponseBlock(SplitLines(RenderPartBlock(kind, 7, seq++,
                                                      event)));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    frames->push_back(std::move(parsed).value());
  };
  auto response = engine.Execute(request, ctx);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  *final_response = std::move(response).value();
}

TEST(PartVariantParityTest, GroupFramesMatchFinalBlockByteForByte) {
  const Engine engine = BuildClusteredEngine();
  QueryResponse final_response;
  std::vector<WireResponse> frames;
  StreamAsFrames(engine, SeasonalRequest{std::nullopt, 8}, &frames,
                 &final_response);
  ASSERT_GT(frames.size(), 0u);

  std::vector<std::string> streamed_lines;
  for (const WireResponse& frame : frames) {
    EXPECT_TRUE(frame.ok);
    EXPECT_TRUE(frame.part);
    EXPECT_EQ(frame.part_shape(), PayloadShape::kGroup);
    EXPECT_EQ(frame.kind, server::kPartGroupToken);
    EXPECT_EQ(frame.id(), 7u);
    EXPECT_EQ(frame.header.at("groups"),
              std::to_string(frame.payload.size()));
    for (const std::string& line : frame.payload) {
      EXPECT_EQ(line.rfind("group ", 0), 0u);
      streamed_lines.push_back(line);
    }
  }
  // The streamed group lines are byte-identical to the final reply's
  // payload rows: one render path, partial or final.
  const auto final_lines = SplitLines(RenderResponse(final_response));
  // final_lines = header, stats, group..., ".".
  ASSERT_EQ(final_lines.size(), streamed_lines.size() + 3);
  for (size_t i = 0; i < streamed_lines.size(); ++i) {
    EXPECT_EQ(streamed_lines[i], final_lines[i + 2]);
  }
}

TEST(PartVariantParityTest, RecFramesMatchFinalBlockByteForByte) {
  const Engine engine = BuildClusteredEngine();
  QueryResponse final_response;
  std::vector<WireResponse> frames;
  StreamAsFrames(engine, RecommendRequest{std::nullopt, size_t{0}}, &frames,
                 &final_response);
  ASSERT_EQ(frames.size(), 3u);

  std::vector<std::string> streamed_lines;
  for (const WireResponse& frame : frames) {
    EXPECT_TRUE(frame.part);
    EXPECT_EQ(frame.part_shape(), PayloadShape::kRecommend);
    EXPECT_EQ(frame.kind, server::kPartRecToken);
    EXPECT_EQ(frame.header.at("rows"), "1");
    for (const std::string& line : frame.payload) {
      EXPECT_EQ(line.rfind("recommend ", 0), 0u);
      streamed_lines.push_back(line);
    }
  }
  const auto final_lines = SplitLines(RenderResponse(final_response));
  ASSERT_EQ(final_lines.size(), streamed_lines.size() + 3);
  for (size_t i = 0; i < streamed_lines.size(); ++i) {
    EXPECT_EQ(streamed_lines[i], final_lines[i + 2]);
  }
}

TEST(PartVariantParityTest, MatchFramesKeepTheV3HeaderSpelling) {
  const Engine engine = BuildClusteredEngine();
  QueryResponse final_response;
  std::vector<WireResponse> frames;
  std::vector<double> sketch(12, 0.5);
  StreamAsFrames(engine, RangeWithinRequest{sketch, 0.3, 0, /*exact=*/true},
                 &frames, &final_response);
  ASSERT_GT(frames.size(), 0u);
  for (const WireResponse& frame : frames) {
    EXPECT_EQ(frame.part_shape(), PayloadShape::kMatch);
    EXPECT_EQ(frame.kind, "RangeWithin");  // Not MATCH: v3 bytes.
  }
}

// -------------------------------------------------- wire end-to-end

class TypedPartServerTest : public ::testing::Test {
 protected:
  void StartServer(server::ServerOptions options) {
    catalog_ = std::make_shared<server::Catalog>(server::CatalogOptions{});
    catalog_->Register("clustered", BuildClusteredEngine());
    auto started = server::Server::Start(std::move(options), catalog_);
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    server_ = std::move(started).value();
  }

  server::Client Connect() {
    auto client = server::Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  /// A one-worker server that parks its first job until ReleaseGate()
  /// and records the dataset of every job it starts, in run order. The
  /// order is read on the server, so how fast each client thread wakes
  /// up on its reply cannot blur it. Serves "clustered" and "far".
  void StartGatedServer() {
    server::ServerOptions options;
    options.num_workers = 1;
    options.max_queue = 8;
    options.on_job_start = [this] {
      std::unique_lock<std::mutex> lock(gate_mutex_);
      // One worker: the only in-flight row is the job starting now.
      const auto rows = InflightRegistry::Global().Snapshot(nullptr);
      for (const InflightRow& row : rows) started_.push_back(row.dataset);
      if (!gate_armed_) return;
      gate_armed_ = false;
      gate_cv_.wait(lock, [this] { return released_; });
    };
    options.on_enqueue = [this](size_t) { enqueued_.fetch_add(1); };
    StartServer(options);
    catalog_->Register("far", BuildClusteredEngine());
  }

  /// Blocks until `n` jobs have been enqueued.
  void AwaitEnqueued(size_t n) {
    while (enqueued_.load() < n) std::this_thread::yield();
  }

  void ReleaseGate() {
    {
      std::lock_guard<std::mutex> lock(gate_mutex_);
      released_ = true;
    }
    gate_cv_.notify_all();
  }

  std::vector<std::string> StartedDatasets() {
    std::lock_guard<std::mutex> lock(gate_mutex_);
    return started_;
  }

  std::shared_ptr<server::Catalog> catalog_;
  std::unique_ptr<server::Server> server_;

 private:
  std::mutex gate_mutex_;
  std::condition_variable gate_cv_;
  bool gate_armed_ = true;
  bool released_ = false;
  std::vector<std::string> started_;
  std::atomic<size_t> enqueued_{0};
};

TEST_F(TypedPartServerTest, SeasonalProgressStreamsPartGroupFrames) {
  StartServer(server::ServerOptions{});
  server::Client client = Connect();
  ASSERT_TRUE(client.Roundtrip("use clustered").ok());

  std::mutex mutex;
  std::vector<WireResponse> frames;
  server::Client::SubmitOptions submit;
  submit.on_progress = [&](const WireResponse& frame) {
    std::lock_guard<std::mutex> lock(mutex);
    frames.push_back(frame);
  };
  auto handle =
      client.Submit(QueryRequest(SeasonalRequest{std::nullopt, 8}), submit);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  auto final = handle.value().Wait();
  ASSERT_TRUE(final.ok()) << final.status().ToString();
  ASSERT_TRUE(final.value().ok) << final.value().message;
  EXPECT_FALSE(final.value().partial());
  EXPECT_EQ(final.value().kind, "Seasonal");

  std::lock_guard<std::mutex> lock(mutex);
  ASSERT_GT(frames.size(), 0u);  // Typed frames arrived before the final.
  size_t streamed = 0;
  for (const WireResponse& frame : frames) {
    EXPECT_EQ(frame.part_shape(), PayloadShape::kGroup);
    for (const std::string& line : frame.payload) {
      EXPECT_EQ(line.rfind("group ", 0), 0u);
    }
    streamed += frame.payload.size();
  }
  // Streamed groups never exceed the final answer (the 20ms frame
  // throttle may leave a tail unstreamed; the final reply carries the
  // complete set either way, exactly as v3 match streams behave).
  EXPECT_GE(streamed, 1u);
  EXPECT_LE(streamed, std::stoull(final.value().header.at("groups")));
}

TEST_F(TypedPartServerTest, RecommendProgressStreamsPartRecFrames) {
  StartServer(server::ServerOptions{});
  server::Client client = Connect();
  ASSERT_TRUE(client.Roundtrip("use clustered").ok());

  std::mutex mutex;
  std::vector<WireResponse> frames;
  server::Client::SubmitOptions submit;
  submit.on_progress = [&](const WireResponse& frame) {
    std::lock_guard<std::mutex> lock(mutex);
    frames.push_back(frame);
  };
  auto handle = client.Submit(
      QueryRequest(RecommendRequest{std::nullopt, size_t{0}}), submit);
  ASSERT_TRUE(handle.ok());
  auto final = handle.value().Wait();
  ASSERT_TRUE(final.ok());
  ASSERT_TRUE(final.value().ok) << final.value().message;
  EXPECT_EQ(final.value().header.at("rows"), "3");

  std::lock_guard<std::mutex> lock(mutex);
  ASSERT_GT(frames.size(), 0u);
  size_t rows = 0;
  for (const WireResponse& frame : frames) {
    EXPECT_EQ(frame.part_shape(), PayloadShape::kRecommend);
    for (const std::string& line : frame.payload) {
      EXPECT_EQ(line.rfind("recommend ", 0), 0u);
      ++rows;
    }
  }
  // At least the first degree streams ahead of the final; the frame
  // throttle may batch-and-drop the tail (the final carries all 3).
  EXPECT_GE(rows, 1u);
  EXPECT_LE(rows, 3u);
}

// ------------------------------------------ v3 byte compatibility

// Golden bytes for every render path a v3 session observes. These are
// the exact v3 wire bytes; any drift here is a compatibility break, not
// a formatting nit. (The greeting's version token and the `help` text
// are the two deliberate v4 differences; both are asserted separately.)
TEST(V3ByteCompatTest, FinalReplyBlocksRenderV3Bytes) {
  QueryResponse response;
  response.kind = QueryKind::kBestMatch;
  response.payload = MatchResult{{QueryMatch{{2, 3, 8}, 0.125, 4, false}}};
  response.stats.lengths_scanned = 1;
  response.stats.reps_compared = 2;
  response.latency_seconds = 152e-6;
  EXPECT_EQ(RenderResponse(response, 7),
            "OK BestMatch id=7 matches=1 latency_us=152\n"
            "stats lengths_scanned=1 reps_compared=2 reps_pruned=0 "
            "members_compared=0 lemma2_admitted=0\n"
            "match series=2 start=3 length=8 distance=0.125 group=4 "
            "bound=0\n"
            ".\n");

  QueryResponse partial;
  partial.kind = QueryKind::kRangeWithin;
  partial.partial = true;
  partial.interrupt = Status::Code::kCancelled;
  EXPECT_EQ(RenderResponse(partial, 9),
            "OK RangeWithin id=9 matches=0 latency_us=0 partial=1 "
            "interrupt=CANCELLED\n"
            "stats lengths_scanned=0 reps_compared=0 reps_pruned=0 "
            "members_compared=0 lemma2_admitted=0\n"
            ".\n");

  QueryResponse seasonal;
  seasonal.kind = QueryKind::kSeasonal;
  seasonal.payload = SeasonalResult{{{{0, 4, 8}, {1, 8, 8}}}};
  EXPECT_EQ(RenderResponse(seasonal),
            "OK Seasonal groups=1 latency_us=0\n"
            "stats lengths_scanned=0 reps_compared=0 reps_pruned=0 "
            "members_compared=0 lemma2_admitted=0\n"
            "group size=2 refs=0:4:8,1:8:8\n"
            ".\n");
}

TEST(V3ByteCompatTest, MatchPartFramesRenderV3Bytes) {
  const QueryMatch match{{2, 3, 8}, 0.125, 4, true};
  EXPECT_EQ(RenderPartBlock(QueryKind::kRangeWithin, 7, 2, 0.5, false,
                            std::span<const QueryMatch>(&match, 1)),
            "PART RangeWithin id=7 seq=2 frac=0.500 snapshot=0 matches=1\n"
            "match series=2 start=3 length=8 distance=0.125 group=4 "
            "bound=1\n"
            ".\n");
  EXPECT_EQ(RenderPartBlock(QueryKind::kBestMatch, 3, 0, 1.0, true,
                            std::span<const QueryMatch>(&match, 1)),
            "PART BestMatch id=3 seq=0 frac=1.000 snapshot=1 matches=1\n"
            "match series=2 start=3 length=8 distance=0.125 group=4 "
            "bound=1\n"
            ".\n");
}

TEST(V3ByteCompatTest, ErrorAndRequestLinesRenderV3Bytes) {
  EXPECT_EQ(RenderError(Status::DeadlineExceeded("query deadline exceeded"),
                        12),
            "ERR DEADLINE_EXCEEDED id=12 query deadline exceeded\n.\n");
  RequestAttrs attrs;
  attrs.id = 7;
  attrs.deadline_ms = 250;
  attrs.progress = true;
  const QueryRequest request =
      RangeWithinRequest{{0.125, 0.5}, 0.25, 0, false};
  EXPECT_EQ(RenderRequestLine(request, attrs),
            "id=7 deadline_ms=250 progress=1 q1r 0.25 any 0.125,0.5 bound");
  EXPECT_EQ(RenderCancelLine(7), "cancel 7");
  // The greeting's version token is the one deliberate difference a v3
  // client sees at connect time (one-sided negotiation, as v3 did to
  // v2 sessions before).
  EXPECT_EQ(server::Greeting(), "ONEX/8 ready\n");
}

TEST_F(TypedPartServerTest, V3StyleSessionSeesNoV4Tokens) {
  // A live v3-style session: tagged, deadline-bounded, progress-
  // streaming match query plus cancel-after-completion — the full v3
  // feature surface. Every block it receives must be v3 grammar:
  // match-shaped PART frames under the v3 `PART <Kind>` spelling,
  // never a GROUP/REC token.
  StartServer(server::ServerOptions{});
  server::Client client = Connect();
  ASSERT_TRUE(client.Roundtrip("use clustered").ok());

  std::mutex mutex;
  std::vector<WireResponse> frames;
  server::Client::SubmitOptions submit;
  submit.deadline_ms = 600000;
  submit.on_progress = [&](const WireResponse& frame) {
    std::lock_guard<std::mutex> lock(mutex);
    frames.push_back(frame);
  };
  std::vector<double> sketch(12, 0.5);
  auto handle = client.Submit(
      QueryRequest(RangeWithinRequest{sketch, 0.3, 0, /*exact=*/true}),
      submit);
  ASSERT_TRUE(handle.ok());
  auto final = handle.value().Wait();
  ASSERT_TRUE(final.ok());
  ASSERT_TRUE(final.value().ok) << final.value().message;
  EXPECT_EQ(final.value().kind, "RangeWithin");
  EXPECT_FALSE(final.value().partial());

  {
    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_GT(frames.size(), 0u);
    for (const WireResponse& frame : frames) {
      EXPECT_EQ(frame.kind, "RangeWithin");  // v3 spelling, never MATCH.
      EXPECT_NE(frame.kind, server::kPartGroupToken);
      EXPECT_NE(frame.kind, server::kPartRecToken);
      for (const std::string& line : frame.payload) {
        EXPECT_EQ(line.rfind("match ", 0), 0u);
      }
    }
  }
  // Cancel of a completed id: the structured no-op ERR, unchanged.
  EXPECT_EQ(handle.value().Cancel().code(), Status::Code::kNotFound);
}

// ------------------------------- EDF dispatch and deadline_miss

TEST_F(TypedPartServerTest, WorkersDispatchEarliestDeadlineFirst) {
  // One worker, gated on its first job. While it is held, a far-
  // deadline query is enqueued BEFORE a near-deadline one; under FIFO
  // the far one would run first, under EDF the near one must.
  StartGatedServer();
  server::Client blocker = Connect();
  ASSERT_TRUE(blocker.Roundtrip("use clustered").ok());
  server::Client far_client = Connect();
  ASSERT_TRUE(far_client.Roundtrip("use far").ok());
  server::Client near_client = Connect();
  ASSERT_TRUE(near_client.Roundtrip("use clustered").ok());

  const QueryRequest query =
      RangeWithinRequest{std::vector<double>(12, 0.5), 0.3, 0, true};
  auto line_with_deadline = [&](uint64_t ms) {
    RequestAttrs attrs;
    attrs.deadline_ms = ms;
    return RenderRequestLine(query, attrs);
  };

  std::thread blocker_thread([&] {
    (void)blocker.Roundtrip(RenderRequestLine(query));  // Holds the worker.
  });
  // Wait until the blocker's job is actually in the worker (enqueued and
  // the gate grabbed it), then stage far before near.
  AwaitEnqueued(1);
  std::thread far_thread([&] {
    EXPECT_TRUE(far_client.Roundtrip(line_with_deadline(600000)).ok());
  });
  AwaitEnqueued(2);
  std::thread near_thread([&] {
    EXPECT_TRUE(near_client.Roundtrip(line_with_deadline(60000)).ok());
  });
  AwaitEnqueued(3);
  ReleaseGate();
  blocker_thread.join();
  far_thread.join();
  near_thread.join();
  // EDF: the near-deadline query (enqueued second) ran first.
  EXPECT_EQ(StartedDatasets(),
            (std::vector<std::string>{"clustered", "clustered", "far"}));
}

TEST_F(TypedPartServerTest, DeadlineLessJobsAgeAheadOfFarDeadlines) {
  // Starvation regression: a deadline-less (v2-style) query must not be
  // bypassed indefinitely by deadline-carrying traffic. Its implicit
  // rank is admission + 500ms, so it outranks a deadline 60s away —
  // under a rank of "infinitely late" the far-deadline query would
  // have won and the untagged session could be starved.
  StartGatedServer();
  server::Client blocker = Connect();
  ASSERT_TRUE(blocker.Roundtrip("use clustered").ok());
  server::Client plain_client = Connect();
  ASSERT_TRUE(plain_client.Roundtrip("use clustered").ok());
  server::Client far_client = Connect();
  ASSERT_TRUE(far_client.Roundtrip("use far").ok());

  const QueryRequest query =
      RangeWithinRequest{std::vector<double>(12, 0.5), 0.3, 0, true};
  std::thread blocker_thread([&] {
    (void)blocker.Roundtrip(RenderRequestLine(query));
  });
  AwaitEnqueued(1);
  std::thread plain_thread([&] {
    EXPECT_TRUE(plain_client.Roundtrip(RenderRequestLine(query)).ok());
  });
  AwaitEnqueued(2);
  std::thread far_thread([&] {
    RequestAttrs attrs;
    attrs.deadline_ms = 60000;
    EXPECT_TRUE(far_client.Roundtrip(RenderRequestLine(query, attrs)).ok());
  });
  AwaitEnqueued(3);
  ReleaseGate();
  blocker_thread.join();
  plain_thread.join();
  far_thread.join();
  // The aged deadline-less query ran before the far-deadline one.
  EXPECT_EQ(StartedDatasets(),
            (std::vector<std::string>{"clustered", "clustered", "far"}));
}

TEST_F(TypedPartServerTest, DeadlineMissesAreCountedAndRendered) {
  server::ServerOptions options;
  options.num_workers = 1;
  options.on_job_start = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  };
  StartServer(options);
  server::Client client = Connect();
  ASSERT_TRUE(client.Roundtrip("use clustered").ok());

  RequestAttrs attrs;
  attrs.deadline_ms = 5;
  const QueryRequest query =
      RangeWithinRequest{std::vector<double>(12, 0.5), 0.3, 0, true};
  auto reply = client.Roundtrip(RenderRequestLine(query, attrs));
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply.value().ok) << reply.value().message;
  EXPECT_TRUE(reply.value().partial());
  EXPECT_GE(server_->metrics().deadline_miss(), 1u);

  auto stats = client.Roundtrip("stats");
  ASSERT_TRUE(stats.ok());
  bool found = false;
  for (const std::string& line : stats.value().payload) {
    if (line.rfind("server ", 0) == 0) {
      const auto fields = ParseKeyValues(line);
      ASSERT_TRUE(fields.count("deadline_miss"));
      EXPECT_GE(std::stoull(fields.at("deadline_miss")), 1u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace onex
