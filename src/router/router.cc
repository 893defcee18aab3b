#include "router/router.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <system_error>
#include <utility>

#include "router/merge.h"
#include "server/socket_io.h"

namespace onex {
namespace router {

namespace {

constexpr size_t kMaxRequestLine = size_t{1} << 20;

uint64_t ElapsedMs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

double HeaderDouble(const std::map<std::string, std::string>& header,
                    const char* key, double fallback) {
  auto it = header.find(key);
  if (it == header.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

std::string HeaderString(const std::map<std::string, std::string>& header,
                         const char* key) {
  auto it = header.find(key);
  return it == header.end() ? std::string() : it->second;
}

/// Re-renders a relayed (write-path) reply block. The header map lost
/// the original key order, so the known write-verb orders are spelled
/// out; anything else falls back to map order.
std::string RenderRelay(const server::WireResponse& reply) {
  if (!reply.ok) return server::RenderErrorBlock(reply.code, reply.message);
  std::string out = "OK " + reply.kind;
  auto emit = [&](const char* key) {
    auto it = reply.header.find(key);
    if (it != reply.header.end()) {
      out += std::string(" ") + key + "=" + it->second;
    }
  };
  if (reply.kind == "Append") {
    emit("series");
    emit("total");
    emit("durable");
  } else if (reply.kind == "Flush") {
    emit("dataset");
  } else {
    for (const auto& [key, value] : reply.header) {
      out += " " + key + "=" + value;
    }
  }
  out += "\n";
  for (const std::string& row : reply.payload) out += row + "\n";
  return out + ".\n";
}

}  // namespace

// One downstream client connection. The write mutex serializes whole
// blocks onto the socket: inline replies (session thread) and merged
// PART frames and finals (upstream demux threads) interleave
// block-at-a-time, never mid-block.
struct Router::Session {
  explicit Session(int fd) : fd(fd) {}

  void Send(const std::string& block) {
    MutexLock lock(write_mutex);
    server::SendAll(fd, block);
  }

  const int fd;
  Mutex write_mutex{LockRank::kSessionWrite, "router.session.write_mutex"};

  Mutex mutex{LockRank::kSessionState, "router.session.mutex"};
  /// `use` binding: an exact name or a shard-set spec.
  std::string bound GUARDED_BY(mutex);
  /// In-flight queries by client id (CANCEL routing). Id 0 is the one
  /// untagged query, which the session thread waits out. Each op erases
  /// itself once its final block is sent.
  std::map<uint64_t, std::shared_ptr<ScatterOp>> ops GUARDED_BY(mutex);
  CondVar op_finished;

  // Write-forwarding state; session-thread-only, so unguarded. The
  // connection is blocking and NEVER auto-reconnects: a write whose
  // connection died has unknowable fate and must not be retried.
  std::optional<server::Client> write_client;
  size_t write_upstream = static_cast<size_t>(-1);
  std::string write_dataset;
};

// The merge state machine of one (possibly scattered) query. Driven by
// the upstream demux threads' callbacks; the last leg to finish merges.
struct Router::ScatterOp {
  std::shared_ptr<Session> session;
  QueryRequest request;
  server::RequestAttrs attrs;
  std::vector<std::string> datasets;
  bool match_shaped = false;
  size_t keep = 0;
  std::chrono::steady_clock::time_point started;

  struct Leg {
    /// Current upstream handle, for CANCEL fan-out, and the attempt
    /// that submitted it (a slow submitter must not overwrite the
    /// handle of a later failover attempt).
    server::Client::Handle handle;
    size_t attempt = 0;
    /// Set when the leg finished: the transport failure that exhausted
    /// every replica, or else the final block.
    Status error = Status::OK();
    server::WireResponse final;
  };

  Mutex mutex{LockRank::kRouterMerge, "router.op.mutex"};
  uint64_t seq GUARDED_BY(mutex) = 0;
  bool cancelled GUARDED_BY(mutex) = false;
  /// Latest match-shaped snapshot per leg (re-ranked on every frame).
  std::vector<std::vector<std::string>> leg_rows GUARDED_BY(mutex);
  std::vector<double> leg_frac GUARDED_BY(mutex);
  std::vector<Leg> legs GUARDED_BY(mutex);
  size_t pending GUARDED_BY(mutex) = 0;  ///< Legs without an outcome.
};

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      table_(options_.upstreams),
      metrics_(options_.upstreams.size()),
      pool_(options_.pool, &table_) {}

Result<std::unique_ptr<Router>> Router::Start(RouterOptions options) {
  std::unique_ptr<Router> router(new Router(std::move(options)));
  auto listening = server::ListenTcp(router->options_.host,
                                     router->options_.port, &router->port_);
  if (!listening.ok()) return listening.status();
  router->listen_fd_ = listening.value();
  router->pool_.Start();
  router->accept_thread_ = std::thread([r = router.get()] { r->AcceptLoop(); });
  return router;
}

Router::~Router() { Stop(); }

void Router::Stop() {
  bool expected = false;
  if (!stop_.compare_exchange_strong(expected, true)) return;

  // 1. No new connections.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();

  // 2. Unblock session reads.
  {
    MutexLock lock(sessions_mutex_);
    for (const int fd : session_fds_) ::shutdown(fd, SHUT_RDWR);
  }

  // 3. Tear down the upstream pool: probes stop, query links close, so
  //    every leg still in flight gets its failure callback (no link is
  //    left to fail over to) and every op finishes.
  pool_.Stop();

  // 4. Sessions wait out their ops, then run out.
  std::vector<SessionThread> to_join;
  {
    MutexLock lock(sessions_mutex_);
    to_join.swap(session_threads_);
  }
  for (SessionThread& session : to_join) {
    if (session.thread.joinable()) session.thread.join();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void Router::AcceptLoop() {
  while (!stop_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stop_.load()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    MutexLock lock(sessions_mutex_);
    if (stop_.load()) {
      ::close(fd);
      break;
    }
    for (auto it = session_threads_.begin(); it != session_threads_.end();) {
      if (it->done->load()) {
        if (it->thread.joinable()) it->thread.join();
        it = session_threads_.erase(it);
      } else {
        ++it;
      }
    }
    server::SetNoDelay(fd);
    auto done = std::make_shared<std::atomic<bool>>(false);
    try {
      session_threads_.push_back({std::thread([this, fd, done] {
                                    SessionLoop(fd);
                                    done->store(true);
                                  }),
                                  done});
    } catch (const std::system_error& e) {
      // Out of threads: refuse this client, keep serving the others.
      server::SendAll(fd, server::RenderErrorBlock(
                              server::kOverloadedCode,
                              std::string("no session thread: ") + e.what()));
      ::close(fd);
      continue;
    }
    session_fds_.push_back(fd);
  }
}

void Router::SessionLoop(int fd) {
  auto session = std::make_shared<Session>(fd);
  session->Send(server::Greeting());

  server::SocketLineReader reader(fd, kMaxRequestLine);
  std::string line;
  while (!stop_.load() && reader.ReadLine(&line)) {
    if (line.empty()) continue;
    server::RequestAttrs attrs;
    auto parsed = server::ParseRequestLine(line, &attrs);
    if (!parsed.ok()) {
      session->Send(server::RenderError(parsed.status(), attrs.id));
      continue;
    }

    if (const auto* control =
            std::get_if<server::ControlRequest>(&parsed.value())) {
      bool quit = false;
      switch (control->verb) {
        case server::ControlVerb::kUse: {
          const std::string& spec = control->argument;
          const auto names = table_.Expand(spec);
          if (names.empty()) {
            session->Send(server::RenderError(Status::NotFound(
                "no upstream serves '" + spec + "'")));
            break;
          }
          {
            MutexLock lock(session->mutex);
            session->bound = spec;
          }
          session->Send("OK Use dataset=" + spec +
                        " datasets=" + std::to_string(names.size()) +
                        "\n.\n");
          break;
        }
        case server::ControlVerb::kList:
          session->Send(RenderRouterList());
          break;
        case server::ControlVerb::kStats:
          session->Send(server::RenderErrorBlock(
              "NOT_SUPPORTED",
              "stats is node-local — connect to an upstream directly"));
          break;
        case server::ControlVerb::kPing:
          session->Send("OK Pong\n.\n");
          break;
        case server::ControlVerb::kHelp:
          session->Send(server::RenderHelp());
          break;
        case server::ControlVerb::kQuit:
          session->Send("OK Bye\n.\n");
          quit = true;
          break;
        case server::ControlVerb::kFlush:
          ForwardWrite(session, line, "flush");
          break;
        case server::ControlVerb::kCancel: {
          if (control->argument.find('/') != std::string::npos) {
            session->Send(server::RenderErrorBlock(
                "NOT_SUPPORTED",
                "admin cancel is node-local — connect to the node"));
            break;
          }
          CancelOp(session,
                   std::strtoull(control->argument.c_str(), nullptr, 10));
          break;
        }
        case server::ControlVerb::kMetrics:
          session->Send("OK Metrics\n" +
                        metrics_.RenderPrometheus(table_.Snapshot()) + ".\n");
          break;
        case server::ControlVerb::kInspect:
          session->Send(RenderRouterInspect());
          break;
        case server::ControlVerb::kHealth:
          session->Send(RenderRouterHealth());
          break;
        case server::ControlVerb::kManifest:
        case server::ControlVerb::kFetch:
          session->Send(server::RenderErrorBlock(
              "NOT_SUPPORTED",
              "replication verbs bypass the router — fetch from the "
              "leader directly"));
          break;
      }
      if (quit) break;
      continue;
    }

    if (std::get_if<server::AppendRequest>(&parsed.value()) != nullptr) {
      ForwardWrite(session, line, "append");
      continue;
    }

    // Query path: resolve the target spec, expand, scatter.
    const auto& query = std::get<QueryRequest>(parsed.value());
    metrics_.RecordRequest();
    std::string spec = attrs.dataset;
    if (spec.empty()) {
      MutexLock lock(session->mutex);
      spec = session->bound;
    }
    if (spec.empty()) {
      session->Send(server::RenderErrorBlock(
          server::kNoDatasetCode,
          "no dataset bound — send 'use <name>' or a dataset= attribute",
          attrs.id));
      continue;
    }
    auto datasets = table_.Expand(spec);
    if (datasets.empty()) {
      session->Send(server::RenderError(
          Status::NotFound("no upstream serves '" + spec + "'"), attrs.id));
      continue;
    }
    if (datasets.size() > 1) metrics_.RecordScatter(datasets.size());

    auto op = std::make_shared<ScatterOp>();
    op->session = session;
    op->request = query;
    op->attrs = attrs;
    op->datasets = std::move(datasets);
    op->match_shaped = IsMatchShaped(query);
    op->keep = MergeKeepLimit(query);
    op->started = std::chrono::steady_clock::now();
    {
      MutexLock lock(op->mutex);
      op->leg_rows.resize(op->datasets.size());
      op->leg_frac.assign(op->datasets.size(), 0.0);
      op->legs.resize(op->datasets.size());
      op->pending = op->datasets.size();
    }
    bool duplicate = false;
    {
      MutexLock lock(session->mutex);
      duplicate = !session->ops.emplace(attrs.id, op).second;
    }
    if (duplicate) {
      session->Send(server::RenderErrorBlock(
          "INVALID_ARGUMENT",
          "id " + std::to_string(attrs.id) + " is already in flight",
          attrs.id));
      continue;
    }
    for (size_t leg = 0; leg < op->datasets.size(); ++leg) {
      StartLeg(op, leg, {}, Status::OK());
    }
    if (attrs.id == 0) {
      // Untagged: strictly ordered replies, so wait the query out. A
      // tagged one runs on from the legs' callbacks while this thread
      // keeps reading (CANCEL must be able to overtake it).
      MutexLock lock(session->mutex);
      while (session->ops.contains(0)) {
        session->op_finished.Wait(session->mutex);
      }
    }
  }

  {
    // Finals go out on this fd, so it stays open until every op is done.
    MutexLock lock(session->mutex);
    while (!session->ops.empty()) session->op_finished.Wait(session->mutex);
  }
  if (session->write_client.has_value()) session->write_client->Close();
  {
    MutexLock lock(sessions_mutex_);
    for (auto it = session_fds_.begin(); it != session_fds_.end(); ++it) {
      if (*it == fd) {
        session_fds_.erase(it);
        break;
      }
    }
  }
  ::close(fd);
}

void Router::StartLeg(const std::shared_ptr<ScatterOp>& op, size_t leg,
                      std::vector<size_t> tried, Status last) {
  const std::string& dataset = op->datasets[leg];
  if (last.ok()) {
    last = Status::IOError("no ready upstream serves '" + dataset + "'");
  }
  for (size_t attempt = tried.size();
       attempt <= static_cast<size_t>(options_.max_failovers);
       attempt = tried.size()) {
    {
      MutexLock lock(op->mutex);
      if (op->cancelled) {
        last = Status::Cancelled("cancelled before leg could run");
        break;
      }
    }
    if (attempt > 0) metrics_.RecordFailover();
    const auto pick = table_.PickRead(dataset, tried);
    if (!pick.has_value()) break;
    const size_t idx = pick.value();
    tried.push_back(idx);

    auto link = pool_.QueryLink(idx);
    if (!link.ok()) {
      last = link.status();
      continue;
    }
    std::shared_ptr<server::Client> client = link.value();
    metrics_.RecordUpstreamRequest(
        idx, table_.Snapshot()[idx].health.follower);

    server::Client::SubmitOptions submit;
    submit.deadline_ms =
        RemainingBudgetMs(op->attrs.deadline_ms, ElapsedMs(op->started));
    submit.trace = op->attrs.trace;
    submit.dataset = dataset;
    if (op->attrs.progress) {
      submit.on_progress = [op, leg](const server::WireResponse& part) {
        OnLegPart(op, leg, part);
      };
    }
    submit.on_done = [this, op, leg, idx, tried,
                      weak = std::weak_ptr<server::Client>(client)](
                         const Result<server::WireResponse>& final) {
      if (final.ok()) {
        FinishLeg(op, leg, final);
        return;
      }
      // Transport death with the client's own reconnects exhausted:
      // drop the link and fail over to the next untried replica. This
      // runs on the dead link's demux thread, which serves nothing
      // anymore, so a blocking re-dial here stalls no other query.
      if (auto dead = weak.lock()) pool_.DropLink(idx, dead.get());
      StartLeg(op, leg, tried, final.status());
    };
    auto submitted = client->Submit(op->request, std::move(submit));
    if (!submitted.ok()) {
      pool_.DropLink(idx, client.get());
      last = submitted.status();
      continue;
    }
    bool was_cancelled = false;
    {
      MutexLock lock(op->mutex);
      ScatterOp::Leg& slot = op->legs[leg];
      if (tried.size() > slot.attempt) {
        slot.handle = submitted.value();
        slot.attempt = tried.size();
      }
      was_cancelled = op->cancelled;
    }
    // Cancel raced the re-submit: the fan-out missed this handle, so
    // deliver it ourselves (idempotent server-side).
    if (was_cancelled) submitted.value().Cancel();
    return;
  }
  FinishLeg(op, leg, last);
}

void Router::FinishLeg(const std::shared_ptr<ScatterOp>& op, size_t leg,
                       Result<server::WireResponse> outcome) {
  {
    MutexLock lock(op->mutex);
    ScatterOp::Leg& slot = op->legs[leg];
    if (outcome.ok()) {
      slot.final = std::move(outcome).value();
    } else {
      slot.error = outcome.status();
    }
    if (--op->pending > 0) return;
  }
  // The last leg. The upstream servers send the final block after the
  // last PART frame of an id, so no demux callback touches the merge
  // state anymore and the merge below sees quiescent state.
  const uint64_t latency_us = ElapsedMs(op->started) * 1000;
  metrics_.RecordMergeLatency(static_cast<double>(latency_us) / 1e6);
  const uint64_t id = op->attrs.id;
  op->session->Send(RenderFinal(*op, latency_us));

  // Nothing below may touch the router: once the op is gone from the
  // session, Stop() can complete and the router be destroyed.
  Session& session = *op->session;
  MutexLock lock(session.mutex);
  auto it = session.ops.find(id);
  if (it != session.ops.end() && it->second == op) session.ops.erase(it);
  session.op_finished.NotifyAll();
}

std::string Router::RenderFinal(ScatterOp& op, uint64_t latency_us) {
  MergedStats stats;
  std::vector<std::vector<std::string>> leg_final_rows(op.datasets.size());
  std::vector<std::string> extra;
  std::string kind;
  std::string interrupt;
  bool any_partial = false;
  bool any_transport_failure = false;
  Status failure = Status::OK();
  const server::WireResponse* app_error = nullptr;
  size_t successes = 0;
  const uint64_t id = op.attrs.id;
  MutexLock lock(op.mutex);
  for (size_t leg = 0; leg < op.legs.size(); ++leg) {
    if (!op.legs[leg].error.ok()) {
      any_transport_failure = true;
      failure = op.legs[leg].error;
      continue;
    }
    const server::WireResponse& final = op.legs[leg].final;
    if (!final.ok) {
      if (app_error == nullptr) app_error = &final;
      continue;
    }
    ++successes;
    if (kind.empty()) kind = final.kind;
    SplitFinalPayload(final.payload, &stats, &leg_final_rows[leg], &extra);
    if (final.partial()) {
      any_partial = true;
      if (interrupt.empty()) {
        interrupt = HeaderString(final.header, "interrupt");
      }
    }
  }

  if (app_error != nullptr) {
    // An upstream understood the query and refused it (bad arguments,
    // unknown dataset): deterministic on every replica, so propagate.
    return server::RenderErrorBlock(app_error->code, app_error->message, id);
  }
  if (successes == 0) {
    if (failure.ok()) failure = Status::IOError("every leg failed");
    return server::RenderError(failure, id);
  }
  if (any_transport_failure) {
    // Partial coverage: some shards answered, some had no live replica
    // left. Same contract as a deadline-clipped single-node answer.
    any_partial = true;
    if (interrupt.empty()) interrupt = server::WireCode(failure.code());
  }
  if (any_partial && interrupt.empty()) {
    interrupt = server::WireCode(Status::Code::kDeadlineExceeded);
  }

  std::vector<std::string> rows;
  if (op.match_shaped) {
    rows = MergeMatchRows(leg_final_rows, op.keep);
  } else {
    for (const auto& leg_rows : leg_final_rows) {
      rows.insert(rows.end(), leg_rows.begin(), leg_rows.end());
    }
  }
  return RenderMergedFinal(kind, id, rows, latency_us, any_partial, interrupt,
                           stats, extra);
}

void Router::OnLegPart(const std::shared_ptr<ScatterOp>& op, size_t leg,
                       const server::WireResponse& part) {
  MutexLock lock(op->mutex);
  if (leg >= op->leg_frac.size()) return;
  op->leg_frac[leg] = HeaderDouble(part.header, "frac", op->leg_frac[leg]);
  double frac_sum = 0.0;
  for (const double frac : op->leg_frac) frac_sum += frac;
  const double merged_frac =
      op->leg_frac.empty() ? 0.0
                           : frac_sum / static_cast<double>(
                                            op->leg_frac.size());
  const bool snapshot = HeaderString(part.header, "snapshot") == "1";
  std::string frame;
  if (op->match_shaped && snapshot) {
    // Best-so-far snapshot stream (q1/q1k): replace this leg's rows and
    // re-rank the union into one merged top-k snapshot.
    op->leg_rows[leg] = part.payload;
    frame = RenderScatterPart(part.kind, op->attrs.id, op->seq++,
                              merged_frac, /*snapshot=*/true,
                              MergeMatchRows(op->leg_rows, op->keep));
  } else {
    // Incremental streams (q1r matches, GROUP, REC): interleave by
    // origin. Never a snapshot downstream — no single frame covers the
    // whole scattered answer.
    if (part.payload.empty()) return;
    frame = RenderScatterPart(part.kind, op->attrs.id, op->seq++,
                              merged_frac, /*snapshot=*/false, part.payload);
  }
  // Sent under op->mutex so downstream seq numbers are monotone on the
  // wire (merge rank 48 < session-write rank 52).
  op->session->Send(frame);
}

void Router::ForwardWrite(const std::shared_ptr<Session>& session,
                          const std::string& raw_line,
                          const std::string& verb) {
  std::string dataset;
  {
    MutexLock lock(session->mutex);
    dataset = session->bound;
  }
  if (dataset.empty()) {
    session->Send(server::RenderErrorBlock(
        server::kNoDatasetCode,
        "no dataset bound — send 'use <name>' first"));
    return;
  }
  if (IsShardSet(dataset)) {
    session->Send(server::RenderErrorBlock(
        "INVALID_ARGUMENT", "writes need an exact dataset — '" + dataset +
                                "' is a shard-set"));
    return;
  }
  const auto pick = table_.PickWrite(dataset);
  if (!pick.has_value()) {
    session->Send(server::RenderError(
        Status::IOError("no ready leader serves '" + dataset + "'")));
    return;
  }
  const size_t idx = pick.value();

  if (!session->write_client.has_value() ||
      session->write_upstream != idx || session->write_dataset != dataset) {
    if (session->write_client.has_value()) {
      session->write_client->Close();
      session->write_client.reset();
    }
    const UpstreamConfig config = table_.Snapshot()[idx].config;
    server::ClientOptions client_options;
    client_options.connect_timeout_ms = options_.pool.connect_timeout_ms;
    client_options.io_timeout_ms = options_.pool.io_timeout_ms;
    auto dialed =
        server::Client::Connect(config.host, config.port, client_options);
    if (!dialed.ok()) {
      session->Send(server::RenderError(dialed.status()));
      return;
    }
    session->write_client.emplace(std::move(dialed).value());
    auto bound = session->write_client->Roundtrip("use " + dataset);
    if (!bound.ok() || !bound.value().ok) {
      const std::string detail =
          bound.ok() ? bound.value().code + " " + bound.value().message
                     : bound.status().message();
      session->write_client->Close();
      session->write_client.reset();
      session->Send(server::RenderError(Status::IOError(
          "binding '" + dataset + "' on the leader failed: " + detail)));
      return;
    }
    session->write_upstream = idx;
    session->write_dataset = dataset;
  }

  metrics_.RecordUpstreamRequest(idx, /*follower=*/false);
  auto reply = session->write_client->Roundtrip(raw_line);
  if (!reply.ok()) {
    // The write's fate is unknown — never retried. Surface and re-dial
    // on the NEXT write.
    session->write_client->Close();
    session->write_client.reset();
    session->Send(server::RenderError(Status::IOError(
        verb + " to the leader failed: " + reply.status().message())));
    return;
  }
  session->Send(RenderRelay(reply.value()));
}

void Router::CancelOp(const std::shared_ptr<Session>& session, uint64_t id) {
  std::shared_ptr<ScatterOp> op;
  {
    MutexLock lock(session->mutex);
    auto it = session->ops.find(id);
    if (it != session->ops.end()) op = it->second;
  }
  if (op == nullptr) {
    session->Send(server::RenderErrorBlock(
        "NOT_FOUND",
        "query id=" + std::to_string(id) + " is not in flight"));
    return;
  }
  std::vector<server::Client::Handle> handles;
  {
    MutexLock lock(op->mutex);
    op->cancelled = true;
    for (const ScatterOp::Leg& leg : op->legs) handles.push_back(leg.handle);
  }
  size_t fanned = 0;
  for (server::Client::Handle& handle : handles) {
    if (handle.id() == 0) continue;
    handle.Cancel();  // NotFound = that leg already finished; fine.
    ++fanned;
  }
  metrics_.RecordCancelFanout(fanned);
  session->Send("OK Cancel id=" + std::to_string(id) + "\n.\n");
}

std::string Router::RenderRouterHealth() const {
  const auto upstreams = table_.Snapshot();
  bool any_ready = false;
  for (const UpstreamSnapshot& up : upstreams) {
    if (up.health.ready) any_ready = true;
  }
  std::string reply = std::string("OK Health live=1 ready=") +
                      (any_ready ? "1" : "0") + "\n";
  for (const UpstreamSnapshot& up : upstreams) {
    char lag[32];
    std::snprintf(lag, sizeof(lag), "%.3f", up.health.replica_lag_s);
    reply += std::string("check name=upstream ok=") +
             (up.health.ready ? "1" : "0") + " address=" +
             up.config.address() + " role=" +
             (!up.health.reachable ? "unknown"
              : up.health.follower ? "follower"
                                   : "leader") +
             " lag_s=" + lag + "\n";
  }
  return reply + ".\n";
}

std::string Router::RenderRouterInspect() const {
  const auto upstreams = table_.Snapshot();
  size_t sessions = 0;
  {
    MutexLock lock(sessions_mutex_);
    sessions = session_fds_.size();
  }
  std::string reply = "OK Inspect sessions=" + std::to_string(sessions) +
                      " upstreams=" + std::to_string(upstreams.size()) +
                      "\n";
  for (const UpstreamSnapshot& up : upstreams) {
    char lag[32];
    std::snprintf(lag, sizeof(lag), "%.3f", up.health.replica_lag_s);
    reply += "upstream address=" + up.config.address() +
             " reachable=" + (up.health.reachable ? "1" : "0") +
             " ready=" + (up.health.ready ? "1" : "0") +
             " follower=" + (up.health.follower ? "1" : "0") +
             " lag_s=" + lag +
             " datasets=" + std::to_string(up.datasets.size());
    if (!up.health.error.empty()) reply += " error=" + up.health.error;
    reply += "\n";
  }
  return reply + ".\n";
}

std::string Router::RenderRouterList() const {
  const auto upstreams = table_.Snapshot();
  std::map<std::string, size_t> serving;
  for (const UpstreamSnapshot& up : upstreams) {
    for (const std::string& dataset : up.datasets) ++serving[dataset];
  }
  std::string reply =
      "OK List datasets=" + std::to_string(serving.size()) + "\n";
  for (const auto& [name, count] : serving) {
    reply += "dataset name=" + name +
             " upstreams=" + std::to_string(count) + "\n";
  }
  return reply + ".\n";
}

}  // namespace router
}  // namespace onex
