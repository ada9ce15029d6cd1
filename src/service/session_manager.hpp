#pragma once
// Owns everything long-lived in the service: the session table and the job
// queue. The manager enforces the concurrency contract the lower layers rely
// on: every operation that touches a session's state is submitted through
// submit() with the session id as the queue's orderKey, so one session's
// jobs run strictly FIFO (sessions need no internal locks) while different
// sessions' jobs interleave across workers under priority. A session shares
// nothing mutable with another: its FlatDD backend compiles DMAV plans into
// its own private cache over its own DD package.
//
// close() removes the session from the table; jobs already queued for it
// hold the Session shared_ptr and complete normally, after which the session
// (and its backend) is destroyed on the last release.

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "service/job_queue.hpp"
#include "service/session.hpp"
#include "service/slow_log.hpp"
#include "service/watchdog.hpp"

namespace fdd::svc {

struct ServiceConfig {
  /// Dedicated job-queue worker threads (concurrent sessions in flight).
  unsigned workers = 4;
  /// How long a finished async job's result stays pollable after completion
  /// before the service drops it (releasing its session reference).
  std::int64_t asyncJobGraceMs = 60'000;
  /// Requests whose total latency crosses this go to the slow-request log
  /// (<= 0 logs everything when the log is enabled).
  double slowRequestMs = 250;
  /// JSONL slow-request log path ("" = disabled).
  std::string slowLogPath;
  /// Rate limit for slow-log writes (token bucket, burst == one second).
  double slowLogMaxPerSec = 100;
  /// Watchdog scan period (0 = no watchdog thread).
  std::uint64_t watchdogIntervalMs = 500;
  /// Slack past a job's explicit deadline before it's flagged stalled.
  std::uint64_t watchdogGraceMs = 1000;
  /// Execution ceiling for deadline-less jobs before they're flagged.
  std::uint64_t watchdogStallMs = 30'000;
  /// Defaults for sessions that don't override engine options.
  engine::EngineOptions engineDefaults;
};

class SessionManager {
 public:
  explicit SessionManager(ServiceConfig config = {});
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Creates a session. `config.engine` is taken as given — callers wanting
  /// the service-wide defaults copy config().engineDefaults in first (the
  /// protocol layer does).
  std::shared_ptr<Session> open(SessionConfig config);
  /// nullptr when the id is unknown (or already closed).
  [[nodiscard]] std::shared_ptr<Session> find(std::uint64_t id) const;
  /// True if the session existed. Queued jobs still holding the session
  /// finish first; the backend dies with the last reference.
  bool close(std::uint64_t id);
  [[nodiscard]] std::size_t sessionCount() const;

  /// Submits a job serialized after every earlier job of `session`.
  JobHandle submit(const std::shared_ptr<Session>& session,
                   std::function<void(Session&, const par::CancelToken&)> fn,
                   JobOptions opts = {});

  [[nodiscard]] JobQueue& queue() noexcept { return queue_; }
  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] SlowRequestLog& slowLog() noexcept { return slowLog_; }
  [[nodiscard]] Watchdog& watchdog() noexcept { return watchdog_; }

 private:
  ServiceConfig config_;
  SlowRequestLog slowLog_;

  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Session>> sessions_;
  std::uint64_t nextId_ = 1;

  // Declared after the sessions and the slow log it must outlive shut down:
  // the queue must drain (jobs reference sessions and log to the slow log)
  // before either is destroyed, and the watchdog — which observes the
  // queue — is declared after it so it stops first.
  JobQueue queue_;
  Watchdog watchdog_;
};

}  // namespace fdd::svc
