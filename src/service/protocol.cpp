#include "service/protocol.hpp"

#include <charconv>
#include <chrono>
#include <cmath>
#include <map>
#include <stdexcept>
#include <vector>

#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "qasm/parser.hpp"
#include "qc/gate.hpp"
#include "simd/kernels.hpp"

namespace fdd::svc {

namespace {

// ---- request field extraction ---------------------------------------------

const json::Object& asObject(const json::Value& v) {
  const json::Object* obj = v.object();
  if (obj == nullptr) {
    throw std::invalid_argument("request must be a JSON object");
  }
  return *obj;
}

const json::Value* findField(const json::Object& obj, std::string_view key) {
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

std::string getString(const json::Object& obj, std::string_view key,
                      std::string fallback = {}) {
  if (const json::Value* v = findField(obj, key)) {
    if (const std::string* s = v->string()) {
      return *s;
    }
    throw std::invalid_argument("field '" + std::string{key} +
                                "' must be a string");
  }
  return fallback;
}

double requireNumber(const json::Object& obj, std::string_view key) {
  const json::Value* v = findField(obj, key);
  if (v == nullptr || v->number() == nullptr) {
    throw std::invalid_argument("field '" + std::string{key} +
                                "' must be a number");
  }
  return *v->number();
}

double getNumber(const json::Object& obj, std::string_view key,
                 double fallback) {
  const json::Value* v = findField(obj, key);
  if (v == nullptr) {
    return fallback;
  }
  if (v->number() == nullptr) {
    throw std::invalid_argument("field '" + std::string{key} +
                                "' must be a number");
  }
  return *v->number();
}

/// Rejects everything a float-to-unsigned cast would silently corrupt or
/// turn into UB: NaN/inf, negatives, fractions, and values above `max`.
std::uint64_t checkedUInt(double d, std::string_view key, std::uint64_t max) {
  if (!std::isfinite(d) || d < 0 || std::floor(d) != d) {
    throw std::invalid_argument("field '" + std::string{key} +
                                "' must be a non-negative integer");
  }
  if (d > static_cast<double>(max)) {
    throw std::invalid_argument("field '" + std::string{key} +
                                "' must be <= " + std::to_string(max));
  }
  return static_cast<std::uint64_t>(d);
}

std::uint64_t requireUInt(const json::Object& obj, std::string_view key,
                          std::uint64_t max) {
  return checkedUInt(requireNumber(obj, key), key, max);
}

std::uint64_t getUInt(const json::Object& obj, std::string_view key,
                      std::uint64_t fallback, std::uint64_t max) {
  const json::Value* v = findField(obj, key);
  if (v == nullptr) {
    return fallback;
  }
  if (v->number() == nullptr) {
    throw std::invalid_argument("field '" + std::string{key} +
                                "' must be a number");
  }
  return checkedUInt(*v->number(), key, max);
}

/// 64-bit integers (seeds) arrive as decimal strings — a JSON number is a
/// double and only carries 53 mantissa bits — but plain numbers are accepted
/// for convenience. Malformed strings are an error, never a silent 0: a
/// typo'd session/job/checkpoint id must not route to a different entity.
std::uint64_t getU64(const json::Object& obj, std::string_view key,
                     std::uint64_t fallback) {
  const json::Value* v = findField(obj, key);
  if (v == nullptr) {
    return fallback;
  }
  if (const std::string* s = v->string()) {
    std::uint64_t out = 0;
    const char* const last = s->data() + s->size();
    const auto [ptr, ec] = std::from_chars(s->data(), last, out, 10);
    if (ec != std::errc{} || ptr != last || s->empty()) {
      throw std::invalid_argument("field '" + std::string{key} +
                                  "' is not an unsigned decimal: '" + *s +
                                  "'");
    }
    return out;
  }
  if (const double* d = v->number()) {
    // Doubles above 2^53 no longer hit every integer — demand a string.
    return checkedUInt(*d, key, std::uint64_t{1} << 53);
  }
  throw std::invalid_argument("field '" + std::string{key} +
                              "' must be a decimal string or number");
}

/// Millisecond duration field (0 = absent/none), bounded to one day so the
/// microsecond conversion at the call sites cannot overflow. Sub-microsecond
/// positives stay positive for the caller's `> 0` check.
double getDurationMs(const json::Object& obj, std::string_view key) {
  const double ms = getNumber(obj, key, 0);
  if (!std::isfinite(ms) || ms < 0 || ms > 86'400'000.0) {
    throw std::invalid_argument("field '" + std::string{key} +
                                "' must be in [0, 86400000] ms");
  }
  return ms;
}

std::chrono::microseconds toMicros(double ms) {
  return std::chrono::microseconds(static_cast<std::int64_t>(ms * 1000.0));
}

bool getBool(const json::Object& obj, std::string_view key) {
  const json::Value* v = findField(obj, key);
  return v != nullptr && v->boolean() != nullptr && *v->boolean();
}

JobOptions jobOptions(const json::Object& obj, std::uint64_t requestId,
                      const char* label) {
  JobOptions opts;
  opts.requestId = requestId;
  opts.label = label;
  const double priority = getNumber(obj, "priority", 0);
  if (!std::isfinite(priority) || std::floor(priority) != priority ||
      std::abs(priority) > 1'000'000.0) {
    throw std::invalid_argument(
        "field 'priority' must be an integer in [-1000000, 1000000]");
  }
  opts.priority = static_cast<int>(priority);
  const double deadlineMs = getDurationMs(obj, "deadline_ms");
  if (deadlineMs > 0) {
    opts.deadline = par::CancelToken::Clock::now() + toMicros(deadlineMs);
  }
  return opts;
}

// ---- circuit construction -------------------------------------------------

qc::GateKind gateKindFromName(const std::string& name) {
  for (int k = 0; k <= static_cast<int>(qc::GateKind::U3); ++k) {
    const auto kind = static_cast<qc::GateKind>(k);
    if (qc::gateName(kind) == name) {
      return kind;
    }
  }
  throw std::invalid_argument("unknown gate '" + name + "'");
}

qc::Circuit circuitFromRequest(const json::Object& obj, Qubit nQubits) {
  qc::Circuit circuit{nQubits, "request"};
  if (const json::Value* qasmField = findField(obj, "qasm")) {
    const std::string* src = qasmField->string();
    if (src == nullptr) {
      throw std::invalid_argument("field 'qasm' must be a string");
    }
    const qc::Circuit parsed = qasm::parse(*src, "request");
    if (parsed.numQubits() > nQubits) {
      throw std::invalid_argument("qasm circuit uses more qubits (" +
                                  std::to_string(parsed.numQubits()) +
                                  ") than the session has");
    }
    for (const qc::Operation& op : parsed) {
      circuit.append(op);
    }
  }
  if (const json::Value* gatesField = findField(obj, "gates")) {
    const json::Array* gates = gatesField->array();
    if (gates == nullptr) {
      throw std::invalid_argument("field 'gates' must be an array");
    }
    for (const json::Value& g : *gates) {
      const json::Object* gate = g.object();
      if (gate == nullptr) {
        throw std::invalid_argument("gate entries must be objects");
      }
      const auto maxQubit = static_cast<std::uint64_t>(nQubits) - 1;
      qc::Operation op;
      op.kind = gateKindFromName(getString(*gate, "gate"));
      op.target = static_cast<Qubit>(requireUInt(*gate, "target", maxQubit));
      if (const json::Value* controls = findField(*gate, "controls")) {
        const json::Array* arr = controls->array();
        if (arr == nullptr) {
          throw std::invalid_argument("'controls' must be an array");
        }
        for (const json::Value& c : *arr) {
          if (c.number() == nullptr) {
            throw std::invalid_argument("control qubits must be numbers");
          }
          op.controls.push_back(static_cast<Qubit>(
              checkedUInt(*c.number(), "controls", maxQubit)));
        }
      }
      if (const json::Value* params = findField(*gate, "params")) {
        const json::Array* arr = params->array();
        if (arr == nullptr) {
          throw std::invalid_argument("'params' must be an array");
        }
        for (const json::Value& p : *arr) {
          if (p.number() == nullptr || !std::isfinite(*p.number())) {
            throw std::invalid_argument("gate params must be finite numbers");
          }
          op.params.push_back(static_cast<fp>(*p.number()));
        }
      }
      if (op.params.size() != qc::gateParamCount(op.kind)) {
        throw std::invalid_argument(
            "gate '" + qc::gateName(op.kind) + "' expects " +
            std::to_string(qc::gateParamCount(op.kind)) + " params");
      }
      circuit.append(std::move(op));
    }
  }
  return circuit;
}

// ---- responses ------------------------------------------------------------

std::string errorResponse(const std::string& message) {
  json::Writer w;
  w.beginObject();
  w.field("ok", false);
  w.field("error", message);
  w.endObject();
  return w.take();
}

std::string jobFailureResponse(const Job& job) {
  json::Writer w;
  w.beginObject();
  w.field("ok", false);
  w.field("state", toString(job.state()));
  const std::string error = job.error();
  w.field("error", error.empty() ? std::string{toString(job.state())}
                                 : error);
  w.endObject();
  return w.take();
}

/// Splices `,<raw>` before the final '}' of a finished one-object response.
/// Works on Writer output and spliced report responses alike — every
/// response is exactly one JSON object.
void spliceRaw(std::string& response, std::string_view raw) {
  if (response.empty() || response.back() != '}') {
    return;
  }
  response.pop_back();
  response += ',';
  response += raw;
  response += '}';
}

void appendRequestId(std::string& response, std::uint64_t requestId) {
  // Decimal string, not a number: u64 ids don't survive a double round-trip.
  spliceRaw(response, "\"request_id\":\"" + std::to_string(requestId) + "\"");
}

void appendJobTiming(std::string& response, const Job& job) {
  spliceRaw(response,
            "\"queue_wait_us\":" +
                json::numberToString(job.queueWaitSeconds() * 1e6) +
                ",\"exec_us\":" +
                json::numberToString(job.executeSeconds() * 1e6));
}

}  // namespace

Service::Service(ServiceConfig config) : manager_{std::move(config)} {}

std::string Service::handleLine(std::string_view line) {
  std::uint64_t requestId = 0;
  std::string response;
  try {
    response = dispatch(line, requestId);
  } catch (const std::exception& e) {
    response = errorResponse(e.what());
  } catch (...) {
    response = errorResponse("unknown error");
  }
  // Echo the id even on errors thrown after it was assigned — the client
  // needs it to correlate the failure with its own records. Appended last
  // so `ok` stays the response's first field for every op.
  if (requestId != 0) {
    appendRequestId(response, requestId);
  }
  return response;
}

void Service::logRequest(const char* op, std::uint64_t requestId,
                         std::uint64_t sessionId, const Job& job,
                         std::uint64_t gates, std::size_t planCacheHits) {
  SlowRequestLog& log = manager_.slowLog();
  if (!log.enabled()) {
    return;
  }
  SlowLogEntry entry;
  entry.op = op;
  entry.requestId = requestId;
  entry.sessionId = sessionId;
  entry.queueWaitMs = job.queueWaitSeconds() * 1e3;
  entry.executeMs = job.executeSeconds() * 1e3;
  entry.totalMs = job.latencySeconds() * 1e3;
  entry.gatesApplied = gates;
  entry.planCacheHits = planCacheHits;
  entry.simdTier = simd::toString(simd::activeTier());
  entry.state = toString(job.state());
  log.record(entry);
}

std::string Service::healthzJson() {
  JobQueue& queue = manager_.queue();
  const JobQueue::Stats stats = queue.stats();
  const std::size_t stalled = manager_.watchdog().stalledNow();
  const auto now = std::chrono::steady_clock::now();
  const std::uint64_t nowNs = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          now.time_since_epoch())
          .count());

  json::Writer w;
  w.beginObject();
  w.field("status", stalled == 0 ? "ok" : "degraded");
  w.field("uptime_seconds",
          std::chrono::duration<double>(now - startTime_).count());
  w.field("sessions", manager_.sessionCount());
  w.beginObjectIn("queue");
  w.field("depth", stats.runnable);
  w.field("stashed", stats.stashed);
  w.field("running", stats.running);
  w.field("workers", static_cast<std::size_t>(queue.workers()));
  w.endObject();
  w.field("jobs_stalled", stalled);
  w.field("jobs_stalled_total",
          static_cast<std::size_t>(manager_.watchdog().stalledTotal()));
  w.beginArray("worker_progress");
  for (unsigned i = 0; i < queue.workers(); ++i) {
    const JobQueue::WorkerProgress p = queue.workerProgress(i);
    w.beginObjectEntry();
    w.field("busy", p.busy);
    w.field("request_id", std::to_string(p.requestId));
    // -1: this worker has not picked up a job yet (no heartbeat written).
    w.field("last_progress_ms",
            p.lastBeatNs == 0
                ? -1.0
                : static_cast<double>(nowNs - p.lastBeatNs) * 1e-6);
    w.endObject();
  }
  w.endArray();
  w.endObject();
  return w.take();
}

void Service::sweepExpiredJobs() {
  const auto now = std::chrono::steady_clock::now();
  const auto grace =
      std::chrono::milliseconds{manager_.config().asyncJobGraceMs};
  const std::lock_guard lock{jobsMutex_};
  for (auto it = jobs_.begin(); it != jobs_.end();) {
    AsyncJob& job = it->second;
    if (!isTerminal(job.handle->state())) {
      ++it;
    } else if (!job.expireAt.has_value()) {
      // First time we see it terminal: start the grace clock so a client
      // that polls promptly still gets the result.
      job.expireAt = now + grace;
      ++it;
    } else if (now >= *job.expireAt) {
      it = jobs_.erase(it);
    } else {
      ++it;
    }
  }
}

std::string Service::dispatch(std::string_view line,
                              std::uint64_t& requestId) {
  // Terminal async jobs a client never polls would otherwise pin their
  // session (and its 2^n state) forever via jobs_.
  sweepExpiredJobs();

  const json::Value request = json::parse(line);
  const json::Object& obj = asObject(request);
  const std::string op = getString(obj, "op");

  // Every request gets an id: the client's if supplied, a generated one
  // otherwise. The TLS scope makes every span recorded on this thread (and,
  // via JobOptions, on the worker executing this request's job) carry it.
  requestId = getU64(obj, "request_id", 0);
  if (requestId == 0) {
    requestId = nextRequestId_.fetch_add(1, std::memory_order_relaxed);
  }
  const obs::RequestIdScope requestScope{requestId};
  FDD_TIMED_SCOPE("service.request");
  const bool wantTiming = getBool(obj, "timing");

  if (op == "ping") {
    json::Writer w;
    w.beginObject();
    w.field("ok", true);
    w.field("op", "ping");
    w.endObject();
    return w.take();
  }

  if (op == "shutdown") {
    shutdown_.store(true, std::memory_order_release);
    json::Writer w;
    w.beginObject();
    w.field("ok", true);
    w.field("op", "shutdown");
    w.endObject();
    return w.take();
  }

  if (op == "open") {
    SessionConfig cfg;
    cfg.backend = getString(obj, "backend", "flatdd");
    // 63 keeps `Index{1} << qubits` defined; dense backends run out of
    // memory (a clean error) long before the protocol bound matters.
    cfg.qubits = static_cast<Qubit>(requireUInt(obj, "qubits", 63));
    if (cfg.qubits < 1) {
      throw std::invalid_argument("field 'qubits' must be >= 1");
    }
    cfg.seed = getU64(obj, "seed", 0);
    cfg.maxCheckpoints = getUInt(obj, "max_checkpoints",
                                 cfg.maxCheckpoints, 4096);
    cfg.engine = manager_.config().engineDefaults;
    const auto threads = getUInt(obj, "threads", 0, 1024);
    if (threads > 0) {
      cfg.engine.threads = static_cast<unsigned>(threads);
    }
    // "ordering": true arms the scored static-ordering pass; the engine
    // scores the session's first gate batch and permutes transparently.
    if (getBool(obj, "ordering")) {
      cfg.engine.passes.emplace_back("ordering");
    }
    const std::shared_ptr<Session> session = manager_.open(std::move(cfg));
    json::Writer w;
    w.beginObject();
    w.field("ok", true);
    w.field("session", static_cast<std::size_t>(session->id()));
    w.field("backend", session->config().backend);
    w.field("qubits", static_cast<int>(session->numQubits()));
    w.field("seed", std::to_string(session->config().seed));
    w.endObject();
    return w.take();
  }

  if (op == "job" || op == "cancel") {
    const std::uint64_t jobId = getU64(obj, "job", 0);
    AsyncJob async;
    {
      const std::lock_guard lock{jobsMutex_};
      const auto it = jobs_.find(jobId);
      if (it == jobs_.end()) {
        throw std::invalid_argument("unknown job " + std::to_string(jobId));
      }
      async = it->second;
    }
    if (op == "cancel") {
      async.handle->cancel();
    } else {
      const double waitMs = getDurationMs(obj, "wait_ms");
      if (waitMs > 0) {
        async.handle->waitFor(toMicros(waitMs));
      }
    }
    const JobState state = async.handle->state();
    if (isTerminal(state)) {
      bool firstObservation = false;
      {
        const std::lock_guard lock{jobsMutex_};
        firstObservation = jobs_.erase(jobId) > 0;
      }
      // Async applies are invisible to the per-op slow-log path (the
      // submitting dispatch returned immediately); log them under their
      // original request id when their result is first collected.
      if (firstObservation) {
        logRequest("apply_async", async.handle->requestId(),
                   async.session->id(), *async.handle,
                   async.session->gatesApplied(),
                   async.result->planCacheHits);
      }
    }
    json::Writer w;
    w.beginObject();
    w.field("ok", true);
    w.field("state", toString(state));
    if (state == JobState::Done) {
      w.field("applied", async.result->applied);
      w.field("total_gates", async.session->gatesApplied());
    }
    if (state == JobState::Failed) {
      w.field("error", async.handle->error());
    }
    w.endObject();
    return w.take();
  }

  // Everything below addresses a session.
  if (op != "close" && op != "apply" && op != "sample" &&
      op != "amplitude" && op != "report" && op != "checkpoint" &&
      op != "restore" && op != "release") {
    throw std::invalid_argument("unknown op '" + op + "'");
  }
  const std::uint64_t sessionId = getU64(obj, "session", 0);
  const std::shared_ptr<Session> session = manager_.find(sessionId);
  if (session == nullptr) {
    throw std::invalid_argument("unknown session " +
                                std::to_string(sessionId));
  }

  if (op == "close") {
    manager_.close(sessionId);
    json::Writer w;
    w.beginObject();
    w.field("ok", true);
    w.endObject();
    return w.take();
  }

  if (op == "apply") {
    qc::Circuit chunk = circuitFromRequest(obj, session->numQubits());
    auto result = std::make_shared<ApplyResult>();
    // Sessions are not synchronized, so the job body itself reads the
    // session's plan-cache hits around the apply, and only when the slow
    // log will record the difference.
    const bool countHits = manager_.slowLog().enabled();
    const JobHandle handle = manager_.submit(
        session,
        [chunk = std::move(chunk), result, countHits](
            Session& s, const par::CancelToken& token) {
          const std::size_t before =
              countHits ? s.report().planCacheHits : 0;
          result->applied = s.apply(chunk, token);
          if (countHits) {
            result->planCacheHits = s.report().planCacheHits - before;
          }
        },
        jobOptions(obj, requestId, "apply"));
    const json::Value* async = findField(obj, "async");
    if (async != nullptr && async->boolean() != nullptr &&
        *async->boolean()) {
      std::uint64_t jobId = 0;
      {
        const std::lock_guard lock{jobsMutex_};
        jobId = nextJobId_++;
        jobs_.emplace(jobId, AsyncJob{handle, session, result, {}});
      }
      json::Writer w;
      w.beginObject();
      w.field("ok", true);
      w.field("job", static_cast<std::size_t>(jobId));
      w.endObject();
      return w.take();
    }
    handle->wait();
    logRequest("apply", requestId, sessionId, *handle,
               session->gatesApplied(), result->planCacheHits);
    if (handle->state() != JobState::Done) {
      return jobFailureResponse(*handle);
    }
    json::Writer w;
    w.beginObject();
    w.field("ok", true);
    w.field("applied", result->applied);
    w.field("total_gates", session->gatesApplied());
    w.endObject();
    std::string response = w.take();
    if (wantTiming) {
      appendJobTiming(response, *handle);
    }
    return response;
  }

  if (op == "sample") {
    const auto shots =
        static_cast<std::size_t>(requireUInt(obj, "shots", 10'000'000));
    auto outcomes = std::make_shared<std::vector<Index>>();
    const JobHandle handle = manager_.submit(
        session,
        [shots, outcomes](Session& s, const par::CancelToken&) {
          *outcomes = s.sample(shots);
        },
        jobOptions(obj, requestId, "sample"));
    handle->wait();
    logRequest("sample", requestId, sessionId, *handle,
               session->gatesApplied(), 0);
    if (handle->state() != JobState::Done) {
      return jobFailureResponse(*handle);
    }
    std::map<Index, std::size_t> counts;
    for (const Index i : *outcomes) {
      ++counts[i];
    }
    json::Writer w;
    w.beginObject();
    w.field("ok", true);
    w.field("shots", shots);
    w.beginObjectIn("counts");
    for (const auto& [index, count] : counts) {
      w.field(std::to_string(index), count);
    }
    w.endObject();
    w.endObject();
    std::string response = w.take();
    if (wantTiming) {
      appendJobTiming(response, *handle);
    }
    return response;
  }

  if (op == "amplitude") {
    // Backends index the state array directly — an unchecked index would be
    // an out-of-bounds read on behalf of the client.
    const double raw = requireNumber(obj, "index");
    if (!std::isfinite(raw) || raw < 0 || std::floor(raw) != raw ||
        raw >= std::ldexp(1.0, session->numQubits())) {
      throw std::invalid_argument(
          "field 'index' must be an integer in [0, 2^" +
          std::to_string(session->numQubits()) + ")");
    }
    const auto index = static_cast<Index>(raw);
    auto value = std::make_shared<Complex>();
    const JobHandle handle = manager_.submit(
        session,
        [index, value](Session& s, const par::CancelToken&) {
          *value = s.amplitude(index);
        },
        jobOptions(obj, requestId, "amplitude"));
    handle->wait();
    logRequest("amplitude", requestId, sessionId, *handle,
               session->gatesApplied(), 0);
    if (handle->state() != JobState::Done) {
      return jobFailureResponse(*handle);
    }
    json::Writer w;
    w.beginObject();
    w.field("ok", true);
    w.field("re", value->real());
    w.field("im", value->imag());
    w.endObject();
    std::string response = w.take();
    if (wantTiming) {
      appendJobTiming(response, *handle);
    }
    return response;
  }

  if (op == "report") {
    auto report = std::make_shared<engine::RunReport>();
    const JobHandle handle = manager_.submit(
        session,
        [report](Session& s, const par::CancelToken&) {
          *report = s.report();
        },
        jobOptions(obj, requestId, "report"));
    handle->wait();
    if (handle->state() != JobState::Done) {
      return jobFailureResponse(*handle);
    }
    // RunReport::toJson() is already a JSON object — splice it verbatim.
    return std::string{"{\"ok\":true,\"report\":"} + report->toJson() + "}";
  }

  if (op == "checkpoint") {
    auto id = std::make_shared<std::uint64_t>(0);
    const JobHandle handle = manager_.submit(
        session,
        [id](Session& s, const par::CancelToken&) { *id = s.checkpoint(); },
        jobOptions(obj, requestId, "checkpoint"));
    handle->wait();
    if (handle->state() != JobState::Done) {
      return jobFailureResponse(*handle);
    }
    json::Writer w;
    w.beginObject();
    w.field("ok", true);
    w.field("checkpoint", static_cast<std::size_t>(*id));
    w.endObject();
    return w.take();
  }

  if (op == "restore") {
    const std::uint64_t checkpointId = getU64(obj, "checkpoint", 0);
    const JobHandle handle = manager_.submit(
        session,
        [checkpointId](Session& s, const par::CancelToken&) {
          s.restore(checkpointId);
        },
        jobOptions(obj, requestId, "restore"));
    handle->wait();
    if (handle->state() != JobState::Done) {
      return jobFailureResponse(*handle);
    }
    json::Writer w;
    w.beginObject();
    w.field("ok", true);
    w.field("total_gates", session->gatesApplied());
    w.endObject();
    return w.take();
  }

  if (op == "release") {
    const std::uint64_t checkpointId = getU64(obj, "checkpoint", 0);
    // Read the count inside the serialized job — checkpoints_ is not safe
    // to inspect from the handler thread.
    auto remaining = std::make_shared<std::size_t>(0);
    const JobHandle handle = manager_.submit(
        session,
        [checkpointId, remaining](Session& s, const par::CancelToken&) {
          s.release(checkpointId);
          *remaining = s.checkpointCount();
        },
        jobOptions(obj, requestId, "release"));
    handle->wait();
    if (handle->state() != JobState::Done) {
      return jobFailureResponse(*handle);
    }
    json::Writer w;
    w.beginObject();
    w.field("ok", true);
    w.field("checkpoints", *remaining);
    w.endObject();
    return w.take();
  }

  throw std::invalid_argument("unknown op '" + op + "'");
}

}  // namespace fdd::svc
