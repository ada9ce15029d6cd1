// The serve workload: an in-process Service with the default ServiceConfig,
// driven through handleLine by nproc client threads. Each client keeps a
// fixed number of sessions open (a closed loop with no think time): a
// session sends its next request as soon as the previous one is answered,
// and a client starts a new session as soon as one of its sessions closes.
// Every request is timed from when it was due, i.e. from the previous
// answer of its session. Applies are async and collected with `job`, so a
// client keeps several sessions in flight and the job queue really queues.
// Every session is then replayed alone on a single-worker service: its
// sample answers must match the replay's byte for byte and its amplitudes
// within kAmplitudeTol.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "engine/run_report.hpp"
#include "layers.hpp"
#include "metrics.hpp"
#include "process.hpp"
#include "qasm/parser.hpp"
#include "service/protocol.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace pb {

using fdd::engine::RunReport;
using fdd::svc::Service;
using fdd::svc::ServiceConfig;

namespace {

enum class Step : std::uint8_t {
  Open, Apply, Sample, Amplitude, Checkpoint, Restore, Report, Close
};

const char* stepName(Step s) {
  switch (s) {
    case Step::Open: return "protocol.open";
    case Step::Apply: return "protocol.apply";
    case Step::Sample: return "protocol.sample";
    case Step::Amplitude: return "protocol.amplitude";
    case Step::Checkpoint: return "protocol.checkpoint";
    case Step::Restore: return "protocol.restore";
    case Step::Report: return "protocol.report";
    case Step::Close: return "protocol.close";
  }
  return "protocol.?";
}

struct StepSpec {
  Step kind = Step::Open;
  std::size_t batch = 0;      // Apply
  std::size_t amplitude = 0;  // Amplitude: index into amplitudeIndices
};

/// open; per batch: apply, sample, amplitude reads, with a checkpoint after
/// the first batch and a restore to it before the last (branch) batch;
/// [report]; close.
std::vector<StepSpec> stepsFor(const SessionScript& s, bool withReport) {
  std::vector<StepSpec> steps{{Step::Open}};
  for (std::size_t b = 0; b < s.batches.size(); ++b) {
    if (b + 1 == s.batches.size()) {
      steps.push_back({Step::Restore});
    }
    steps.push_back({Step::Apply, b});
    steps.push_back({Step::Sample, b});
    for (std::size_t r = 0; r < kAmplitudeReads; ++r) {
      steps.push_back({Step::Amplitude, b, b * kAmplitudeReads + r});
    }
    if (b == 0) {
      steps.push_back({Step::Checkpoint});
    }
  }
  if (withReport) {
    steps.push_back({Step::Report});
  }
  steps.push_back({Step::Close});
  return steps;
}

std::string requestLine(const SessionScript& s, const StepSpec& step,
                        std::uint64_t session, std::uint64_t checkpoint,
                        bool async, std::uint64_t requestId) {
  fdd::json::Writer w;
  w.beginObject();
  switch (step.kind) {
    case Step::Open:
      w.field("op", "open");
      w.field("backend", "flatdd");
      w.field("qubits", static_cast<int>(s.qubits));
      w.field("seed", std::to_string(s.seed));
      break;
    case Step::Apply:
      w.field("op", "apply");
      w.field("session", static_cast<std::size_t>(session));
      w.field("qasm", s.batches[step.batch]);
      w.field("async", async);
      break;
    case Step::Sample:
      w.field("op", "sample");
      w.field("session", static_cast<std::size_t>(session));
      w.field("shots", kServeShots);
      w.field("timing", true);
      break;
    case Step::Amplitude:
      w.field("op", "amplitude");
      w.field("session", static_cast<std::size_t>(session));
      w.field("index",
              static_cast<std::size_t>(s.amplitudeIndices[step.amplitude]));
      w.field("timing", true);
      break;
    case Step::Checkpoint:
      w.field("op", "checkpoint");
      w.field("session", static_cast<std::size_t>(session));
      break;
    case Step::Restore:
      w.field("op", "restore");
      w.field("session", static_cast<std::size_t>(session));
      w.field("checkpoint", static_cast<std::size_t>(checkpoint));
      break;
    case Step::Report:
      w.field("op", "report");
      w.field("session", static_cast<std::size_t>(session));
      break;
    case Step::Close:
      w.field("op", "close");
      w.field("session", static_cast<std::size_t>(session));
      break;
  }
  w.field("request_id", std::to_string(requestId));
  w.endObject();
  return w.take();
}

bool isOk(const std::string& response) {
  return response.rfind("{\"ok\":true", 0) == 0;
}

double numberField(const std::string& response, const char* key) {
  const fdd::json::Value v = fdd::json::parse(response);
  if (const fdd::json::Object* o = v.object()) {
    if (const auto it = o->find(key); it != o->end()) {
      if (const double* d = it->second.number()) {
        return *d;
      }
    }
  }
  throw std::runtime_error(std::string{"response lacks '"} + key +
                           "': " + response);
}

std::string stringField(const std::string& response, const char* key) {
  const fdd::json::Value v = fdd::json::parse(response);
  if (const fdd::json::Object* o = v.object()) {
    if (const auto it = o->find(key); it != o->end()) {
      if (const std::string* s = it->second.string()) {
        return *s;
      }
    }
  }
  return "";
}

/// The response payload without the fields that differ run to run by
/// construction (timing and request id are spliced on after the payload).
std::string normalizeBody(std::string body) {
  for (const char* key : {",\"queue_wait_us\":", ",\"request_id\":\""}) {
    if (const std::size_t pos = body.find(key); pos != std::string::npos) {
      body.erase(pos);
      body += '}';
    }
  }
  return body;
}

/// True when both answers are amplitudes within kAmplitudeTol.
bool sameAmplitude(const std::string& a, const std::string& b) {
  try {
    return std::abs(numberField(a, "re") - numberField(b, "re")) <=
               kAmplitudeTol &&
           std::abs(numberField(a, "im") - numberField(b, "im")) <=
               kAmplitudeTol;
  } catch (const std::exception&) {
    return false;  // not amplitude answers: they must be identical
  }
}

/// The RunReport spliced verbatim into a `report` response.
RunReport reportFrom(const std::string& response) {
  constexpr std::string_view kPrefix = "{\"ok\":true,\"report\":";
  const std::size_t end = response.rfind(",\"request_id\"");
  if (response.rfind(kPrefix, 0) != 0 || end == std::string::npos) {
    throw std::runtime_error("malformed report response");
  }
  return RunReport::fromJson(
      std::string_view{response}.substr(kPrefix.size(),
                                        end - kPrefix.size()));
}

/// One answered request, as the client saw it.
struct OpRecord {
  Step kind = Step::Open;
  double latency = 0;  // answer - due, seconds
  double genLag = 0;   // sent - due
  double wall = 0;     // handleLine wall time (Apply: submit only)
  double queueWaitUs = -1;  // "timing":true fields, when present
  double execUs = -1;
};

/// A session in flight on one client thread.
struct Live {
  SessionScript script;
  std::vector<StepSpec> steps;
  std::size_t next = 0;
  std::uint64_t session = 0;
  std::uint64_t checkpoint = 0;
  std::uint64_t job = 0;
  Clock::time_point due;      // of steps[next]: the previous answer
  Clock::time_point started;  // when the session was due to open
  Clock::time_point applySent;
  bool failed = false;
  /// Open due -> close answered: the sum of the session's request
  /// latencies, since each request is due when the previous one answered.
  double sessionSeconds = 0;
  double closedAt = 0;        // close answered, seconds into the window
  std::vector<std::string> bodies;  // normalized sample/amplitude answers
  std::optional<RunReport> report;
  std::vector<OpRecord> ops;
  std::size_t attempted = 0;
  std::size_t failedOps = 0;
  std::string error;
};

std::uint64_t requestIdFor(const Live& l) {
  return (l.script.index + 1) * 100 + l.next;
}

/// Marks the current step failed and every later one unattempted-as-failed,
/// then jumps to close (if the session was opened) so it does not leak.
void fail(Live& l, const std::string& response) {
  if (l.error.empty()) {
    l.error = std::string{stepName(l.steps[l.next].kind)} + ": " + response;
  }
  l.failed = true;
  ++l.failedOps;
  const std::size_t closeIdx = l.steps.size() - 1;
  const std::size_t skipped = closeIdx > l.next ? closeIdx - l.next - 1 : 0;
  l.attempted += skipped;
  l.failedOps += skipped;
  l.next = l.session != 0 && l.next < closeIdx ? closeIdx : l.steps.size();
}

/// Sends steps[next] (Apply: submits it async). Returns true when the step
/// finished synchronously and `next` advanced.
bool sendStep(Service& svc, Live& l, Clock::time_point origin, bool async,
              SpanLog& spans) {
  const StepSpec& step = l.steps[l.next];
  const std::uint64_t rid = requestIdFor(l);
  const std::string line =
      requestLine(l.script, step, l.session, l.checkpoint, async, rid);
  const Clock::time_point sent = Clock::now();
  const std::string response = svc.handleLine(line);
  const Clock::time_point answered = Clock::now();
  spans.record(stepName(step.kind), rid, sent, answered);
  ++l.attempted;
  if (!isOk(response)) {
    fail(l, response);
    return true;
  }
  OpRecord op{step.kind, secondsBetween(l.due, answered),
              secondsBetween(l.due, sent), secondsBetween(sent, answered)};
  try {
    switch (step.kind) {
      case Step::Open:
        l.session =
            static_cast<std::uint64_t>(numberField(response, "session"));
        break;
      case Step::Apply:
        if (async) {
          l.job = static_cast<std::uint64_t>(numberField(response, "job"));
          l.applySent = sent;
          l.ops.push_back(op);  // latency set when the job is collected
          return false;
        }
        break;
      case Step::Sample:
      case Step::Amplitude:
        op.queueWaitUs = numberField(response, "queue_wait_us");
        op.execUs = numberField(response, "exec_us");
        l.bodies.push_back(normalizeBody(response));
        break;
      case Step::Checkpoint:
        l.checkpoint =
            static_cast<std::uint64_t>(numberField(response, "checkpoint"));
        break;
      case Step::Report:
        l.report = reportFrom(response);
        break;
      case Step::Restore:
      case Step::Close:
        break;
    }
  } catch (const std::exception& e) {
    fail(l, e.what());
    return true;
  }
  l.ops.push_back(op);
  if (step.kind == Step::Close) {
    l.sessionSeconds = secondsBetween(l.started, answered);
    l.closedAt = secondsBetween(origin, answered);
  }
  ++l.next;
  l.due = answered;
  return true;
}

/// Polls the session's async apply. Returns true once it left the queue.
bool pollApply(Service& svc, Live& l, double waitMs, SpanLog& spans) {
  fdd::json::Writer w;
  w.beginObject();
  w.field("op", "job");
  w.field("job", static_cast<std::size_t>(l.job));
  w.field("wait_ms", waitMs);
  w.endObject();
  const std::string response = svc.handleLine(w.take());
  const std::string state = isOk(response) ? stringField(response, "state")
                                           : std::string{"failed"};
  if (state == "queued" || state == "running") {
    return false;
  }
  const Clock::time_point answered = Clock::now();
  spans.record("job.apply", requestIdFor(l), l.applySent, answered);
  if (state != "done") {
    l.ops.pop_back();  // the submit record; fail() counts the op
    fail(l, response);
    return true;
  }
  OpRecord& op = l.ops.back();
  op.latency = secondsBetween(l.due, answered);
  ++l.next;
  l.due = answered;
  return true;
}

/// Sessions one client keeps open at once. With nproc clients, twice as
/// many sessions as workers are in flight, so the job queue always holds
/// work while the number of live sessions (and their memory) stays fixed.
constexpr std::size_t kSessionsPerClient = 2;
/// Sessions a traced run replays one at a time for apply_inflation.
constexpr std::size_t kAloneReplays = 48;

/// Starts sessions for the clients until the window closes. Each session's
/// script is generated when it starts; `lives` keeps every started session
/// in index order (a deque, so the clients' pointers stay valid).
struct SessionSource {
  SessionSource(const SessionScripts& s, bool withReport,
                Clock::time_point closes)
      : scripts{s}, traced{withReport}, closesAt{closes} {}

  const SessionScripts& scripts;
  const bool traced;  // sessions send a `report` before closing
  const Clock::time_point closesAt;
  std::mutex mutex;
  std::deque<Live> lives;  // guarded by mutex while the clients run

  Live* take() {
    if (Clock::now() >= closesAt) {
      return nullptr;
    }
    const std::lock_guard lock{mutex};
    Live& l = lives.emplace_back();
    l.script = scripts.at(lives.size() - 1);
    l.steps = stepsFor(l.script, traced);
    return &l;
  }
};

/// One client thread: keeps kSessionsPerClient sessions open as an event
/// loop (a session whose apply is queued does not hold the thread) and
/// starts the next session as soon as one closes, until the window closes.
void runClient(Service& svc, SessionSource& source, Clock::time_point origin,
               SpanLog& spans) {
  using Entry = std::pair<Clock::time_point, Live*>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> ready;
  std::vector<Live*> inFlight;  // async applies awaiting `job`
  std::size_t open = 0;
  const auto start = [&](Clock::time_point due) {
    if (Live* l = source.take()) {
      l->due = due;
      l->started = due;
      ready.emplace(due, l);
      ++open;
    }
  };
  const auto advance = [&](Live* l) {
    if (l->next < l->steps.size()) {
      ready.emplace(l->due, l);
      return;
    }
    --open;
    start(l->due);
  };
  for (std::size_t i = 0; i < kSessionsPerClient; ++i) {
    start(origin);
  }
  while (open > 0) {
    for (auto it = inFlight.begin(); it != inFlight.end();) {
      if (pollApply(svc, **it, 0, spans)) {
        Live* l = *it;
        it = inFlight.erase(it);
        advance(l);
      } else {
        ++it;
      }
    }
    if (!ready.empty() && ready.top().first <= Clock::now()) {
      Live* l = ready.top().second;
      ready.pop();
      if (sendStep(svc, *l, origin, true, spans)) {
        advance(l);
      } else {
        inFlight.push_back(l);
      }
      continue;
    }
    // Nothing due: wait for the next due request, watching the oldest
    // queued apply (at most 1 ms, so the others are collected promptly).
    Clock::time_point wake = Clock::now() + std::chrono::milliseconds{1};
    if (!ready.empty()) {
      wake = std::min(wake, ready.top().first);
    }
    if (!inFlight.empty()) {
      const double waitMs =
          std::max(0.0, secondsBetween(Clock::now(), wake) * 1e3);
      if (pollApply(svc, *inFlight.front(), waitMs, spans)) {
        Live* l = inFlight.front();
        inFlight.erase(inFlight.begin());
        advance(l);
      }
    } else {
      std::this_thread::sleep_until(wake);
    }
  }
}

/// Replays one session alone on a fresh single-worker service (synchronous
/// applies). Returns its normalized answers and its report.
struct Replay {
  std::vector<std::string> bodies;
  std::optional<RunReport> report;
  std::string error;
};

Replay replay(const SessionScript& script) {
  ServiceConfig config;
  config.workers = 1;
  Service svc{config};
  SpanLog none{false};
  Live l;
  l.script = script;
  l.steps = stepsFor(script, true);
  l.due = Clock::now();
  while (l.next < l.steps.size()) {
    sendStep(svc, l, l.due, false, none);
  }
  return {std::move(l.bodies), std::move(l.report), l.error};
}

/// Opens, applies one batch to, samples and closes one session per width:
/// the set-up warm-up.
void warmUp(Service& svc, const SessionScripts& scripts) {
  for (std::size_t w = 0; w < std::size(kSessionWidths); ++w) {
    Live l;
    l.script = scripts.at(2 * w);  // kinds rotate: 2w has the w-th width
    l.script.batches.resize(1);
    l.steps = {{Step::Open}, {Step::Apply, 0}, {Step::Sample}, {Step::Close}};
    l.due = Clock::now();
    SpanLog none{false};
    while (l.next < l.steps.size()) {
      sendStep(svc, l, l.due, false, none);
    }
    if (l.failed) {
      throw std::runtime_error("warm-up failed: " + l.error);
    }
  }
}

/// Highest healthz in-flight count (queued + stashed + running jobs).
double inflightNow(Service& svc) {
  const fdd::json::Value v = fdd::json::parse(svc.healthzJson());
  const fdd::json::Object* q = nullptr;
  if (const fdd::json::Object* o = v.object()) {
    if (const auto it = o->find("queue"); it != o->end()) {
      q = it->second.object();
    }
  }
  double total = 0;
  if (q != nullptr) {
    for (const char* key : {"depth", "stashed", "running"}) {
      if (const auto it = q->find(key); it != q->end()) {
        if (const double* d = it->second.number()) {
          total += *d;
        }
      }
    }
  }
  return total;
}

/// Key of a session kind. The p50s are geometric means over kinds: widths
/// 10..14 differ in cost by ~10x, so a pooled median would sit on the
/// border between two kinds.
int kindOf(const SessionScript& s) {
  return static_cast<int>(s.qubits) * 2 + (s.templated ? 1 : 0);
}

}  // namespace

Result runServe(const RunConfig& config) {
  Result result;

  // ---- set-up: from process start to the first timed op ----------------
  // Template ansatz generated, Service built, and one session per width
  // opened, applied, sampled and closed.
  const SessionScripts scripts{config.seed};
  const auto service = std::make_unique<Service>(ServiceConfig{});
  warmUp(*service, scripts);
  result.metrics["setup_s"] = secondsBetween(kProcessStart, Clock::now());
  if (config.setupOnly) {
    return result;
  }

  // ---- the timed window ---------------------------------------------------
  SpanLog spans{config.trace};
  const unsigned clients = std::max(1U, config.threads);
  std::atomic<bool> windowDone{false};
  std::atomic<double> inflightMax{0};
  std::thread monitor;
  if (config.trace) {
    monitor = std::thread{[&] {
      while (!windowDone.load()) {
        const double now = inflightNow(*service);
        if (now > inflightMax.load()) {
          inflightMax.store(now);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds{5});
      }
    }};
  }
  const double cpu0 = cpuSeconds();
  const Clock::time_point origin = Clock::now();
  SessionSource source{scripts, config.trace,
                       origin + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(
                                        config.seconds))};
  {
    std::vector<std::jthread> threads;
    for (unsigned c = 0; c < clients; ++c) {
      threads.emplace_back(runClient, std::ref(*service), std::ref(source),
                           origin, std::ref(spans));
    }
  }
  std::deque<Live>& lives = source.lives;
  const std::size_t started = lives.size();
  const double windowSeconds = secondsBetween(origin, Clock::now());
  const double cpuWindow = cpuSeconds() - cpu0;
  windowDone.store(true);
  if (monitor.joinable()) {
    monitor.join();
  }
  result.metrics["peak_rss_mb"] = peakRssMb();

  // ---- verification: every session against a replay of it alone --------
  // Replays run on `clients` threads at once. A traced run first replays
  // its first kAloneReplays sessions one at a time: the apply exec time of
  // a session alone, the base of service.apply_inflation.
  std::vector<Replay> replays(started);
  std::size_t alone = 0;
  if (config.trace) {
    for (; alone < std::min(kAloneReplays, started); ++alone) {
      replays[alone] = replay(lives[alone].script);
    }
  }
  {
    std::atomic<std::size_t> nextReplay{alone};
    const auto worker = [&] {
      for (std::size_t i = nextReplay++; i < started; i = nextReplay++) {
        replays[i] = replay(lives[i].script);
      }
    };
    std::vector<std::jthread> threads;
    for (unsigned c = 0; c < clients; ++c) {
      threads.emplace_back(worker);
    }
  }
  std::vector<std::string> failures;
  std::size_t nonIdentical = 0;
  std::vector<std::string> nonIdenticalNotes;
  for (std::size_t i = 0; i < started; ++i) {
    Live& l = lives[i];
    result.attempted += l.attempted;
    result.failed += l.failedOps;
    std::string why = l.error;
    if (why.empty() && !replays[i].error.empty()) {
      why = "replay failed: " + replays[i].error;
      ++result.failed;
    } else if (why.empty()) {
      for (std::size_t b = 0; b < l.bodies.size(); ++b) {
        const std::string* alone =
            b < replays[i].bodies.size() ? &replays[i].bodies[b] : nullptr;
        if (alone != nullptr && *alone == l.bodies[b]) {
          continue;
        }
        if (alone != nullptr && sameAmplitude(*alone, l.bodies[b])) {
          ++nonIdentical;
          if (nonIdenticalNotes.size() < 4) {
            nonIdenticalNotes.push_back(
                "session " + std::to_string(i) + " answer " +
                std::to_string(b) + ": " + l.bodies[b] + " alone: " + *alone);
          }
          continue;
        }
        ++result.failed;
        if (why.empty()) {
          why = "answer " + std::to_string(b) +
                " differs from the replay alone: " +
                l.bodies[b].substr(0, 160) + " vs " +
                (alone != nullptr ? alone->substr(0, 160) : "(none)");
        }
      }
    }
    if (!why.empty() && failures.size() < 8) {
      failures.push_back("session " + std::to_string(i) + ": " + why);
    }
  }
  for (const std::string& f : failures) {
    result.notes.push_back("FAILED " + f);
  }
  if (nonIdentical > 0) {
    result.notes.push_back(
        std::to_string(nonIdentical) +
        " amplitude answers match the replay alone only within 1e-8, not "
        "bit for bit (FINDINGS.md, finding 3); e.g.");
    for (const std::string& n : nonIdenticalNotes) {
      result.notes.push_back("  " + n);
    }
  }

  // ---- end-to-end metrics -------------------------------------------------
  std::map<int, std::vector<double>> sessionByKind, applyByKind, readByKind;
  std::vector<double> sessionAll, applyAll, readAll, genLag;
  std::size_t completed = 0;
  double lastAnswer = 0;
  for (const Live& l : lives) {
    const int kind = kindOf(l.script);
    if (!l.failed) {
      ++completed;
      sessionByKind[kind].push_back(l.sessionSeconds * 1e3);
      sessionAll.push_back(l.sessionSeconds * 1e3);
      lastAnswer = std::max(lastAnswer, l.closedAt);
    }
    for (const OpRecord& op : l.ops) {
      genLag.push_back(op.genLag * 1e3);
      if (op.kind == Step::Apply || op.kind == Step::Restore) {
        applyByKind[kind].push_back(op.latency * 1e3);
        applyAll.push_back(op.latency * 1e3);
      } else if (op.kind == Step::Sample || op.kind == Step::Amplitude) {
        readByKind[kind].push_back(op.latency * 1e3);
        readAll.push_back(op.latency * 1e3);
      }
    }
  }
  const auto kindGeomean = [](const std::map<int, std::vector<double>>& by) {
    std::vector<double> medians;
    for (const auto& [kind, samples] : by) {
      medians.push_back(median(samples));
    }
    return geomean(medians);
  };
  bool tailsOk = true;
  result.metrics["circuit_ms_p50"] = kindGeomean(sessionByKind);
  tailsOk &= putTail(result.metrics, result.notes, "circuit_ms_tail",
                     sessionAll);
  result.metrics["circuits_per_s"] =
      ratio(static_cast<double>(completed), lastAnswer);
  result.metrics["apply_ms_p50"] = kindGeomean(applyByKind);
  tailsOk &= putTail(result.metrics, result.notes, "apply_ms_tail", applyAll);
  result.metrics["read_ms_p50"] = kindGeomean(readByKind);
  tailsOk &= putTail(result.metrics, result.notes, "read_ms_tail", readAll);
  if (!tailsOk) {
    ++result.failed;
  }
  for (const auto& [kind, samples] : sessionByKind) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "  %2d qubits %-9s n=%zu  session p50 %.3f ms  apply p50 "
                  "%.3f ms  read p50 %.3f ms",
                  kind / 2, kind % 2 == 1 ? "template" : "unique",
                  samples.size(), median(samples), median(applyByKind[kind]),
                  median(readByKind[kind]));
    result.notes.emplace_back(line);
  }
  {
    char line[200];
    std::snprintf(line, sizeof line,
                  "sessions %zu completed of %zu started by %u clients x %zu "
                  "in flight; window %.2f s",
                  completed, started, clients, kSessionsPerClient,
                  windowSeconds);
    result.notes.emplace_back(line);
  }

  if (!config.trace) {
    return result;
  }

  // ---- per-layer metrics (traced run) -------------------------------------
  auto& m = result.metrics;
  for (const MetricDef& def : kPerLayer) {
    m.try_emplace(std::string{def.name}, 0);  // layers not loaded read 0
  }
  std::vector<double> queueWait, execSample, execAmplitude, protocol, opens,
      applyExecLoaded, inflationLoaded, applyExecAlone;
  std::map<fdd::Qubit, std::vector<double>> templatePeaks;
  double totalOp = 0, sumQueueWait = 0, sumExec = 0, sumProtocol = 0,
         sumGenLag = 0, reportTime = 0, applyEngine = 0;
  LayerSums layers;
  for (std::size_t i = 0; i < lives.size(); ++i) {
    const Live& l = lives[i];
    for (const OpRecord& op : l.ops) {
      totalOp += op.latency;
      sumGenLag += op.genLag;
      if (op.kind == Step::Open) {
        opens.push_back(op.wall * 1e3);
      }
      if (op.kind == Step::Report) {
        reportTime += op.latency;
      }
      if (op.queueWaitUs >= 0) {
        queueWait.push_back(op.queueWaitUs * 1e-3);
        (op.kind == Step::Sample ? execSample : execAmplitude)
            .push_back(op.execUs * 1e-3);
        const double protocolUs =
            std::max(0.0, op.wall * 1e6 - op.queueWaitUs - op.execUs);
        protocol.push_back(protocolUs);
        sumQueueWait += op.queueWaitUs * 1e-6;
        sumExec += op.execUs * 1e-6;
        sumProtocol += protocolUs * 1e-6;
      }
    }
    if (!l.report) {
      continue;
    }
    const RunReport& r = *l.report;
    layers.add(r);
    const auto applies = static_cast<double>(l.script.batches.size());
    applyExecLoaded.push_back(r.totalSeconds / applies * 1e3);
    if (i < alone && replays[i].report) {
      inflationLoaded.push_back(r.totalSeconds / applies);
      applyExecAlone.push_back(replays[i].report->totalSeconds / applies);
    }
    applyEngine += r.totalSeconds;
    if (l.script.templated) {
      templatePeaks[l.script.qubits].push_back(
          static_cast<double>(r.peakDDSize));
    }
  }
  sumExec += applyEngine;
  m["service.queue_wait_ms_p50"] = median(queueWait);
  putTail(m, result.notes, "service.queue_wait_ms_tail", queueWait);
  m["service.exec_ms_p50.apply"] = median(applyExecLoaded);
  m["service.exec_ms_p50.sample"] = median(execSample);
  m["service.exec_ms_p50.amplitude"] = median(execAmplitude);
  m["service.protocol_us_p50"] = median(protocol);
  m["service.apply_inflation"] =
      ratio(median(inflationLoaded), median(applyExecAlone));
  m["service.inflight_max"] = inflightMax.load();
  m["service.nonidentical_answers"] = static_cast<double>(nonIdentical);
  putTail(m, result.notes, "service.gen_lag_ms_tail", genLag);
  m["engine.begin_ms"] = median(opens);
  m["sim.sample_ms"] = median(execSample);
  m["parallel.cpu_util"] =
      ratio(cpuWindow, windowSeconds * static_cast<double>(clients));

  // qasm: the parser alone on every apply's text.
  {
    double parseSeconds = 0;
    std::size_t gates = 0;
    for (const Live& l : lives) {
      for (const std::string& text : l.script.batches) {
        const Clock::time_point t0 = Clock::now();
        const fdd::qc::Circuit c = fdd::qasm::parse(text);
        parseSeconds += secondsBetween(t0, Clock::now());
        gates += c.numGates();
      }
    }
    m["qasm.parse_us_per_gate"] =
        ratio(parseSeconds, static_cast<double>(gates)) * 1e6;
  }

  // Template sessions of one width apply the same gates, so they should
  // reach the same peak DD size.
  putLayerMetrics(m, layers, totalOp);
  double spread = 0;
  for (const auto& [width, peaks] : templatePeaks) {
    const auto [lo, hi] = std::minmax_element(peaks.begin(), peaks.end());
    spread = std::max(spread, ratio(*hi - *lo, *lo));
  }
  m["dd.peak_nodes_spread"] = spread;

  // Layer budget over the clients' op time. Apply queue wait is not
  // returned by the protocol for async applies, so it stays uncovered.
  const double covered = sumGenLag + sumProtocol + sumQueueWait + sumExec;
  m["coverage"] = ratio(covered, totalOp);
  // The traced run adds one `report` request per session; its client time
  // against the rest is the tracing overhead.
  m["trace_overhead"] = ratio(reportTime, totalOp - reportTime);
  putBudget(result.notes,
            "layer budget (share of client op time " +
                std::to_string(totalOp) + " s):",
            {{"client.gen_lag", sumGenLag},
             {"service.protocol (reads)", sumProtocol},
             {"service.queue_wait (reads)", sumQueueWait},
             {"service.exec (reads + apply engine)", sumExec}},
            totalOp);
  putBudget(result.notes,
            "apply engine time by phase (session reports; phase fields hold "
            "only the last simulate call):",
            layers.rows(), applyEngine);

  if (!config.tracePath.empty()) {
    result.notes.push_back(spans.writeChromeTrace(config.tracePath)
                               ? "trace: " + config.tracePath + " (" +
                                     std::to_string(spans.size()) + " spans)"
                               : "could not write trace " + config.tracePath);
  }
  return result;
}

}  // namespace pb
