// bench/serve — load generator for the simulation service. Drives N
// concurrent sessions through the line-delimited JSON protocol, measures
// per-request latency and sustained throughput, and verifies every
// concurrent session's outputs against an isolated sequential replay (same
// seed, same gates ⇒ identical samples and amplitudes, since per-session
// jobs are FIFO and sampling consumes a session-seeded PRNG stream).
//
// Default is in-process (a Service object, protocol exercised via
// handleLine from one client thread per session). With --tcp PORT it
// connects to a running `flatdd_serve --tcp PORT` instead, sending the same
// traffic over loopback sockets — that mode measures the full wire path.
//
// Emits BENCH_serve.json: sessions, total jobs, jobs/sec, p50/p99 latency,
// a per-op (apply/sample/amplitude) breakdown splitting each op's latency
// into queue-wait vs execute (from the service's "timing":true response
// fields), and the verification verdict. CI gates on `verified` and a p99
// sanity bound.
//
// Every request carries a deterministic request id
// (1000000*(session_index+1) + sequence), so any row in the bench output is
// joinable against the server's trace (`trace_summarize --by-request`) and
// slow-request log.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "circuits/generators.hpp"
#include "common/json.hpp"
#include "service/protocol.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using fdd::Qubit;
using fdd::svc::Service;
using fdd::svc::ServiceConfig;

struct Options {
  unsigned sessions = 8;
  Qubit qubits = 10;
  std::size_t gatesPerApply = 120;
  unsigned applies = 4;       // apply batches per session
  std::size_t shots = 256;    // per sample request (one after every apply)
  unsigned workers = 4;
  unsigned threads = 1;
  std::uint64_t baseSeed = 2026;
  int tcpPort = -1;           // <0: in-process
  std::string jsonPath = "BENCH_serve.json";
};

Options parseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(arg + " expects a value");
      }
      return argv[++i];
    };
    if (arg == "--sessions") {
      opt.sessions = static_cast<unsigned>(std::stoul(value()));
    } else if (arg == "--qubits") {
      opt.qubits = static_cast<Qubit>(std::stoi(value()));
    } else if (arg == "--gates") {
      opt.gatesPerApply = std::stoul(value());
    } else if (arg == "--applies") {
      opt.applies = static_cast<unsigned>(std::stoul(value()));
    } else if (arg == "--shots") {
      opt.shots = std::stoul(value());
    } else if (arg == "--workers") {
      opt.workers = static_cast<unsigned>(std::stoul(value()));
    } else if (arg == "--threads") {
      opt.threads = static_cast<unsigned>(std::stoul(value()));
    } else if (arg == "--seed") {
      opt.baseSeed = std::stoull(value());
    } else if (arg == "--tcp") {
      opt.tcpPort = std::stoi(value());
    } else if (arg == "--json") {
      opt.jsonPath = value();
    } else {
      throw std::invalid_argument("unknown option " + arg);
    }
  }
  return opt;
}

/// One client's connection to the service: in-process handleLine or a
/// buffered loopback socket, same request/response contract either way.
class Transport {
 public:
  Transport(Service* inProcess, int tcpPort) : service_{inProcess} {
    if (service_ != nullptr) {
      return;
    }
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      throw std::runtime_error("socket() failed");
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(tcpPort));
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
      ::close(fd_);
      throw std::runtime_error("connect() to 127.0.0.1:" +
                               std::to_string(tcpPort) + " failed");
    }
  }
  ~Transport() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  std::string request(const std::string& line) {
    if (service_ != nullptr) {
      return service_->handleLine(line);
    }
    std::string out = line;
    out += '\n';
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t w = ::write(fd_, out.data() + sent, out.size() - sent);
      if (w <= 0) {
        throw std::runtime_error("socket write failed");
      }
      sent += static_cast<std::size_t>(w);
    }
    for (;;) {
      if (const std::size_t nl = buffer_.find('\n');
          nl != std::string::npos) {
        std::string response = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return response;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) {
        throw std::runtime_error("socket closed mid-response");
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  Service* service_ = nullptr;
  int fd_ = -1;
  std::string buffer_;
};

/// The gate stream for session i: deterministic from (baseSeed, i), so the
/// sequential verification replay regenerates it exactly.
std::vector<fdd::qc::Circuit> sessionBatches(const Options& opt,
                                             unsigned sessionIdx) {
  std::vector<fdd::qc::Circuit> batches;
  batches.reserve(opt.applies);
  for (unsigned b = 0; b < opt.applies; ++b) {
    batches.push_back(fdd::circuits::randomUniversal(
        opt.qubits, opt.gatesPerApply,
        opt.baseSeed + 1000003ULL * sessionIdx + b));
  }
  return batches;
}

/// Deterministic request id for client `index`'s `seq`-th request: joinable
/// against the server's trace and slow log, and collision-free across the
/// bench's clients.
std::uint64_t requestIdFor(unsigned index, std::uint64_t seq) {
  return 1'000'000ULL * (index + 1) + seq;
}

std::string applyRequest(std::uint64_t session, std::uint64_t requestId,
                         const fdd::qc::Circuit& batch) {
  // Ship batches as QASM: one string field instead of hundreds of gate
  // objects keeps request lines compact and exercises the parser path.
  fdd::json::Writer w;
  w.beginObject();
  w.field("op", "apply");
  w.field("session", static_cast<std::size_t>(session));
  w.field("qasm", batch.toQasm());
  w.field("request_id", std::to_string(requestId));
  w.field("timing", true);
  w.endObject();
  return w.take();
}

struct RequestCheck {
  bool ok = false;
  std::string body;
};

/// One op's queue-wait/execute split, parsed from a "timing":true response.
struct OpTiming {
  double totalMs = 0;
  double queueWaitUs = 0;
  double execUs = 0;
};

RequestCheck timedRequest(Transport& transport, const std::string& line,
                          std::vector<double>& latenciesMs) {
  const Clock::time_point t0 = Clock::now();
  const std::string response = transport.request(line);
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  latenciesMs.push_back(ms);
  return RequestCheck{response.find("\"ok\":true") == 1, response};
}

/// Strips the volatile fields the service splices onto responses
/// (queue_wait_us/exec_us/request_id — timing differs run to run by
/// construction) so the byte-for-byte replay comparison sees only payload.
/// Both are appended after the payload, so truncating at the first volatile
/// key is exact.
std::string normalizeBody(std::string body) {
  for (const std::string_view key :
       {std::string_view{",\"queue_wait_us\":"},
        std::string_view{",\"request_id\":\""}}) {
    if (const std::size_t pos = body.find(key); pos != std::string::npos) {
      body.erase(pos);
      body += '}';
    }
  }
  return body;
}

double timingField(const fdd::json::Object& obj, const char* key) {
  if (const auto it = obj.find(key); it != obj.end()) {
    if (const double* d = it->second.number()) {
      return *d;
    }
  }
  return 0;
}

struct SessionResult {
  std::uint64_t sessionId = 0;
  unsigned index = 0;
  std::vector<double> latenciesMs;
  std::vector<std::string> sampleBodies;  // one per sample request
  std::string amplitudeBody;
  std::map<std::string, std::vector<OpTiming>> opTimings;
  bool ok = true;
  std::string error;
};

/// Records the op's latency split from its response body.
void recordOpTiming(SessionResult& result, const char* op,
                    const std::string& body, double totalMs) {
  OpTiming t;
  t.totalMs = totalMs;
  try {
    const fdd::json::Value parsed = fdd::json::parse(body);
    if (const fdd::json::Object* obj = parsed.object()) {
      t.queueWaitUs = timingField(*obj, "queue_wait_us");
      t.execUs = timingField(*obj, "exec_us");
    }
  } catch (const std::exception&) {
    // timing is best-effort diagnostics; a parse failure here must not fail
    // the bench (verification catches real response corruption)
  }
  result.opTimings[op].push_back(t);
}

void runClient(const Options& opt, Service* inProcess, unsigned index,
               SessionResult& result) {
  result.index = index;
  try {
    Transport transport{inProcess, opt.tcpPort};
    const std::uint64_t seed = opt.baseSeed + index;
    std::uint64_t seq = 0;

    fdd::json::Writer open;
    open.beginObject();
    open.field("op", "open");
    open.field("backend", "flatdd");
    open.field("qubits", static_cast<int>(opt.qubits));
    open.field("seed", std::to_string(seed));
    // Pin the thread count: the DMAV task partitioning (and with it the fp
    // summation order) depends on it, and verification compares responses
    // byte-for-byte against a local replay.
    open.field("threads", opt.threads);
    open.field("request_id", std::to_string(requestIdFor(index, seq++)));
    open.endObject();
    const RequestCheck opened =
        timedRequest(transport, open.take(), result.latenciesMs);
    if (!opened.ok) {
      throw std::runtime_error("open failed: " + opened.body);
    }
    const fdd::json::Value openedJson = fdd::json::parse(opened.body);
    const double* sid =
        openedJson.object()->find("session")->second.number();
    result.sessionId = static_cast<std::uint64_t>(*sid);

    for (const fdd::qc::Circuit& batch : sessionBatches(opt, index)) {
      const RequestCheck applied = timedRequest(
          transport,
          applyRequest(result.sessionId, requestIdFor(index, seq++), batch),
          result.latenciesMs);
      if (!applied.ok) {
        throw std::runtime_error("apply failed: " + applied.body);
      }
      recordOpTiming(result, "apply", applied.body,
                     result.latenciesMs.back());
      fdd::json::Writer sample;
      sample.beginObject();
      sample.field("op", "sample");
      sample.field("session", static_cast<std::size_t>(result.sessionId));
      sample.field("shots", opt.shots);
      sample.field("request_id", std::to_string(requestIdFor(index, seq++)));
      sample.field("timing", true);
      sample.endObject();
      const RequestCheck sampled =
          timedRequest(transport, sample.take(), result.latenciesMs);
      if (!sampled.ok) {
        throw std::runtime_error("sample failed: " + sampled.body);
      }
      recordOpTiming(result, "sample", sampled.body,
                     result.latenciesMs.back());
      result.sampleBodies.push_back(normalizeBody(sampled.body));
    }

    fdd::json::Writer amp;
    amp.beginObject();
    amp.field("op", "amplitude");
    amp.field("session", static_cast<std::size_t>(result.sessionId));
    amp.field("index", 0);
    amp.field("request_id", std::to_string(requestIdFor(index, seq++)));
    amp.field("timing", true);
    amp.endObject();
    const RequestCheck amplitude =
        timedRequest(transport, amp.take(), result.latenciesMs);
    if (!amplitude.ok) {
      throw std::runtime_error("amplitude failed: " + amplitude.body);
    }
    recordOpTiming(result, "amplitude", amplitude.body,
                   result.latenciesMs.back());
    result.amplitudeBody = normalizeBody(amplitude.body);

    fdd::json::Writer close;
    close.beginObject();
    close.field("op", "close");
    close.field("session", static_cast<std::size_t>(result.sessionId));
    close.field("request_id", std::to_string(requestIdFor(index, seq++)));
    close.endObject();
    const RequestCheck closed =
        timedRequest(transport, close.take(), result.latenciesMs);
    if (!closed.ok) {
      throw std::runtime_error("close failed: " + closed.body);
    }
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
  }
}

/// Replays session `index` alone on a fresh single-worker service and
/// checks that the concurrent run produced byte-identical sample/amplitude
/// responses (modulo the session id embedded in none of them).
bool verifySession(const Options& opt, const SessionResult& concurrent,
                   std::string& mismatch) {
  ServiceConfig config;
  config.workers = 1;
  config.engineDefaults.threads = opt.threads;
  Service replay{config};

  SessionResult sequential;
  Options seqOpt = opt;
  seqOpt.tcpPort = -1;
  runClient(seqOpt, &replay, concurrent.index, sequential);
  if (!sequential.ok) {
    mismatch = "sequential replay failed: " + sequential.error;
    return false;
  }
  if (sequential.sampleBodies != concurrent.sampleBodies) {
    mismatch = "sample responses diverge for session index " +
               std::to_string(concurrent.index);
    return false;
  }
  if (sequential.amplitudeBody != concurrent.amplitudeBody) {
    mismatch = "amplitude response diverges for session index " +
               std::to_string(concurrent.index);
    return false;
  }
  return true;
}

double percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parseArgs(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench/serve: " << e.what() << "\n";
    return 2;
  }

  std::unique_ptr<Service> inProcess;
  if (opt.tcpPort < 0) {
    ServiceConfig config;
    config.workers = opt.workers;
    config.engineDefaults.threads = opt.threads;
    inProcess = std::make_unique<Service>(config);
  }

  std::cout << "bench/serve: " << opt.sessions << " sessions x "
            << opt.applies << " applies x " << opt.gatesPerApply
            << " gates, " << opt.qubits << " qubits, "
            << (inProcess ? "in-process" : "tcp") << " transport\n";

  std::vector<SessionResult> results{opt.sessions};
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::thread> clients;
    clients.reserve(opt.sessions);
    for (unsigned i = 0; i < opt.sessions; ++i) {
      clients.emplace_back(runClient, std::cref(opt), inProcess.get(), i,
                           std::ref(results[i]));
    }
    for (std::thread& t : clients) {
      t.join();
    }
  }
  const double wallSeconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  std::vector<double> latencies;
  std::size_t jobs = 0;
  bool allOk = true;
  for (const SessionResult& r : results) {
    if (!r.ok) {
      allOk = false;
      std::cerr << "bench/serve: session index " << r.index
                << " failed: " << r.error << "\n";
    }
    latencies.insert(latencies.end(), r.latenciesMs.begin(),
                     r.latenciesMs.end());
    jobs += r.latenciesMs.size();
  }
  std::sort(latencies.begin(), latencies.end());

  bool verified = allOk;
  std::string mismatch;
  if (allOk) {
    for (const SessionResult& r : results) {
      if (!verifySession(opt, r, mismatch)) {
        verified = false;
        std::cerr << "bench/serve: VERIFICATION FAILED: " << mismatch
                  << "\n";
        break;
      }
    }
  }

  const double p50 = percentile(latencies, 0.50);
  const double p99 = percentile(latencies, 0.99);
  const double jobsPerSec =
      wallSeconds > 0 ? static_cast<double>(jobs) / wallSeconds : 0;

  // Per-op queue-wait vs execute split, merged across sessions.
  struct OpAgg {
    std::vector<double> totalMs;
    std::vector<double> queueWaitUs;
    std::vector<double> execUs;
  };
  std::map<std::string, OpAgg> perOp;
  for (const SessionResult& r : results) {
    for (const auto& [op, timings] : r.opTimings) {
      OpAgg& agg = perOp[op];
      for (const OpTiming& t : timings) {
        agg.totalMs.push_back(t.totalMs);
        agg.queueWaitUs.push_back(t.queueWaitUs);
        agg.execUs.push_back(t.execUs);
      }
    }
  }
  for (auto& [op, agg] : perOp) {
    std::sort(agg.totalMs.begin(), agg.totalMs.end());
    std::sort(agg.queueWaitUs.begin(), agg.queueWaitUs.end());
    std::sort(agg.execUs.begin(), agg.execUs.end());
  }

  std::cout << "  requests: " << jobs << " in " << wallSeconds << " s ("
            << jobsPerSec << " req/s)\n"
            << "  latency p50: " << p50 << " ms, p99: " << p99 << " ms\n";
  for (const auto& [op, agg] : perOp) {
    std::cout << "  " << op << ": n=" << agg.totalMs.size()
              << " total p50 " << percentile(agg.totalMs, 0.50)
              << " ms (queue-wait p50 "
              << percentile(agg.queueWaitUs, 0.50) / 1e3
              << " ms, exec p50 " << percentile(agg.execUs, 0.50) / 1e3
              << " ms)\n";
  }
  std::cout << "  verified vs sequential replay: "
            << (verified ? "yes" : "NO") << "\n";

  fdd::tools::JsonWriter w;
  w.beginObject();
  w.kv("bench", "serve");
  w.kv("mode", inProcess ? "in-process" : "tcp");
  w.kv("sessions", opt.sessions);
  w.kv("qubits", static_cast<int>(opt.qubits));
  w.kv("gatesPerApply", static_cast<std::uint64_t>(opt.gatesPerApply));
  w.kv("appliesPerSession", opt.applies);
  w.kv("shotsPerSample", static_cast<std::uint64_t>(opt.shots));
  w.kv("workers", opt.workers);
  w.kv("threads", opt.threads);
  w.kv("requests", static_cast<std::uint64_t>(jobs));
  w.kv("wallSeconds", wallSeconds);
  w.kv("requestsPerSec", jobsPerSec);
  w.kv("p50Ms", p50);
  w.kv("p99Ms", p99);
  w.key("perOp").beginObject();
  for (const auto& [op, agg] : perOp) {
    w.key(op).beginObject();
    w.kv("count", static_cast<std::uint64_t>(agg.totalMs.size()));
    w.kv("p50Ms", percentile(agg.totalMs, 0.50));
    w.kv("p99Ms", percentile(agg.totalMs, 0.99));
    w.kv("queueWaitP50Us", percentile(agg.queueWaitUs, 0.50));
    w.kv("queueWaitP99Us", percentile(agg.queueWaitUs, 0.99));
    w.kv("execP50Us", percentile(agg.execUs, 0.50));
    w.kv("execP99Us", percentile(agg.execUs, 0.99));
    w.endObject();
  }
  w.endObject();
  w.kv("verified", verified);
  if (!verified) {
    w.kv("mismatch", mismatch);
  }
  w.endObject();
  if (!fdd::tools::writeTextFile(opt.jsonPath, w.str())) {
    std::cerr << "bench/serve: failed to write " << opt.jsonPath << "\n";
    return 1;
  }
  std::cout << "  wrote " << opt.jsonPath << "\n";
  return verified ? 0 : 1;
}
