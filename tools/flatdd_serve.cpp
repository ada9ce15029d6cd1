// flatdd_serve — the simulation service front end. Speaks the line-delimited
// JSON protocol (see src/service/protocol.hpp) over stdin/stdout by default,
// or over a loopback TCP listener with --tcp PORT (one thread per
// connection; all connections share one Service, so sessions are reachable
// from any connection and per-session ordering holds across them).
//
//   echo '{"op":"ping"}' | flatdd_serve
//   flatdd_serve --tcp 7117 --workers 4 --trace serve_trace.json
//   flatdd_serve --tcp 7117 --metrics-port 7118 --slow-log slow.jsonl
//
// The process exits after a {"op":"shutdown"} request (or EOF on stdin in
// stdio mode). With --trace, the observability runtime is enabled and a
// Chrome trace (service.job / service.session_apply spans, queue-depth
// counters) is written on exit — feed it to trace_summarize.
//
// --metrics-port starts the admin HTTP listener (also implies obs): GET
// /metrics for Prometheus exposition, /healthz for liveness, /tracez for a
// live flight-recorder export, all without pausing workers. --slow-log
// appends structured JSONL records for requests slower than --slow-ms.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "obs/trace.hpp"
#include "service/admin.hpp"
#include "service/protocol.hpp"

namespace {

using fdd::svc::Service;
using fdd::svc::ServiceConfig;

struct Options {
  int tcpPort = -1;      // <0: stdio mode
  int metricsPort = -1;  // <0: no admin listener
  unsigned workers = 4;
  unsigned threads = 1;
  std::string traceFile;
  std::string slowLogFile;
  double slowMs = 250;
  bool help = false;
};

void printUsage() {
  std::cout
      << "usage: flatdd_serve [options]\n"
         "  --tcp PORT          listen on 127.0.0.1:PORT instead of stdio\n"
         "  --metrics-port PORT admin listener on 127.0.0.1:PORT (implies\n"
         "                      obs): GET /metrics, /healthz, /tracez\n"
         "  --workers N         job-queue worker threads (default 4)\n"
         "  --threads N         default simulation threads per session "
         "(default 1)\n"
         "  --trace FILE        enable obs, write a Chrome trace on exit\n"
         "  --slow-log FILE     append JSONL records for slow requests\n"
         "  --slow-ms N         slow-request threshold in ms (default 250;\n"
         "                      0 logs every request)\n"
         "  --help              this text\n";
}

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
    if (arg == "--tcp") {
      opt.tcpPort = std::stoi(value());
    } else if (arg == "--metrics-port") {
      opt.metricsPort = std::stoi(value());
    } else if (arg == "--slow-log") {
      opt.slowLogFile = value();
    } else if (arg == "--slow-ms") {
      opt.slowMs = std::stod(value());
    } else if (arg == "--workers") {
      opt.workers = static_cast<unsigned>(std::stoul(value()));
    } else if (arg == "--threads") {
      opt.threads = static_cast<unsigned>(std::stoul(value()));
    } else if (arg == "--trace") {
      opt.traceFile = value();
    } else if (arg == "--help" || arg == "-h") {
      opt.help = true;
    } else {
      throw std::invalid_argument("unknown option " + arg);
    }
  }
  return opt;
}

/// Tracks live connection fds so shutdown can unblock their reads.
class ConnectionRegistry {
 public:
  void add(int fd) {
    const std::lock_guard lock{mutex_};
    fds_.insert(fd);
  }
  void remove(int fd) {
    const std::lock_guard lock{mutex_};
    fds_.erase(fd);
  }
  void shutdownAll() {
    const std::lock_guard lock{mutex_};
    for (const int fd : fds_) {
      ::shutdown(fd, SHUT_RDWR);
    }
  }

 private:
  std::mutex mutex_;
  std::set<int> fds_;
};

void serveConnection(Service& service, int fd, ConnectionRegistry& registry,
                     std::atomic<bool>& stopping) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) {
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start);
         nl != std::string::npos; nl = buffer.find('\n', start)) {
      std::string_view line{buffer.data() + start, nl - start};
      start = nl + 1;
      if (line.empty()) {
        continue;
      }
      std::string response = service.handleLine(line);
      response += '\n';
      std::size_t sent = 0;
      while (sent < response.size()) {
        const ssize_t w =
            ::write(fd, response.data() + sent, response.size() - sent);
        if (w <= 0) {
          break;
        }
        sent += static_cast<std::size_t>(w);
      }
      if (service.shutdownRequested()) {
        stopping.store(true);
        registry.shutdownAll();
      }
    }
    buffer.erase(0, start);
    if (stopping.load()) {
      break;
    }
  }
  registry.remove(fd);
  ::close(fd);
}

int runTcp(Service& service, int port) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("socket");
    return 1;
  }
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    std::perror("bind");
    ::close(listener);
    return 1;
  }
  if (::listen(listener, 16) != 0) {
    std::perror("listen");
    ::close(listener);
    return 1;
  }
  // The ready banner CI and bench/serve wait for before connecting.
  std::cerr << "flatdd_serve listening on 127.0.0.1:" << port << "\n"
            << std::flush;

  ConnectionRegistry registry;
  std::atomic<bool> stopping{false};
  std::vector<std::thread> connections;

  // A shutdown request inside a connection thread cannot unblock accept()
  // by itself; poke the listener from a watcher.
  std::thread watcher{[&] {
    while (!stopping.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ::shutdown(listener, SHUT_RDWR);
  }};

  for (;;) {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) {
      break;  // listener shut down (or hard error): stop accepting
    }
    registry.add(fd);
    connections.emplace_back(serveConnection, std::ref(service), fd,
                             std::ref(registry), std::ref(stopping));
  }
  stopping.store(true);
  watcher.join();
  registry.shutdownAll();
  for (std::thread& t : connections) {
    t.join();
  }
  ::close(listener);
  return 0;
}

int runStdio(Service& service) {
  std::cerr << "flatdd_serve ready (stdio)\n" << std::flush;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) {
      continue;
    }
    std::cout << service.handleLine(line) << "\n" << std::flush;
    if (service.shutdownRequested()) {
      break;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A dropped TCP connection must not kill the server mid-write.
  std::signal(SIGPIPE, SIG_IGN);

  Options opt;
  try {
    opt = parseArgs(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "flatdd_serve: " << e.what() << "\n";
    printUsage();
    return 2;
  }
  if (opt.help) {
    printUsage();
    return 0;
  }

  // The admin listener serves /tracez and request-id-stamped spans, so it
  // implies the obs runtime just like --trace does.
  if (!opt.traceFile.empty() || opt.metricsPort >= 0) {
    fdd::obs::setEnabled(true);
  }

  ServiceConfig config;
  config.workers = opt.workers;
  config.engineDefaults.threads = opt.threads;
  config.slowLogPath = opt.slowLogFile;
  config.slowRequestMs = opt.slowMs;

  int rc = 0;
  {
    Service service{config};
    std::unique_ptr<fdd::svc::AdminServer> admin;
    if (opt.metricsPort >= 0) {
      try {
        admin = std::make_unique<fdd::svc::AdminServer>(
            service, static_cast<std::uint16_t>(opt.metricsPort));
      } catch (const std::exception& e) {
        std::cerr << "flatdd_serve: " << e.what() << "\n";
        return 1;
      }
      std::cerr << "flatdd_serve admin on 127.0.0.1:" << admin->port()
                << "\n"
                << std::flush;
    }
    rc = opt.tcpPort >= 0 ? runTcp(service, opt.tcpPort)
                          : runStdio(service);
    // Admin stops before the service: /healthz and /tracez must never race
    // worker teardown.
  }  // service (and its worker threads) down before the trace is exported

  if (!opt.traceFile.empty()) {
    if (!fdd::tools::writeTextFile(opt.traceFile,
                                   fdd::obs::exportChromeTrace())) {
      std::cerr << "flatdd_serve: failed to write " << opt.traceFile << "\n";
      return 1;
    }
    std::cerr << "trace written to " << opt.traceFile << "\n";
  }
  return rc;
}
