// fairtopk_serve: long-lived audit sessions over CSV files, driven by
// a batched JSONL protocol on stdin/stdout or (with --listen) on TCP.
//
// Usage:
//   fairtopk_serve --csv data.csv --rank-by score [options] < requests.jsonl
//   fairtopk_serve --csv data.csv --rank-by score --listen 7070
//   fairtopk_serve --data-dir state/ --csv data.csv --rank-by score  # 1st run
//   fairtopk_serve --data-dir state/ --listen 7070                   # restarts
//
// With --data-dir the "default" session is durable: the first start
// cold-starts from the CSV and writes a snapshot, every maintenance op
// is appended to an op log, and SIGTERM compacts the log into a fresh
// snapshot generation — later starts skip the CSV entirely and reopen
// from disk (README.md, "Persistence").
//
// Startup goes through OpenSession (service/session_spec.h), the same
// builder behind fairtopk_audit and the JSONL `open` op: the session
// flags come from its field table, the CSV is loaded and bucketized (or
// the data directory reopened), and the session is registered in a
// SessionCatalog as "default". The JSONL protocol's catalog ops
// (`open`, `close`, `list`, `use`) manage further named sessions at
// runtime; plain requests keep hitting "default" so single-table
// scripts need no session plumbing.
//
// Without --listen, the process reads one JSON request object per
// stdin line and writes one JSON response object per stdout line until
// EOF. With --listen PORT it serves the same protocol to concurrent
// TCP connections (per-connection input-order responses) until SIGINT
// or SIGTERM, which drains in-flight requests and exits 0 — see
// src/service/jsonl_service.h for the protocol and README.md for
// worked transcripts.
#include <cerrno>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/flags.h"
#include "common/metrics/metrics.h"
#include "common/signals.h"
#include "common/socket.h"
#include "common/thread_pool.h"
#include "service/jsonl_service.h"
#include "service/net/metrics_http.h"
#include "service/net/socket_server.h"
#include "service/session_catalog.h"
#include "service/session_spec.h"

namespace fairtopk {
namespace {

struct Args {
  SessionSpec spec;
  int batch_workers = 0;
  int workers = 1;
  int listen_port = -1;  // -1 = stdin/stdout mode
  std::string host = "127.0.0.1";
  int max_pending = 0;
  int metrics_port = -1;  // -1 = no Prometheus endpoint
  int slow_query_micros = 0;  // 0 = slow-query log off
};

/// The serving flags; the session flags come from the session table.
std::vector<Flag> ServeFlags(Args& args) {
  return {
      {"--batch-workers", "N",
       "pool running detect_batch members concurrently (default 0 = "
       "serial; multiplies with the per-query threads)",
       &args.batch_workers, 0, 4096},
      {"--workers", "N",
       "request lines executed concurrently (default 1 = serial; 0 = "
       "hardware concurrency). Responses always leave in input order; on "
       "TCP the pool is shared by all connections",
       &args.workers, 0, 4096},
      {"--listen", "PORT",
       "serve TCP on --host instead of stdin (0 picks an ephemeral port, "
       "printed on stderr); SIGINT/SIGTERM drains and exits 0",
       &args.listen_port, 0, 65535},
      {"--host", "ADDR", "numeric address to bind (default 127.0.0.1)",
       &args.host},
      {"--max-pending", "N",
       "per-connection / stdin-loop bound on admitted-but-unanswered "
       "lines (default 4 * workers)",
       &args.max_pending, 0, 1 << 20},
      {"--metrics-port", "P",
       "serve Prometheus text metrics via HTTP GET /metrics on --host:P "
       "(0 picks an ephemeral port, printed on stderr); works in both "
       "stdin and TCP modes",
       &args.metrics_port, 0, 65535},
      {"--slow-query-log", "N",
       "trace every request and log a JSONL line to stderr for any "
       "request taking >= N microseconds end to end",
       &args.slow_query_micros, 1, 1 << 30},
  };
}

void PrintUsage(std::FILE* out, Args& args) {
  std::fprintf(
      out,
      "usage: fairtopk_serve [session options] [serving options]\n"
      "\n"
      "Serves audit sessions over a CSV (with its ranking column) or a\n"
      "data directory: reads one JSON request per stdin line, writes one\n"
      "JSON response per stdout line until EOF — or, with --listen,\n"
      "serves the same protocol to concurrent TCP connections until\n"
      "SIGINT/SIGTERM. Ops: detect, detect_batch, capabilities,\n"
      "suggest, verify, rerank, update, append, stats, invalidate,\n"
      "metrics, save, snapshot_info, plus the session catalog: open,\n"
      "close, list, use\n"
      "(see README.md, \"Serving audits\" and \"Network serving\";\n"
      "capabilities lists every registered detector with its parameter\n"
      "schema). The startup CSV is session \"default\".\n"
      "\n"
      "Session options (the same table as fairtopk_audit and `open`):\n");
  PrintFlagUsage(out, SessionFlags(kServeFlags, args.spec));
  std::fprintf(out, "\nServing options:\n");
  PrintFlagUsage(out, ServeFlags(args));
  std::fprintf(out, "  --help                 print this message and exit\n");
}

int ResolveWorkers(int workers) {
  if (workers != 0) return workers;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// On --data-dir shutdown: fold the accumulated op log into a fresh
/// snapshot generation so the next start replays nothing.
void CompactOnExit(SessionCatalog& catalog) {
  std::shared_ptr<SessionCatalog::Entry> entry = catalog.Find("default");
  if (entry == nullptr) return;
  const SessionStorageInfo before = entry->session.storage_info();
  if (!before.log_attached) return;
  if (Status saved = entry->session.SaveSnapshot(); !saved.ok()) {
    std::fprintf(stderr, "compaction failed (state persists in the op "
                         "log): %s\n",
                 saved.ToString().c_str());
    return;
  }
  std::fprintf(stderr, "compacted %llu op(s) into snapshot generation %llu\n",
               static_cast<unsigned long long>(before.log_records),
               static_cast<unsigned long long>(
                   entry->session.storage_info().generation));
}

int RunServe(Args& args) {
  // Start the uptime clock before loading anything so the reported
  // uptime covers (almost) the whole process life.
  (void)metrics::UptimeSeconds();
  if (args.batch_workers > 0) {
    // Dedicated pool for detect_batch members; deliberately separate
    // from the front-end workers (a request line blocking inside
    // DetectMany must never occupy the pool its sub-queries need).
    args.spec.session.batch_executor =
        std::make_shared<ThreadPool>(args.batch_workers);
  }
  const SessionSpec& spec = args.spec;
  PersistentOpenReport report;
  Result<OpenedSession> opened = OpenSession(spec, &report);
  if (!opened.ok()) {
    std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
    return 1;
  }
  if (report.cold_start) {
    std::fprintf(stderr, "data dir %s: cold start from %s\n",
                 spec.data_dir.c_str(), spec.csv.c_str());
  } else if (!spec.data_dir.empty()) {
    std::fprintf(stderr,
                 "data dir %s: snapshot generation %llu, %zu op(s) "
                 "replayed%s%s\n",
                 spec.data_dir.c_str(),
                 static_cast<unsigned long long>(
                     opened->session.storage_info().generation),
                 report.replayed_records,
                 report.dropped_torn_tail ? ", torn tail dropped" : "",
                 report.discarded_stale_log ? ", stale log discarded" : "");
  }
  const int n = static_cast<int>(opened->session.num_rows());
  const size_t attributes = opened->session.space().num_attributes();

  // Both modes serve a catalog so `open`/`close`/`list`/`use` work; the
  // startup CSV is "default", which plain requests route to.
  SessionCatalog catalog;
  if (Status adopted = catalog.Adopt("default", std::move(opened->session),
                                     std::move(opened->defaults));
      !adopted.ok()) {
    std::fprintf(stderr, "%s\n", adopted.ToString().c_str());
    return 1;
  }
  JsonlService service(&catalog, "default");
  const int workers = ResolveWorkers(args.workers);
  service.set_server_workers(workers);
  if (args.slow_query_micros > 0) {
    ObservabilityOptions observability;
    observability.slow_query_log_micros =
        static_cast<uint64_t>(args.slow_query_micros);
    service.set_observability(observability);
  }

  // The Prometheus endpoint rides along in either serving mode; its
  // Shutdown() runs from this scope's unwinding after the main loop
  // ends, so a final scrape can still see the complete counters until
  // the process is actually about to exit.
  std::unique_ptr<MetricsHttpServer> metrics_http;
  if (args.metrics_port >= 0) {
    Result<std::unique_ptr<MetricsHttpServer>> created =
        MetricsHttpServer::Create(args.host,
                                  static_cast<uint16_t>(args.metrics_port));
    if (!created.ok()) {
      std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
      return 1;
    }
    metrics_http = std::move(created).value();
    metrics_http->Start();
    // The metrics smoke driver parses this exact line for the port.
    std::fprintf(stderr, "metrics on %s:%u\n", args.host.c_str(),
                 static_cast<unsigned>(metrics_http->port()));
  }

  if (args.listen_port < 0) {
    ServeOptions serve_options;
    serve_options.workers = workers;
    serve_options.max_pending = static_cast<size_t>(args.max_pending);
    std::fprintf(stderr,
                 "session ready: %d rows, %zu pattern attributes, "
                 "%d worker(s)\n",
                 n, attributes, serve_options.workers);
    service.Serve(std::cin, std::cout, serve_options);
    CompactOnExit(catalog);
    return 0;
  }

  // TCP mode. The signal pipe is installed BEFORE the listener opens:
  // a SIGTERM racing startup must still win a clean drain, not the
  // default kill.
  Result<int> signal_fd = InstallShutdownSignalPipe();
  if (!signal_fd.ok()) {
    std::fprintf(stderr, "%s\n", signal_fd.status().ToString().c_str());
    return 1;
  }
  Result<TcpListener> listener = TcpListener::Listen(
      args.host, static_cast<uint16_t>(args.listen_port));
  if (!listener.ok()) {
    std::fprintf(stderr, "%s\n", listener.status().ToString().c_str());
    return 1;
  }
  SocketServerOptions server_options;
  server_options.workers = workers;
  server_options.max_pending = static_cast<size_t>(args.max_pending);
  SocketServer server(&service, std::move(listener).value(), server_options);
  server.Start();
  std::fprintf(stderr,
               "session ready: %d rows, %zu pattern attributes, "
               "%d worker(s)\n",
               n, attributes, workers);
  // The smoke driver parses this exact line for the ephemeral port.
  std::fprintf(stderr, "listening on %s:%u\n", args.host.c_str(),
               static_cast<unsigned>(server.port()));

  // Block until SIGINT/SIGTERM; the handler writes one byte to the
  // pipe (async-signal-safe), this read is the synchronous other end.
  char byte;
  ssize_t got;
  do {
    got = ::read(*signal_fd, &byte, 1);
  } while (got < 0 && errno == EINTR);
  std::fprintf(stderr,
               "shutting down: draining in-flight requests "
               "(%zu connection(s) served)\n",
               server.connections_accepted());
  server.RequestShutdown();
  server.Wait();
  // Requests are drained: the catalog's default session is quiescent,
  // so this is the natural compaction point.
  CompactOnExit(catalog);
  return 0;
}

}  // namespace
}  // namespace fairtopk

int main(int argc, char** argv) {
  fairtopk::Args args;
  std::vector<fairtopk::Flag> flags =
      fairtopk::SessionFlags(fairtopk::kServeFlags, args.spec);
  for (fairtopk::Flag& flag : fairtopk::ServeFlags(args)) {
    flags.push_back(std::move(flag));
  }
  bool help = false;
  fairtopk::Status parsed = fairtopk::ParseFlags(argc, argv, flags, &help);
  if (help) {
    fairtopk::PrintUsage(stdout, args);
    return 0;
  }
  // A data directory can start from its snapshot alone; every other
  // start (and a data-dir cold start, checked at open) needs the CSV.
  if (parsed.ok()) parsed = fairtopk::CheckSessionSource(args.spec);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.message().c_str());
    fairtopk::PrintUsage(stderr, args);
    return 2;
  }
  return fairtopk::RunServe(args);
}
