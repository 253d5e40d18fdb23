// SocketServer: the JSONL protocol of service/jsonl_service.h served
// over TCP. One acceptor thread hands each connection to a dedicated
// reader thread; request lines from ALL connections execute on one
// shared ThreadPool, so a process-wide --threads budget caps audit
// work no matter how many clients connect (readers only block on I/O
// and never occupy a pool slot — requests are leaves, satisfying the
// pool's no-nested-blocking rule).
//
// Framing: requests are newline-delimited, exactly as on stdin; a
// trailing unterminated line at EOF is still served. Each reader frames
// its socket's bytes into lines and runs them through the stdin
// front-end's loop, JsonlService::ServeStream, on the shared pool: so
// blank/whitespace-only lines are skipped, CR before LF is tolerated
// (telnet clients), responses leave in the connection's input order,
// and `max_pending` bounds admitted-but-unanswered lines per connection
// (a slow request throttles reading from that socket — TCP backpressure
// reaches the client — without stalling other connections).
//
// Shutdown: RequestShutdown() stops the acceptor and half-closes the
// receive side of every open connection, so blocked readers see EOF.
// Each reader then drains its in-flight requests, flushes their
// responses, and closes. Wait() joins everything; after it returns no
// server thread is alive. Lines already read before shutdown are
// answered ("drain"), lines never read are the client's to retry.
#ifndef FAIRTOPK_SERVICE_NET_SOCKET_SERVER_H_
#define FAIRTOPK_SERVICE_NET_SOCKET_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "common/socket.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "service/jsonl_service.h"

namespace fairtopk {

/// Execution knobs of one SocketServer.
struct SocketServerOptions {
  /// Size of the shared request-execution pool.
  int workers = 2;
  /// Per-connection bound on lines admitted but not yet answered;
  /// 0 picks 4 * workers (mirrors ServeOptions::max_pending).
  size_t max_pending = 0;
};

/// Serves `service` over a listening socket until shut down. The
/// service (and whatever catalog/session it is bound to) must outlive
/// the server. Start() may be called once.
class SocketServer {
 public:
  SocketServer(JsonlService* service, TcpListener listener,
               SocketServerOptions options);
  /// Joins all threads (terminal RequestShutdown included) — a
  /// destructed server is fully stopped.
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// The bound port (resolves a requested port 0).
  uint16_t port() const { return listener_.port(); }

  /// Spawns the acceptor thread; returns immediately.
  void Start();

  /// Initiates graceful shutdown: stop accepting, signal EOF to every
  /// connection's reader. Idempotent, any thread, returns without
  /// waiting — pair with Wait().
  void RequestShutdown();

  /// Blocks until the acceptor and every connection thread have
  /// exited (all admitted requests answered). Call once, not from a
  /// connection/pool thread.
  void Wait();

  /// Connections accepted over the server's lifetime.
  size_t connections_accepted() const;

 private:
  /// Per-connection state: the socket, the client's session Context,
  /// and the reader thread serving it.
  struct Connection {
    TcpConnection socket;
    JsonlService::Context context;
    std::thread reader;
    /// Orders a shutdown's ShutdownRead against the reader's final
    /// Close (which recycles the descriptor).
    std::mutex mutex;
  };

  void AcceptLoop();
  /// Frames the connection's bytes into request lines and serves them
  /// through JsonlService::ServeStream; closes the socket once every
  /// admitted line is answered.
  void ReadLoop(Connection& connection);

  JsonlService* service_;
  TcpListener listener_;
  const size_t max_pending_;
  ThreadPool pool_;

  std::thread acceptor_;
  mutable std::mutex mutex_;  ///< guards connections_ and the counters
  /// All connections ever accepted; nodes are stable (Connection is
  /// not movable) and joined in Wait(). A long-lived server pays a
  /// small tombstone per closed connection — the tool's lifetime is a
  /// serving run, so simplicity wins over reaping.
  std::list<Connection> connections_;
  size_t accepted_ = 0;
  bool shutdown_ = false;
};

}  // namespace fairtopk

#endif  // FAIRTOPK_SERVICE_NET_SOCKET_SERVER_H_
