#include "service/net/socket_server.h"

#include <string>
#include <string_view>
#include <utility>

#include "common/metrics/metrics.h"

namespace fairtopk {

namespace {

/// Process-global socket front-end metrics, resolved once.
struct NetMetrics {
  metrics::Counter& accepted;
  metrics::Gauge& active;

  static NetMetrics& Get() {
    static NetMetrics* m = [] {
      auto& registry = metrics::MetricsRegistry::Global();
      return new NetMetrics{
          registry
              .CounterFamily("fairtopk_connections_accepted_total",
                             "TCP connections accepted since start")
              .With({}),
          registry
              .GaugeFamily("fairtopk_connections_active",
                           "TCP connections currently being served")
              .With({})};
    }();
    return *m;
  }
};

}  // namespace

SocketServer::SocketServer(JsonlService* service, TcpListener listener,
                           SocketServerOptions options)
    : service_(service),
      listener_(std::move(listener)),
      max_pending_(options.max_pending != 0
                       ? options.max_pending
                       : static_cast<size_t>(options.workers) * 4),
      pool_(options.workers) {}

SocketServer::~SocketServer() {
  RequestShutdown();
  Wait();
}

void SocketServer::Start() {
  acceptor_ = std::thread([this] { AcceptLoop(); });
}

void SocketServer::RequestShutdown() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (shutdown_) return;
  shutdown_ = true;
  // Wake the blocked Accept() and make future accepts fail fast.
  listener_.Interrupt();
  // Readers blocked in Receive() see EOF and fall into their drain
  // path. Connections mid-request are untouched: the reader only
  // exits after every admitted line is answered.
  for (Connection& connection : connections_) {
    // Under the connection mutex: ShutdownRead must not race the
    // reader's final Close() (which recycles the descriptor).
    std::lock_guard<std::mutex> connection_lock(connection.mutex);
    connection.socket.ShutdownRead();
  }
}

void SocketServer::Wait() {
  if (acceptor_.joinable()) acceptor_.join();
  // After the acceptor exits no new connections_ nodes appear, and
  // std::list nodes are stable, so walking without the lock while
  // joining (readers still mutate their own entries) is safe.
  for (Connection& connection : connections_) {
    if (connection.reader.joinable()) connection.reader.join();
  }
}

size_t SocketServer::connections_accepted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return accepted_;
}

void SocketServer::AcceptLoop() {
  for (;;) {
    Result<TcpConnection> accepted = listener_.Accept();
    if (!accepted.ok()) continue;  // transient (e.g. ECONNABORTED)
    if (!accepted->valid()) return;  // Interrupt(): clean exit
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return;  // raced with RequestShutdown: drop it
    connections_.emplace_back();
    Connection& connection = connections_.back();
    connection.socket = std::move(*accepted);
    ++accepted_;
    if (metrics::Enabled()) {
      NetMetrics::Get().accepted.Inc();
      NetMetrics::Get().active.Inc();
    }
    connection.reader = std::thread(
        [this, &connection] { ReadLoop(connection); });
  }
}

void SocketServer::ReadLoop(Connection& connection) {
  // Received bytes from `start` on are not yet handed out as lines.
  std::string pending;
  size_t start = 0;
  bool eof = false;  // error, EOF, or shutdown
  char buffer[4096];
  const auto next_line = [&](std::string& line) {
    for (;;) {
      const size_t newline = pending.find('\n', start);
      if (newline != std::string::npos) {
        line.assign(pending, start, newline - start);
        start = newline + 1;
        return true;
      }
      pending.erase(0, start);
      start = 0;
      if (eof) {
        // A final unterminated line is still a request — matching the
        // stdin loop, where getline yields it.
        line = std::move(pending);
        pending.clear();
        return !line.empty();
      }
      Result<size_t> received =
          connection.socket.Receive(buffer, sizeof(buffer));
      if (!received.ok() || *received == 0) {
        eof = true;
      } else {
        pending.append(buffer, *received);
      }
    }
  };
  service_->ServeStream(
      next_line,
      [&connection](std::string_view response) {
        return connection.socket.SendAll(response.data(), response.size())
            .ok();
      },
      pool_, max_pending_, connection.context);
  // Every admitted line is answered. Under the mutex: Close() recycles
  // the fd, so it must not overlap a shutdown thread's ShutdownRead on
  // this connection.
  std::lock_guard<std::mutex> lock(connection.mutex);
  connection.socket.ShutdownWrite();
  connection.socket.Close();
  // The gauge counts served connections, so the decrement pairs with
  // the accept-side increment even though the Connection node itself
  // lives until Wait().
  if (metrics::Enabled()) NetMetrics::Get().active.Dec();
}

}  // namespace fairtopk
