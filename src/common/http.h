// Dependency-free HTTP/1.1 over blocking POSIX sockets: the transport for
// reesed (tools/reesed.cpp), reese_client (tools/reese_client.cpp) and the
// benchmark's closed-loop client (perfbench/cpp/serve.cpp).
//
// Scope is deliberately small — exactly what a job service and its
// clients need:
//  * Server: bind/listen on an IPv4 address (port 0 = ephemeral), then an
//    accept loop that hands each connection to its own thread (bounded by
//    kMaxConnections; beyond that a connection is answered 503 and
//    closed). Connections are HTTP/1.1 keep-alive: a thread serves
//    requests back to back on one socket until the client sends
//    "Connection: close", goes quiet past the idle timeout, or hangs up —
//    so a client polling job state does not pay a TCP handshake per
//    poll. Requests are parsed into method/path/query/headers/body;
//    oversized or malformed input is answered with 4xx (and the
//    connection closed) before the handler runs. The handler is invoked
//    concurrently from connection threads and must be thread-safe
//    (SimulationService::handle is).
//  * Client: a persistent keep-alive Client class (one reusable
//    connection per remote, transparent reconnect on a stale socket) and
//    a one-call request() helper for fire-and-forget use. Both enforce a
//    wall-clock per-request deadline — a peer trickling one byte per
//    receive-timeout cannot wedge the caller. Neither retries: a transport
//    failure or a 429 reaches the caller as is.
//
// Server::request_stop() is async-signal-safe (an atomic store plus
// ::shutdown on the listening socket), which is what lets reesed's SIGTERM
// handler stop the accept loop and hand control back to main for the
// drain; serve() then shuts down the per-connection sockets and joins
// their threads before returning. See DESIGN.md §11.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/types.h"

namespace reese::http {

struct Request {
  std::string method;  ///< "GET", "POST", ... (upper-case as received)
  std::string path;    ///< decoded path without the query string
  std::map<std::string, std::string> query;    ///< ?key=value&... pairs
  std::map<std::string, std::string> headers;  ///< keys lower-cased
  std::string body;
  /// True for HTTP/1.1 requests (keep-alive by default). Requests built in
  /// tests default to 1.1 semantics.
  bool http11 = true;
};

struct Response {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

/// Standard reason phrase for the handful of status codes the service
/// emits; "Unknown" otherwise.
const char* status_reason(int status);

class Server {
 public:
  using Handler = std::function<Response(const Request&)>;

  explicit Server(Handler handler);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind and listen. `port` 0 picks an ephemeral port (read it back with
  /// port()). Returns false with a message on stderr on failure.
  bool listen(const std::string& host, u16 port);

  /// The bound port (valid after listen()).
  u16 port() const { return port_; }

  /// Blocking accept loop; returns after request_stop(), once every
  /// connection thread has been joined. Call from the thread that should
  /// own the server's lifetime (reesed's main thread).
  void serve();

  /// Stop the accept loop from another thread or a signal handler
  /// (async-signal-safe: atomic store + ::shutdown of the listen socket).
  /// In-flight connections are shut down by serve() on its way out.
  void request_stop();

  /// Connections accepted so far (tests assert keep-alive reuse with it).
  u64 connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }

 private:
  void handle_connection(int fd);
  void track_fd(int fd, bool add);

  Handler handler_;
  int listen_fd_ = -1;
  u16 port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<u64> connections_accepted_{0};
  std::atomic<u32> active_connections_{0};

  std::mutex mutex_;                ///< guards threads_ and open_fds_
  std::vector<std::thread> threads_;
  std::set<int> open_fds_;
};

/// Per-request client policy. The deadline is wall-clock per request — it
/// bounds connect + send + the whole response read, so a slow-writer peer
/// fails the request instead of resetting a per-recv timer forever.
struct RequestOptions {
  double deadline_s = 10.0;  ///< wall clock per request; <= 0 = 10 s
  /// Extra headers, sent verbatim (e.g. {"Authorization", "Bearer t"}).
  std::vector<std::pair<std::string, std::string>> headers;
};

/// A keep-alive HTTP/1.1 client bound to one host:port. request() reuses
/// a single persistent connection across calls, transparently reconnecting
/// when the server closed it in between (one extra attempt on a stale
/// socket, which the server never saw). Transport failures return status 0
/// with the error in `body`. Not thread-safe — one Client per calling
/// thread.
class Client {
 public:
  Client(std::string host, u16 port);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Response request(const std::string& method, const std::string& path,
                   const std::string& body = "",
                   const RequestOptions& options = {});

  /// Sockets opened so far — stays at 1 across many requests when
  /// keep-alive reuse works (tests assert exactly that).
  u64 connects() const { return connects_; }
  u64 requests_sent() const { return requests_sent_; }

 private:
  friend Response request(const std::string&, u16, const std::string&,
                          const std::string&, const std::string&,
                          const RequestOptions&);

  /// One attempt on the wire; `reuse` allows picking up the persistent
  /// socket, `close_after` asks the server to close (one-shot mode).
  Response attempt(const std::string& method, const std::string& path,
                   const std::string& body, const RequestOptions& options,
                   bool close_after);
  void drop_connection();

  std::string host_;
  u16 port_ = 0;
  int fd_ = -1;
  u64 connects_ = 0;
  u64 requests_sent_ = 0;
};

/// One-shot client: connect to host:port, send `method path` with `body`
/// (empty = no body), return the parsed response; the connection is closed
/// after the exchange. Transport failures (connect/deadline/protocol)
/// return status 0 with the error in `body`.
Response request(const std::string& host, u16 port, const std::string& method,
                 const std::string& path, const std::string& body = "",
                 const RequestOptions& options = {});

}  // namespace reese::http
