#include "common/http.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/strutil.h"

namespace reese::http {

namespace {

// Untrusted-input bounds: a spec for a full campaign grid is ~1 KiB; a
// megabyte of headroom is generous without letting a client balloon the
// server's memory.
constexpr usize kMaxHeaderBytes = 64 * 1024;
constexpr usize kMaxBodyBytes = 4 * 1024 * 1024;
// Responses the *client* is willing to buffer. Much larger than the
// request-body cap: a result fetch carries a whole report in one response.
constexpr usize kMaxResponseBytes = 256 * 1024 * 1024;
constexpr int kRecvTimeoutSeconds = 10;
/// Concurrent connection threads the server will run; connection number
/// kMaxConnections + 1 is answered 503 and closed.
constexpr u32 kMaxConnections = 64;

using Clock = std::chrono::steady_clock;

void set_recv_timeout(int fd, int seconds) {
  timeval tv{};
  tv.tv_sec = seconds;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

// --- server-side blocking I/O (per-recv timeout; the connection thread is
// --- expendable, the listener is not) ---------------------------------------

/// Read from `fd` until `terminator` is present in `buffer` (keeps reading
/// past it into `buffer`; the caller splits). False on EOF/error/overflow.
bool read_until(int fd, std::string* buffer, const char* terminator,
                usize max_bytes, usize* terminator_pos) {
  char chunk[4096];
  while (true) {
    const usize found = buffer->find(terminator);
    if (found != std::string::npos) {
      *terminator_pos = found;
      return true;
    }
    if (buffer->size() > max_bytes) return false;
    const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer->append(chunk, static_cast<usize>(n));
  }
}

bool read_exact_total(int fd, std::string* buffer, usize total) {
  char chunk[4096];
  while (buffer->size() < total) {
    const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer->append(chunk, static_cast<usize>(n));
  }
  return true;
}

bool send_all(int fd, std::string_view data) {
  usize sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<usize>(n);
  }
  return true;
}

// --- client-side deadline I/O ------------------------------------------------
// The client socket runs non-blocking; every wait goes through poll() with
// the *remaining* wall-clock budget, so the deadline bounds the whole
// request (connect + send + full response), not one recv at a time.

int remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

/// Wait for `events` on `fd` until `deadline`. Returns false on timeout or
/// poll error.
bool wait_fd(int fd, short events, Clock::time_point deadline) {
  while (true) {
    const int budget = remaining_ms(deadline);
    if (budget <= 0) return false;
    pollfd pfd{fd, events, 0};
    const int rc = ::poll(&pfd, 1, budget);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno != EINTR) return false;
  }
}

bool send_all_deadline(int fd, std::string_view data,
                       Clock::time_point deadline, std::string* error) {
  usize sent = 0;
  while (sent < data.size()) {
    if (!wait_fd(fd, POLLOUT, deadline)) {
      *error = "request deadline exceeded (send)";
      return false;
    }
    const ssize_t n =
        send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      *error = format("send: %s", std::strerror(errno));
      return false;
    }
    if (n == 0) {
      *error = "send: connection closed";
      return false;
    }
    sent += static_cast<usize>(n);
  }
  return true;
}

enum class RecvStatus { kData, kEof, kTimeout, kError };

RecvStatus recv_some_deadline(int fd, std::string* buffer,
                              Clock::time_point deadline, std::string* error) {
  if (!wait_fd(fd, POLLIN, deadline)) {
    *error = "request deadline exceeded (response not complete in time)";
    return RecvStatus::kTimeout;
  }
  char chunk[65536];
  while (true) {
    const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer->append(chunk, static_cast<usize>(n));
      return RecvStatus::kData;
    }
    if (n == 0) return RecvStatus::kEof;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // poll said readable but the kernel changed its mind; re-poll.
      if (!wait_fd(fd, POLLIN, deadline)) {
        *error = "request deadline exceeded (response not complete in time)";
        return RecvStatus::kTimeout;
      }
      continue;
    }
    *error = format("recv: %s", std::strerror(errno));
    return RecvStatus::kError;
  }
}

/// Non-blocking connect bounded by `deadline`. Returns the connected fd
/// (left in non-blocking mode) or -1 with a message in `*error`.
int connect_with_deadline(const std::string& host, u16 port,
                          Clock::time_point deadline, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = format("socket: %s", std::strerror(errno));
    return -1;
  }
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    *error = format("bad address %s", host.c_str());
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    *error = format("connect %s:%u: %s", host.c_str(), port,
                    std::strerror(errno));
    ::close(fd);
    return -1;
  }
  if (!wait_fd(fd, POLLOUT, deadline)) {
    *error = format("connect %s:%u: deadline exceeded", host.c_str(), port);
    ::close(fd);
    return -1;
  }
  int so_error = 0;
  socklen_t len = sizeof(so_error);
  if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
      so_error != 0) {
    *error = format("connect %s:%u: %s", host.c_str(), port,
                    std::strerror(so_error != 0 ? so_error : errno));
    ::close(fd);
    return -1;
  }
  return fd;
}

// --- parsing -----------------------------------------------------------------

void parse_query(std::string_view query_string,
                 std::map<std::string, std::string>* out) {
  for (std::string_view pair : split(query_string, '&')) {
    if (pair.empty()) continue;
    const usize eq = pair.find('=');
    if (eq == std::string_view::npos) {
      (*out)[std::string(pair)] = "";
    } else {
      (*out)[std::string(pair.substr(0, eq))] =
          std::string(pair.substr(eq + 1));
    }
  }
}

/// Parse "METHOD /path?query HTTP/1.1" + headers out of `head`. Returns
/// false on malformed input.
bool parse_request_head(std::string_view head, Request* request) {
  const std::vector<std::string_view> lines = split(head, '\n');
  if (lines.empty()) return false;
  // Request line (split() leaves the '\r' on each line; trim per line).
  const std::vector<std::string_view> parts =
      split_whitespace(trim(lines[0]));
  if (parts.size() != 3) return false;
  request->method = std::string(parts[0]);
  if (!starts_with(parts[2], "HTTP/1.")) return false;
  request->http11 = parts[2] != "HTTP/1.0";
  std::string_view target = parts[1];
  const usize question = target.find('?');
  if (question != std::string_view::npos) {
    parse_query(target.substr(question + 1), &request->query);
    target = target.substr(0, question);
  }
  request->path = std::string(target);
  for (usize i = 1; i < lines.size(); ++i) {
    const std::string_view line = trim(lines[i]);
    if (line.empty()) continue;
    const usize colon = line.find(':');
    if (colon == std::string_view::npos) return false;
    request->headers[to_lower(trim(line.substr(0, colon)))] =
        std::string(trim(line.substr(colon + 1)));
  }
  return true;
}

std::string render_response(const Response& response, bool keep_alive) {
  std::string out = format("HTTP/1.1 %d %s\r\n", response.status,
                           status_reason(response.status));
  out += format("Content-Type: %s\r\n", response.content_type.c_str());
  out += format("Content-Length: %zu\r\n", response.body.size());
  out += keep_alive ? "Connection: keep-alive\r\n\r\n"
                    : "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

}  // namespace

const char* status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 401: return "Unauthorized";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

// --- Server ------------------------------------------------------------------

Server::Server(Handler handler) : handler_(std::move(handler)) {}

Server::~Server() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

bool Server::listen(const std::string& host, u16 port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    std::perror("http: socket");
    return false;
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    std::fprintf(stderr, "http: bad listen address %s\n", host.c_str());
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    std::perror("http: bind");
    return false;
  }
  if (::listen(listen_fd_, 64) != 0) {
    std::perror("http: listen");
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    std::perror("http: getsockname");
    return false;
  }
  port_ = ntohs(bound.sin_port);
  return true;
}

void Server::track_fd(int fd, bool add) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (add) {
    open_fds_.insert(fd);
  } else {
    open_fds_.erase(fd);
  }
}

void Server::serve() {
  // Connection threads whose handler has returned; joined opportunistically
  // from the accept loop so a long-lived daemon does not accumulate one
  // zombie thread per past connection.
  std::vector<std::thread::id> finished;
  std::mutex finished_mutex;

  const auto reap = [&](bool all) {
    std::vector<std::thread::id> ids;
    {
      std::lock_guard<std::mutex> lock(finished_mutex);
      ids.swap(finished);
    }
    if (all) {
      // Join OUTSIDE mutex_: a connection thread's epilogue takes mutex_
      // (track_fd), so joining a still-running thread under the lock
      // deadlocks the shutdown path. Only serve() appends to threads_ and
      // the accept loop has exited, so swapping the vector out is safe.
      std::vector<std::thread> doomed;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        doomed.swap(threads_);
      }
      for (std::thread& thread : doomed) thread.join();
      return;
    }
    // Non-stop reaps join only threads that already recorded their id —
    // past every mutex_ touch — so holding the lock here cannot deadlock.
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::thread::id id : ids) {
      for (auto it = threads_.begin(); it != threads_.end(); ++it) {
        if (it->get_id() == id) {
          it->join();
          threads_.erase(it);
          break;
        }
      }
    }
  };

  while (!stop_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stop_.load(std::memory_order_acquire)) break;
      if (errno == EINTR) continue;
      // The listen socket is gone (request_stop raced the flag, or a real
      // error); either way the loop cannot make progress.
      break;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    reap(/*all=*/false);
    if (active_connections_.load(std::memory_order_acquire) >=
        kMaxConnections) {
      send_all(fd, render_response(
                       {503, "application/json",
                        "{\"error\": \"connection limit reached\"}\n"},
                       /*keep_alive=*/false));
      ::close(fd);
      continue;
    }
    active_connections_.fetch_add(1, std::memory_order_acq_rel);
    track_fd(fd, true);
    std::lock_guard<std::mutex> lock(mutex_);
    threads_.emplace_back([this, fd, &finished, &finished_mutex] {
      handle_connection(fd);
      track_fd(fd, false);
      ::close(fd);
      active_connections_.fetch_sub(1, std::memory_order_acq_rel);
      std::lock_guard<std::mutex> done_lock(finished_mutex);
      finished.push_back(std::this_thread::get_id());
    });
  }

  // Stopping: unblock every connection thread (they are at worst inside a
  // 10 s recv timeout), then join them all before the locals above go out
  // of scope.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const int fd : open_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  reap(/*all=*/true);
}

void Server::request_stop() {
  stop_.store(true, std::memory_order_release);
  // Wake a blocked accept(). shutdown() is async-signal-safe; the fd is
  // closed later by the destructor, not here, so a concurrent accept never
  // sees the descriptor number reused. In-flight connection sockets are
  // shut down by serve() on its way out (not here: walking open_fds_ takes
  // a lock, which a signal handler must not).
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

void Server::handle_connection(int fd) {
  set_recv_timeout(fd, kRecvTimeoutSeconds);
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  // Keep-alive loop: serve requests back to back on this socket until the
  // client asks for close, goes idle past the recv timeout, hangs up, or
  // sends something malformed. Leftover bytes after one request stay in
  // `buffer` — pipelined requests are simply the next loop iteration.
  std::string buffer;
  while (!stop_.load(std::memory_order_acquire)) {
    usize head_end = 0;
    if (!read_until(fd, &buffer, "\r\n\r\n", kMaxHeaderBytes, &head_end)) {
      // Nothing of a request arrived: an idle keep-alive client timing out
      // or hanging up, which is the normal end of a connection — close
      // quietly. A partial head is a protocol error worth a 400.
      if (!buffer.empty()) {
        send_all(fd, render_response(
                         {400, "application/json",
                          "{\"error\": \"malformed or oversized request "
                          "head\"}\n"},
                         false));
      }
      return;
    }

    Request request;
    if (!parse_request_head(std::string_view(buffer).substr(0, head_end),
                            &request)) {
      send_all(fd,
               render_response({400, "application/json",
                                "{\"error\": \"malformed request line\"}\n"},
                               false));
      return;
    }

    const usize body_start = head_end + 4;
    usize content_length = 0;
    if (const auto it = request.headers.find("content-length");
        it != request.headers.end()) {
      i64 parsed = 0;
      if (!parse_int(it->second, &parsed) || parsed < 0) {
        send_all(fd, render_response({400, "application/json",
                                      "{\"error\": \"bad content-length\"}\n"},
                                     false));
        return;
      }
      content_length = static_cast<usize>(parsed);
    }
    if (content_length > kMaxBodyBytes) {
      send_all(fd, render_response({413, "application/json",
                                    "{\"error\": \"body too large\"}\n"},
                                   false));
      return;
    }
    if (!read_exact_total(fd, &buffer, body_start + content_length)) {
      send_all(fd, render_response({400, "application/json",
                                    "{\"error\": \"truncated body\"}\n"},
                                   false));
      return;
    }
    request.body = buffer.substr(body_start, content_length);

    bool keep_alive = request.http11;
    if (const auto it = request.headers.find("connection");
        it != request.headers.end()) {
      const std::string value = to_lower(it->second);
      if (value == "close") keep_alive = false;
      if (value == "keep-alive") keep_alive = true;
    }
    if (stop_.load(std::memory_order_acquire)) keep_alive = false;

    const Response response = handler_(request);
    if (!send_all(fd, render_response(response, keep_alive))) return;
    if (!keep_alive) return;
    buffer.erase(0, body_start + content_length);
  }
}

// --- Client ------------------------------------------------------------------

Client::Client(std::string host, u16 port)
    : host_(std::move(host)), port_(port) {}

Client::~Client() { drop_connection(); }

void Client::drop_connection() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Response Client::attempt(const std::string& method, const std::string& path,
                         const std::string& body,
                         const RequestOptions& options, bool close_after) {
  Response failure;
  failure.status = 0;
  failure.content_type = "text/plain";

  const double deadline_s =
      options.deadline_s > 0.0 ? options.deadline_s : 10.0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(deadline_s));

  const bool reused = fd_ >= 0;
  if (fd_ < 0) {
    fd_ = connect_with_deadline(host_, port_, deadline, &failure.body);
    if (fd_ < 0) return failure;
    ++connects_;
  }

  std::string wire = format("%s %s HTTP/1.1\r\n", method.c_str(), path.c_str());
  wire += format("Host: %s:%u\r\n", host_.c_str(), port_);
  for (const auto& [key, value] : options.headers) {
    wire += format("%s: %s\r\n", key.c_str(), value.c_str());
  }
  if (!body.empty()) wire += "Content-Type: application/json\r\n";
  wire += format("Content-Length: %zu\r\n", body.size());
  wire += close_after ? "Connection: close\r\n\r\n"
                      : "Connection: keep-alive\r\n\r\n";
  wire += body;

  ++requests_sent_;
  std::string buffer;
  const auto stale_failure = [&](const std::string& message) {
    drop_connection();
    failure.body = message;
    if (reused && buffer.empty()) {
      // The server closed the persistent connection between requests
      // (keep-alive race): it never saw this request, so one transparent
      // attempt on a fresh socket is safe and expected.
      return attempt(method, path, body, options, close_after);
    }
    return failure;
  };

  std::string io_error;
  if (!send_all_deadline(fd_, wire, deadline, &io_error)) {
    return stale_failure(io_error);
  }

  // Response head.
  usize head_end = std::string::npos;
  while (true) {
    const usize found = buffer.find("\r\n\r\n");
    if (found != std::string::npos) {
      head_end = found;
      break;
    }
    if (buffer.size() > kMaxHeaderBytes) {
      drop_connection();
      failure.body = "oversized response head";
      return failure;
    }
    const RecvStatus status =
        recv_some_deadline(fd_, &buffer, deadline, &io_error);
    if (status == RecvStatus::kEof) return stale_failure("connection closed");
    if (status != RecvStatus::kData) {
      drop_connection();
      failure.body = io_error;
      return failure;
    }
  }

  const std::string_view head = std::string_view(buffer).substr(0, head_end);
  const std::vector<std::string_view> lines = split(head, '\n');
  const std::vector<std::string_view> status_parts =
      split_whitespace(trim(lines[0]));
  Response response;
  i64 status = 0;
  if (status_parts.size() < 2 || !starts_with(status_parts[0], "HTTP/1.") ||
      !parse_int(status_parts[1], &status)) {
    drop_connection();
    failure.body = "malformed status line";
    return failure;
  }
  response.status = static_cast<int>(status);

  usize content_length = std::string::npos;
  bool server_closes = false;
  for (usize i = 1; i < lines.size(); ++i) {
    const std::string_view line = trim(lines[i]);
    const usize colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    const std::string key = to_lower(trim(line.substr(0, colon)));
    const std::string_view value = trim(line.substr(colon + 1));
    if (key == "content-length") {
      i64 parsed = 0;
      if (parse_int(value, &parsed) && parsed >= 0) {
        content_length = static_cast<usize>(parsed);
      }
    } else if (key == "content-type") {
      response.content_type = std::string(value);
    } else if (key == "connection") {
      server_closes = to_lower(std::string(value)) == "close";
    }
  }

  const usize body_start = head_end + 4;
  if (content_length != std::string::npos) {
    if (content_length > kMaxResponseBytes) {
      drop_connection();
      failure.body = "response body too large";
      return failure;
    }
    while (buffer.size() < body_start + content_length) {
      const RecvStatus recv_status =
          recv_some_deadline(fd_, &buffer, deadline, &io_error);
      if (recv_status != RecvStatus::kData) {
        drop_connection();
        failure.body = recv_status == RecvStatus::kEof
                           ? "truncated response body"
                           : io_error;
        return failure;
      }
    }
    response.body = buffer.substr(body_start, content_length);
    // Bytes past the response body would be pipelined responses we never
    // requested; drop the connection rather than desync.
    if (buffer.size() > body_start + content_length) server_closes = true;
  } else {
    // No Content-Length: read to EOF (Connection: close semantics).
    while (true) {
      if (buffer.size() > kMaxResponseBytes) {
        drop_connection();
        failure.body = "response body too large";
        return failure;
      }
      const RecvStatus recv_status =
          recv_some_deadline(fd_, &buffer, deadline, &io_error);
      if (recv_status == RecvStatus::kEof) break;
      if (recv_status != RecvStatus::kData) {
        drop_connection();
        failure.body = io_error;
        return failure;
      }
    }
    response.body = buffer.substr(body_start);
    server_closes = true;
  }

  if (close_after || server_closes) drop_connection();
  return response;
}

Response Client::request(const std::string& method, const std::string& path,
                         const std::string& body,
                         const RequestOptions& options) {
  return attempt(method, path, body, options, /*close_after=*/false);
}

Response request(const std::string& host, u16 port, const std::string& method,
                 const std::string& path, const std::string& body,
                 const RequestOptions& options) {
  Client client(host, port);
  return client.attempt(method, path, body, options, /*close_after=*/true);
}

}  // namespace reese::http
