// reese_client: command-line client for reesed (tools/reesed.cpp).
//
// Submit an experiment or campaign spec, poll a job to completion, fetch
// its result — without hand-writing HTTP. Exit status 0 only when the
// server answered the command with a 2xx.
//
// Usage: reese_client [--host ADDR] [--port N] [--token TOK] [--retries N]
//                     [--retry-backoff-ms MS] <command> [args]
//
//   --token TOK             send "Authorization: Bearer TOK" on every
//                           request (daemons started with --auth-token)
//   --retries N             retry transport failures and 429 backpressure
//                           up to N times with exponential backoff +
//                           jitter (default 0: fail fast, exact call
//                           counts for tests)
//   --retry-backoff-ms MS   first retry delay (default 100, doubling up
//                           to 2000)
//
//   health                          GET /v1/healthz
//   stats                           GET /v1/stats
//   submit-experiment SPEC.json     POST /v1/experiments; prints the job id
//   submit-campaign SPEC.json       POST /v1/campaigns; prints the job id
//   status ID                       GET /v1/jobs/ID
//   progress ID                     GET /v1/jobs/ID/progress — live cells
//                                   done/total, committed instructions, kIPS
//   wait ID [--poll-ms N]           poll status until the job leaves
//                                   queued/running; prints the final state
//   result ID [--csv|--cells]       GET /v1/jobs/ID/result (?format=csv or
//                                   ?format=cells — the binary per-cell
//                                   campaign matrix the coordinator merges)
//   metrics                         GET /v1/metrics (Prometheus text)
//
// SPEC.json may be "-" to read the spec from stdin. `wait` exits 0 for
// state "done", 3 for "timeout", 4 for "failed". `result` on a job that
// timed out surfaces the server's 408; a job pruned by the daemon's
// retention window answers 404 like any unknown id. With --retries, `wait`
// rides out a daemon restart between polls instead of failing on the
// first refused connect.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/http.h"
#include "common/json.h"

using namespace reese;

namespace {

bool read_spec(const char* path, std::string* out) {
  if (std::strcmp(path, "-") == 0) {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    *out = buffer.str();
    return true;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "reese_client: cannot read %s\n", path);
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

/// Pull a field out of a service JSON response; empty string when absent.
std::string response_field(const std::string& body, const char* key) {
  Result<json::Value> parsed = json::parse_json(body);
  if (!parsed.ok() || !parsed.value().is_object()) return "";
  const json::Value* value = parsed.value().find(key);
  if (value == nullptr) return "";
  if (value->is_string()) return value->string;
  if (value->is_number() && value->is_integer) {
    return std::to_string(value->uint_value);
  }
  return "";
}

int fail_transport(const http::Response& response) {
  std::fprintf(stderr, "reese_client: %s\n", response.body.c_str());
  return 1;
}

/// Body to stdout, binary-safe (?format=cells is an octet stream).
void print_body(const http::Response& response) {
  std::fwrite(response.body.data(), 1, response.body.size(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 8642;
  http::RequestOptions options;

  int i = 1;
  for (; i < argc; ++i) {
    const char* arg = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "reese_client: %s needs a value\n", arg);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--host") == 0) {
      host = next_value();
    } else if (std::strcmp(arg, "--port") == 0) {
      port = std::atoi(next_value());
    } else if (std::strcmp(arg, "--token") == 0) {
      options.headers.push_back(
          {"Authorization", std::string("Bearer ") + next_value()});
    } else if (std::strcmp(arg, "--retries") == 0) {
      options.max_retries = std::atoi(next_value());
      if (options.max_retries < 0) options.max_retries = 0;
    } else if (std::strcmp(arg, "--retry-backoff-ms") == 0) {
      options.backoff_ms = std::atof(next_value());
      if (options.backoff_ms < 1.0) options.backoff_ms = 1.0;
    } else {
      break;  // first non-flag argument is the command
    }
  }
  if (i >= argc || port < 1 || port > 65535) {
    std::fprintf(stderr,
                 "usage: reese_client [--host ADDR] [--port N] [--token TOK] "
                 "[--retries N] [--retry-backoff-ms MS] "
                 "health|stats|metrics|submit-experiment|"
                 "submit-campaign|status|progress|wait|result ...\n");
    return 2;
  }
  const std::string command = argv[i++];
  const u16 port16 = static_cast<u16>(port);

  if (command == "health" || command == "stats" || command == "metrics") {
    const std::string path = command == "health"  ? "/v1/healthz"
                             : command == "stats" ? "/v1/stats"
                                                  : "/v1/metrics";
    const http::Response response =
        http::request(host, port16, "GET", path, "", options);
    if (response.status == 0) return fail_transport(response);
    print_body(response);
    return response.status == 200 ? 0 : 1;
  }

  if (command == "submit-experiment" || command == "submit-campaign") {
    if (i >= argc) {
      std::fprintf(stderr, "reese_client: %s needs a spec file (or -)\n",
                   command.c_str());
      return 2;
    }
    std::string spec;
    if (!read_spec(argv[i], &spec)) return 1;
    const std::string path = command == "submit-experiment"
                                 ? "/v1/experiments"
                                 : "/v1/campaigns";
    const http::Response response =
        http::request(host, port16, "POST", path, spec, options);
    if (response.status == 0) return fail_transport(response);
    if (response.status != 202) {
      std::fprintf(stderr, "reese_client: submit failed (%d): %s",
                   response.status, response.body.c_str());
      return 1;
    }
    // Print just the id: the natural thing to capture in a shell variable.
    std::printf("%s\n", response_field(response.body, "id").c_str());
    return 0;
  }

  if (command == "status" || command == "progress" || command == "wait" ||
      command == "result") {
    if (i >= argc) {
      std::fprintf(stderr, "reese_client: %s needs a job id\n",
                   command.c_str());
      return 2;
    }
    const std::string id = argv[i++];

    if (command == "status" || command == "progress") {
      const std::string path = "/v1/jobs/" + id +
                               (command == "progress" ? "/progress" : "");
      const http::Response response =
          http::request(host, port16, "GET", path, "", options);
      if (response.status == 0) return fail_transport(response);
      print_body(response);
      return response.status == 200 ? 0 : 1;
    }

    if (command == "wait") {
      int poll_ms = 50;
      if (i < argc && std::strcmp(argv[i], "--poll-ms") == 0) {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "reese_client: --poll-ms needs a value\n");
          return 2;
        }
        poll_ms = std::atoi(argv[i + 1]);
        if (poll_ms < 1) poll_ms = 1;
      }
      for (;;) {
        const http::Response response =
            http::request(host, port16, "GET", "/v1/jobs/" + id, "", options);
        if (response.status == 0) return fail_transport(response);
        if (response.status != 200) {
          std::fprintf(stderr, "reese_client: status %d: %s",
                       response.status, response.body.c_str());
          return 1;
        }
        const std::string state = response_field(response.body, "state");
        if (state != "queued" && state != "running") {
          std::printf("%s\n", state.c_str());
          if (state == "done") return 0;
          if (state == "timeout") return 3;
          return 4;
        }
        ::usleep(static_cast<useconds_t>(poll_ms) * 1000);
      }
    }

    // result
    std::string path = "/v1/jobs/" + id + "/result";
    if (i < argc && std::strcmp(argv[i], "--csv") == 0) {
      path += "?format=csv";
    } else if (i < argc && std::strcmp(argv[i], "--cells") == 0) {
      path += "?format=cells";
    }
    const http::Response response =
        http::request(host, port16, "GET", path, "", options);
    if (response.status == 0) return fail_transport(response);
    if (response.status != 200) {
      std::fprintf(stderr, "reese_client: status %d: %s", response.status,
                   response.body.c_str());
      return 1;
    }
    print_body(response);
    return 0;
  }

  std::fprintf(stderr, "reese_client: unknown command %s\n", command.c_str());
  return 2;
}
