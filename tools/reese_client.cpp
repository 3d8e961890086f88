// reese_client: command-line client for reesed (tools/reesed.cpp).
//
// Submit an experiment or campaign spec, poll a job to completion, fetch
// its result — without hand-writing HTTP. Exit status 0 only when the
// server answered the command with a 2xx.
//
// Usage: reese_client [--host ADDR] [--port N] [--token TOK] <command> [args]
//
//   --port N                daemon port, in [1, 65535] (default 8642)
//   --token TOK             send "Authorization: Bearer TOK" on every
//                           request (daemons started with --auth-token)
//
//   stats                           GET /v1/stats
//   submit-experiment SPEC.json     POST /v1/experiments; prints the job id
//   submit-campaign SPEC.json       POST /v1/campaigns; prints the job id
//   progress ID                     GET /v1/jobs/ID/progress — live cells
//                                   done/total, committed instructions, kIPS
//   wait ID                         poll status every 50 ms until the job
//                                   leaves queued/running; prints the
//                                   final state
//   result ID [--csv]               GET /v1/jobs/ID/result (?format=csv)
//   metrics                         GET /v1/metrics (Prometheus text)
//
// SPEC.json may be "-" to read the spec from stdin. `wait` exits 0 for
// state "done" and 3 for "timeout". `result` on a job that timed out
// surfaces the server's 408; a job pruned by the daemon's retention window
// answers 404 like any unknown id. A --port value that is not an integer
// in its range exits 2.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/flags.h"
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

/// Body to stdout, byte for byte.
void print_body(const http::Response& response) {
  std::fwrite(response.body.data(), 1, response.body.size(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  u16 port = 8642;
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
      port = static_cast<u16>(
          int_flag_value("reese_client", arg, next_value(), 1, 65535));
    } else if (std::strcmp(arg, "--token") == 0) {
      options.headers.push_back(
          {"Authorization", std::string("Bearer ") + next_value()});
    } else {
      break;  // first non-flag argument is the command
    }
  }
  if (i >= argc) {
    std::fprintf(stderr,
                 "usage: reese_client [--host ADDR] [--port N] [--token TOK] "
                 "stats|metrics|submit-experiment|submit-campaign|progress|"
                 "wait|result ...\n");
    return 2;
  }
  const std::string command = argv[i++];

  if (command == "stats" || command == "metrics") {
    const std::string path = command == "stats" ? "/v1/stats" : "/v1/metrics";
    const http::Response response =
        http::request(host, port, "GET", path, "", options);
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
        http::request(host, port, "POST", path, spec, options);
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

  if (command == "progress" || command == "wait" || command == "result") {
    if (i >= argc) {
      std::fprintf(stderr, "reese_client: %s needs a job id\n",
                   command.c_str());
      return 2;
    }
    const std::string id = argv[i++];

    if (command == "progress") {
      const http::Response response = http::request(
          host, port, "GET", "/v1/jobs/" + id + "/progress", "", options);
      if (response.status == 0) return fail_transport(response);
      print_body(response);
      return response.status == 200 ? 0 : 1;
    }

    if (command == "wait") {
      for (;;) {
        const http::Response response =
            http::request(host, port, "GET", "/v1/jobs/" + id, "", options);
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
          return state == "timeout" ? 3 : 1;
        }
        ::usleep(50 * 1000);
      }
    }

    // result
    std::string path = "/v1/jobs/" + id + "/result";
    if (i < argc && std::strcmp(argv[i], "--csv") == 0) {
      path += "?format=csv";
    }
    const http::Response response =
        http::request(host, port, "GET", path, "", options);
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
