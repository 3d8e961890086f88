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
// Flags may also follow the command ("reese_client stats --port 9000").
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
// state "done", 3 for "timeout" and 4 for "failed". `result` on a job that
// timed out surfaces the server's 408, on a failed job its 500 with the
// failure; a job pruned by the daemon's retention window answers 404 like
// any unknown id. An unknown flag, a --port value that is not an integer
// in its range, and an operand the command does not take exit 2.
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/http.h"
#include "common/json.h"

using namespace reese;

namespace {

bool read_spec(const std::string& path, std::string* out) {
  if (path == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    *out = buffer.str();
    return true;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "reese_client: cannot read %s\n", path.c_str());
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
  std::string token;
  bool csv = false;
  std::vector<std::string> operands;
  Flags flags("reese_client");
  flags.text("--host", &host);
  flags.integer("--port", &port, 1);
  flags.text("--token", &token);
  flags.toggle("--csv", &csv);
  flags.operands(&operands);
  if (const std::string error = flags.parse(argc, argv); !error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  if (operands.empty()) {
    std::fprintf(stderr,
                 "usage: reese_client [--host ADDR] [--port N] [--token TOK] "
                 "stats|metrics|submit-experiment|submit-campaign|progress|"
                 "wait|result ...\n"
                 "       (flags may also follow the command)\n");
    return 2;
  }
  http::RequestOptions options;
  if (!token.empty()) {
    options.headers.push_back({"Authorization", "Bearer " + token});
  }
  const std::string& command = operands[0];
  const bool submit =
      command == "submit-experiment" || command == "submit-campaign";
  const bool job =
      command == "progress" || command == "wait" || command == "result";
  if (!submit && !job && command != "stats" && command != "metrics") {
    std::fprintf(stderr, "reese_client: unknown command %s\n",
                 command.c_str());
    return 2;
  }
  // submit-* and the job commands take one operand, stats and metrics none.
  const usize takes = submit || job ? 2 : 1;
  if (operands.size() < takes) {
    std::fprintf(stderr, "reese_client: %s needs %s\n", command.c_str(),
                 submit ? "a spec file (or -)" : "a job id");
    return 2;
  }
  if (operands.size() > takes) {
    std::fprintf(stderr, "reese_client: unknown argument %s\n",
                 operands[takes].c_str());
    return 2;
  }

  if (command == "stats" || command == "metrics") {
    const std::string path = command == "stats" ? "/v1/stats" : "/v1/metrics";
    const http::Response response =
        http::request(host, port, "GET", path, "", options);
    if (response.status == 0) return fail_transport(response);
    print_body(response);
    return response.status == 200 ? 0 : 1;
  }

  if (submit) {
    std::string spec;
    if (!read_spec(operands[1], &spec)) return 1;
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

  const std::string& id = operands[1];

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
        if (state == "timeout") return 3;
        return state == "failed" ? 4 : 1;
      }
      ::usleep(50 * 1000);
    }
  }

  // result
  std::string path = "/v1/jobs/" + id + "/result";
  if (csv) path += "?format=csv";
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
