// reesed: the long-lived REESE simulation service.
//
// Wraps sim::SimulationService (job queue + run_experiment/run_campaign)
// in the dependency-free HTTP/1.1 server from common/http.h. Clients
// submit JSON experiment/campaign specs, poll job state (including live
// per-cell progress at /v1/jobs/<id>/progress) and fetch results as JSON
// or CSV; /v1/metrics exposes daemon-wide counters in Prometheus text
// format for scraping. See DESIGN.md §11–§12 for endpoints and schemas,
// and tools/reese_client.cpp for a ready-made client. One daemon runs
// every job itself; experiments and campaigns alike fan their grid cells
// over the daemon's own threads.
//
// Usage: reesed [--host ADDR] [--port N] [--workers N] [--queue-capacity N]
//               [--grid-jobs N] [--max-instructions N] [--max-cells N]
//               [--timeout-s SECONDS] [--auth-token TOK]...
//               [--retain-jobs N] [--log-file PATH]
//
//   --host ADDR            bind address (default 127.0.0.1)
//   --port N               TCP port in [0, 65535]; 0 picks an ephemeral
//                          port (default 8642)
//   --workers N            concurrent jobs (default 2)
//   --queue-capacity N     waiting jobs before submits get 429, in
//                          [1, 2^32-1] (default 16)
//   --grid-jobs N          grid workers per job when a spec omits "jobs"
//                          (default 1)
//   --max-instructions N   per-cell budget cap, in [1, 2^63-1]; larger
//                          specs are a 400
//   --max-cells N          grid-size cap (workloads × models × seeds), in
//                          [1, 2^32-1] (default 4096)
//   --timeout-s SECONDS    default per-job wall-clock timeout, in [0, 3600]
//                          (default 300)
//   --auth-token TOK       require this bearer token (repeatable). Without
//                          the flag the service is open. /v1/healthz never
//                          requires a token.
//   --retain-jobs N        finished jobs kept for result fetches, in
//                          [1, 2^63-1]; pruning prefers already-fetched
//                          results, and a pruned id answers 404 like any
//                          unknown id (default 256)
//   --log-file PATH        append structured JSON-lines events to PATH
//                          instead of stderr (DESIGN.md §17)
//
// Flags follow common/flags.h. An unknown argument, or a value that is
// malformed or out of its range, is one "config" error event and exit 2;
// --workers and --grid-jobs take any integer and fall back to hardware
// concurrency outside [1, 1024] (sanitize_job_count).
//
// Prints exactly one "reesed: listening on HOST:PORT" line once the socket
// is bound (tests parse it to discover the ephemeral port); everything
// else the daemon has to say is a structured log event. SIGTERM and
// SIGINT stop the accept loop, drain the admitted jobs, log final stats
// and exit 0.
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/flags.h"
#include "common/http.h"
#include "common/log.h"
#include "common/strutil.h"
#include "sim/service.h"

using namespace reese;

namespace {

http::Server* g_server = nullptr;

// Async-signal-safe: request_stop is an atomic store plus ::shutdown(2).
void handle_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

/// Config errors are events too: one error-level line, then exit 2.
[[noreturn]] void config_error(const std::string& message) {
  log::global().error("config", message);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  u16 port = 8642;
  std::string log_file;
  sim::ServiceConfig config;
  Flags flags("reesed");
  flags.text("--host", &host);
  flags.integer("--port", &port);
  flags.jobs("--workers", &config.workers);
  flags.integer("--queue-capacity", &config.queue_capacity, 1);
  flags.jobs("--grid-jobs", &config.grid_jobs);
  flags.integer("--max-instructions", &config.max_instructions, 1);
  flags.integer("--max-cells", &config.max_cells, 1, UINT32_MAX);
  // Every spec that omits "timeout_s" gets this value, so one the service
  // would refuse must fail here, not as a 400 on each submit.
  flags.number("--timeout-s", &config.default_timeout_s, 0.0,
               config.max_timeout_s);
  flags.repeated("--auth-token", &config.auth_tokens);
  flags.integer("--retain-jobs", &config.max_retained_jobs, 1);
  flags.text("--log-file", &log_file);
  const std::string error = flags.parse(argc, argv);
  // The log sink applies before the parse error is reported, so the error
  // lands in the sink wherever --log-file stands on the command line.
  if (!log_file.empty() && !log::global().open_file(log_file)) {
    // open_file leaves the sink on stderr, so this event is visible.
    config_error(format("cannot open log file %s", log_file.c_str()));
  }
  if (!error.empty()) config_error(error);

  sim::SimulationService service(config);
  http::Server server(
      [&service](const http::Request& request) {
        return service.handle(request);
      });
  if (!server.listen(host, port)) return 1;
  g_server = &server;
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);

  std::printf("reesed: listening on %s:%u\n", host.c_str(), server.port());
  std::fflush(stdout);

  server.serve();

  // Stop requested: refuse new work, finish what was admitted, report.
  log::global().info("draining", "draining in-flight jobs");
  service.drain();
  const sim::ServiceStats stats = service.stats();
  log::global().info(
      "shutdown",
      format("shut down (submitted %llu, completed %llu, %.1f kIPS)",
             static_cast<unsigned long long>(stats.submitted),
             static_cast<unsigned long long>(stats.completed), stats.kips()),
      {log::field("submitted", stats.submitted),
       log::field("completed", stats.completed),
       log::field("timeouts", stats.timeouts),
       log::field("failed", stats.failed),
       log::field("rejected", stats.rejected_queue_full),
       log::field("kips", stats.kips())});
  return 0;
}
