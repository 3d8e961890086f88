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
// An integer flag whose value is not an integer in its range exits 2;
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
#include <cstring>

#include "common/http.h"
#include "common/log.h"
#include "common/strutil.h"
#include "common/thread_pool.h"
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

/// `value` as an integer in [lo, hi]; anything else exits 2 naming `flag`.
i64 int_flag(const char* flag, const char* value, i64 lo = INT64_MIN,
             i64 hi = INT64_MAX) {
  i64 parsed = 0;
  if (!parse_int(value, &parsed)) {
    config_error(format("%s must be an integer, got %s", flag, value));
  }
  if (parsed < lo || parsed > hi) {
    config_error(format("%s must be in [%lld, %lld], got %s", flag,
                        static_cast<long long>(lo), static_cast<long long>(hi),
                        value));
  }
  return parsed;
}

}  // namespace

int main(int argc, char** argv) {
  // The log sink applies before any other flag is parsed, so a bad
  // --port on the same command line already lands in the right place
  // (a pre-scan: flag order must not matter).
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--log-file") == 0 &&
        !log::global().open_file(argv[i + 1])) {
      // open_file leaves the sink on stderr, so this event is visible.
      config_error(format("cannot open log file %s", argv[i + 1]));
    }
  }

  std::string host = "127.0.0.1";
  u16 port = 8642;
  sim::ServiceConfig config;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        config_error(format("%s needs a value", arg));
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--host") == 0) {
      host = next_value();
    } else if (std::strcmp(arg, "--port") == 0) {
      port = static_cast<u16>(int_flag(arg, next_value(), 0, 65535));
    } else if (std::strcmp(arg, "--workers") == 0) {
      config.workers = sanitize_job_count(int_flag(arg, next_value()), arg);
    } else if (std::strcmp(arg, "--queue-capacity") == 0) {
      config.queue_capacity =
          static_cast<u32>(int_flag(arg, next_value(), 1, UINT32_MAX));
    } else if (std::strcmp(arg, "--grid-jobs") == 0) {
      config.grid_jobs = sanitize_job_count(int_flag(arg, next_value()), arg);
    } else if (std::strcmp(arg, "--max-instructions") == 0) {
      config.max_instructions =
          static_cast<u64>(int_flag(arg, next_value(), 1));
    } else if (std::strcmp(arg, "--max-cells") == 0) {
      config.max_cells =
          static_cast<u64>(int_flag(arg, next_value(), 1, UINT32_MAX));
    } else if (std::strcmp(arg, "--timeout-s") == 0) {
      // Every spec that omits "timeout_s" gets this value, so one the
      // service would refuse must fail here, not as a 400 on each submit.
      const char* value = next_value();
      double timeout_s = 0.0;
      if (!parse_double(value, &timeout_s) || timeout_s < 0.0 ||
          timeout_s > config.max_timeout_s) {
        config_error(format("--timeout-s must be a number in [0, %g], got %s",
                            config.max_timeout_s, value));
      }
      config.default_timeout_s = timeout_s;
    } else if (std::strcmp(arg, "--auth-token") == 0) {
      config.auth_tokens.push_back(next_value());
    } else if (std::strcmp(arg, "--retain-jobs") == 0) {
      config.max_retained_jobs =
          static_cast<usize>(int_flag(arg, next_value(), 1));
    } else if (std::strcmp(arg, "--log-file") == 0) {
      next_value();  // applied by the pre-scan above
    } else {
      config_error(format("unknown argument %s", arg));
    }
  }

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
       log::field("rejected", stats.rejected_queue_full),
       log::field("kips", stats.kips())});
  return 0;
}
