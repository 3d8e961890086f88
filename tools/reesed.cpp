// reesed: the long-lived REESE simulation service.
//
// Wraps sim::SimulationService (job queue + run_experiment/run_campaign)
// in the dependency-free HTTP/1.1 server from common/http.h. Clients
// submit JSON experiment/campaign specs, poll job state (including live
// per-cell progress at /v1/jobs/<id>/progress) and fetch results as JSON
// or CSV; /v1/metrics exposes daemon-wide counters in Prometheus text
// format for scraping. See DESIGN.md §11–§12 for endpoints and schemas,
// and tools/reese_client.cpp for a ready-made client.
//
// With --coordinator the daemon stops running campaigns itself and fans
// them across a fleet of plain reesed workers (sim/fleet.h, DESIGN.md
// §15): campaign specs shard along the replica axis, shards dispatch over
// keep-alive HTTP, dead workers' shards re-dispatch to survivors, and the
// merged result is byte-identical to a single-node run. Experiments still
// run locally.
//
// Usage: reesed [--host ADDR] [--port N] [--workers N] [--queue-capacity N]
//               [--grid-jobs N] [--max-instructions N] [--max-cells N]
//               [--timeout-s SECONDS] [--auth-token TOK]...
//               [--retain-jobs N]
//               [--log-file PATH] [--log-level LEVEL]
//               [--coordinator] [--worker HOST:PORT]...
//               [--workers-file PATH] [--fleet-token TOK]
//               [--shards-per-worker N]
//
//   --host ADDR            bind address (default 127.0.0.1)
//   --port N               TCP port; 0 picks an ephemeral port (default 8642)
//   --workers N            concurrent jobs (default 2)
//   --queue-capacity N     waiting jobs before submits get 429 (default 16)
//   --grid-jobs N          grid workers per job when a spec omits "jobs"
//                          (default 1)
//   --max-instructions N   per-cell budget cap; larger specs are a 400
//   --max-cells N          grid-size cap (workloads × models × seeds); in
//                          coordinator mode the effective cap is this times
//                          the fleet size
//   --timeout-s SECONDS    default per-job wall-clock timeout, in [0, 3600]
//                          (default 300)
//   --auth-token TOK       require this bearer token (repeatable). Without
//                          the flag the service is open. /v1/healthz never
//                          requires a token.
//   --retain-jobs N        finished jobs kept for result fetches; pruning
//                          prefers already-fetched results, and a pruned id
//                          answers 404 like any unknown id (default 256)
//   --log-file PATH        append structured JSON-lines events to PATH
//                          instead of stderr (DESIGN.md §17)
//   --log-level LEVEL      drop events below LEVEL: debug, info, warn or
//                          error (default info)
//   --coordinator          dispatch campaign jobs to the worker fleet
//   --worker HOST:PORT     add a fleet worker (repeatable)
//   --workers-file PATH    read workers, one HOST:PORT per line ('#'
//                          comments and blank lines skipped)
//   --fleet-token TOK      bearer token sent to workers (when they run with
//                          --auth-token)
//   --shards-per-worker N  campaign shards per worker; >1 shrinks the unit
//                          of re-dispatched work after a worker death
//                          (default 2)
//
// Prints exactly one "reesed: listening on HOST:PORT" line once the socket
// is bound (tests parse it to discover the ephemeral port); everything
// else the daemon has to say is a structured log event. SIGTERM and
// SIGINT stop the accept loop, drain the admitted jobs, log final stats
// and exit 0.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/http.h"
#include "common/log.h"
#include "common/strutil.h"
#include "common/thread_pool.h"
#include "sim/fleet.h"
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
  // The log sink and level apply before any other flag is parsed, so a
  // bad --worker on the same command line already lands in the right
  // place (a pre-scan: flag order must not matter).
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--log-file") == 0) {
      if (!log::global().open_file(argv[i + 1])) {
        // open_file leaves the sink on stderr, so this event is visible.
        config_error(format("cannot open log file %s", argv[i + 1]));
      }
    } else if (std::strcmp(argv[i], "--log-level") == 0) {
      log::Level level;
      if (!log::level_from_name(argv[i + 1], &level)) {
        config_error(format("--log-level must be debug, info, warn or "
                            "error, got %s",
                            argv[i + 1]));
      }
      log::global().set_level(level);
    }
  }

  std::string host = "127.0.0.1";
  int port = 8642;
  sim::ServiceConfig config;
  sim::fleet::FleetConfig fleet;
  bool coordinator = false;

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
      port = std::atoi(next_value());
    } else if (std::strcmp(arg, "--workers") == 0) {
      config.workers = sanitize_job_count(
          std::strtol(next_value(), nullptr, 10), "--workers");
    } else if (std::strcmp(arg, "--queue-capacity") == 0) {
      config.queue_capacity =
          static_cast<u32>(std::strtoul(next_value(), nullptr, 10));
    } else if (std::strcmp(arg, "--grid-jobs") == 0) {
      config.grid_jobs = sanitize_job_count(
          std::strtol(next_value(), nullptr, 10), "--grid-jobs");
    } else if (std::strcmp(arg, "--max-instructions") == 0) {
      config.max_instructions =
          static_cast<u64>(std::strtoull(next_value(), nullptr, 10));
    } else if (std::strcmp(arg, "--max-cells") == 0) {
      config.max_cells =
          static_cast<u64>(std::strtoull(next_value(), nullptr, 10));
    } else if (std::strcmp(arg, "--timeout-s") == 0) {
      // Every spec that omits "timeout_s" gets this value, so one the
      // service would refuse must fail here, not as a 400 on each submit.
      const char* value = next_value();
      char* end = nullptr;
      const double timeout_s = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(timeout_s >= 0.0) ||
          timeout_s > config.max_timeout_s) {
        config_error(format("--timeout-s must be a number in [0, %g], got %s",
                            config.max_timeout_s, value));
      }
      config.default_timeout_s = timeout_s;
    } else if (std::strcmp(arg, "--auth-token") == 0) {
      config.auth_tokens.push_back(next_value());
    } else if (std::strcmp(arg, "--retain-jobs") == 0) {
      config.max_retained_jobs =
          static_cast<usize>(std::strtoull(next_value(), nullptr, 10));
    } else if (std::strcmp(arg, "--log-file") == 0 ||
               std::strcmp(arg, "--log-level") == 0) {
      next_value();  // applied by the pre-scan above
    } else if (std::strcmp(arg, "--coordinator") == 0) {
      coordinator = true;
    } else if (std::strcmp(arg, "--worker") == 0) {
      sim::fleet::Worker worker;
      std::string error;
      if (!sim::fleet::parse_worker_address(next_value(), &worker, &error)) {
        config_error(error);
      }
      fleet.workers.push_back(std::move(worker));
    } else if (std::strcmp(arg, "--workers-file") == 0) {
      std::string error;
      if (!sim::fleet::load_workers_file(next_value(), &fleet.workers,
                                         &error)) {
        config_error(error);
      }
    } else if (std::strcmp(arg, "--fleet-token") == 0) {
      fleet.auth_token = next_value();
    } else if (std::strcmp(arg, "--shards-per-worker") == 0) {
      const long value = std::strtol(next_value(), nullptr, 10);
      if (value < 1) {
        config_error("--shards-per-worker must be >= 1");
      }
      fleet.shards_per_worker = static_cast<u32>(value);
    } else {
      config_error(format("unknown argument %s", arg));
    }
  }
  if (port < 0 || port > 65535) {
    config_error(format("--port %d is not in [0, 65535]", port));
  }
  if (coordinator && fleet.workers.empty()) {
    config_error("--coordinator needs at least one --worker (or a "
                 "--workers-file)");
  }
  if (!coordinator && !fleet.workers.empty()) {
    config_error("--worker/--workers-file need --coordinator");
  }

  if (coordinator) {
    // A fleet of N workers really can run N times the cell budget; the
    // per-shard cap on each worker still bounds any single node.
    config.max_cells *= fleet.workers.size();
    config.campaign_runner = [fleet](const sim::CampaignSpec& spec,
                                     sim::CampaignResult* result,
                                     std::string* error) {
      return sim::fleet::run_fleet_campaign(fleet, spec, result, error);
    };
    log::global().info(
        "coordinator_start",
        format("coordinating %zu workers", fleet.workers.size()),
        {log::field("workers", static_cast<u64>(fleet.workers.size())),
         log::field("shards_per_worker", fleet.shards_per_worker)});
  }

  sim::SimulationService service(config);
  http::Server server(
      [&service](const http::Request& request) {
        return service.handle(request);
      });
  if (!server.listen(host, static_cast<u16>(port))) return 1;
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
