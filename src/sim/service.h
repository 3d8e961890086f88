// reesed's job manager: a long-lived simulation service in front of
// run_experiment (sim/experiment.h) and run_campaign (sim/campaign.h).
//
// The ROADMAP's "serve simulations, not just batch runs" step: instead of
// one process per figure, a resident daemon accepts JSON specs over HTTP
// (common/http.h), validates them against the same flag surface the batch
// CLIs expose, queues them in a bounded FIFO (common/thread_pool.h
// TaskQueue) and lets clients poll job state and fetch results as JSON or
// CSV. Simulations run on the queue's worker threads; HTTP handlers only
// touch the job table, so every request is answered in microseconds no
// matter how deep the backlog is.
//
// Endpoints (all JSON unless noted; see DESIGN.md §11 for full schemas):
//   POST /v1/experiments        submit an experiment spec      → 202 {id}
//   POST /v1/campaigns          submit a fault-campaign spec   → 202 {id}
//   GET  /v1/jobs/<id>          job status                     → 200
//   GET  /v1/jobs/<id>/progress live cells/instructions/kIPS   → 200
//   GET  /v1/jobs/<id>/result   result; ?format=csv for CSV    → 200/202/408
//   GET  /v1/healthz            liveness                       → 200
//   GET  /v1/stats              queue/jobs/throughput counters → 200
//   GET  /v1/metrics            Prometheus text exposition (daemon-wide
//                               counters + live grid counters; DESIGN.md §12)
//
// Job lifecycle: queued → running → {done, timeout, failed}. Robustness is
// part of the contract:
//   * a full queue refuses the submit with 429 (backpressure, never
//     unbounded memory);
//   * specs are capped (per-cell instruction budget, grid cell count)
//     at validation time — an over-budget spec is a 400, not a runaway;
//   * every job carries a wall-clock timeout enforced through the specs'
//     cooperative cancel hook; an expired job ends in state "timeout" and
//     its result fetch answers 408;
//   * drain() blocks until admitted jobs finish (reesed's SIGTERM path).
#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/http.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "sim/campaign.h"
#include "sim/experiment.h"
#include "sim/progress.h"

namespace reese::sim {

struct ServiceConfig {
  /// Concurrent jobs (TaskQueue worker threads). Each job additionally
  /// fans its grid over `grid_jobs` workers, so total simulation threads
  /// reach workers × grid_jobs; the defaults keep a laptop responsive.
  u32 workers = 2;
  /// Jobs allowed to wait in the queue; a submit beyond this is a 429.
  u32 queue_capacity = 16;
  /// Default grid worker count per job when a spec omits "jobs"
  /// (0 = auto: $REESE_JOBS, else hardware concurrency).
  u32 grid_jobs = 1;
  /// Per-cell instruction budget cap; a spec above it is a 400.
  u64 max_instructions = 10'000'000;
  /// Grid size cap (workloads × models/variants × seeds/replicas).
  u64 max_cells = 4096;
  /// Wall-clock timeout applied when a spec omits "timeout_s", and the
  /// upper bound a spec may request.
  double default_timeout_s = 300.0;
  double max_timeout_s = 3600.0;
  /// Bearer tokens accepted on every endpoint except /v1/healthz. Empty =
  /// open service (no Authorization header required).
  std::vector<std::string> auth_tokens;
  /// Retained finished jobs; beyond this the oldest finished jobs are
  /// pruned at submit time, preferring jobs whose result was fetched. A
  /// pruned id answers 404 like any unknown id.
  usize max_retained_jobs = 256;
  /// Campaign executor override: the fleet coordinator (sim/fleet.h) plugs
  /// in here so campaign jobs dispatch to workers instead of running
  /// locally. Must honor the spec's cancel/progress hooks; returns false
  /// with a diagnostic to fail the job. Experiments always run locally.
  std::function<bool(const CampaignSpec&, CampaignResult*, std::string*)>
      campaign_runner;
  /// Structured event log for job lifecycle events; nullptr =
  /// log::global(). The service attaches its metrics registry to the
  /// logger for the reese_fleet_events_total counter.
  log::Logger* logger = nullptr;
};

enum class JobState { kQueued, kRunning, kDone, kTimeout, kFailed };

const char* job_state_name(JobState state);

/// Aggregate counters behind GET /v1/stats.
struct ServiceStats {
  usize queue_depth = 0;  ///< waiting (not yet running) jobs
  u32 running = 0;
  u64 submitted = 0;
  u64 completed = 0;
  u64 timeouts = 0;
  u64 failed = 0;
  u64 rejected_queue_full = 0;
  u64 total_committed = 0;     ///< instructions across finished jobs
  double total_wall_seconds = 0.0;  ///< execution time across finished jobs
  /// Cumulative simulation throughput: thousands of committed
  /// instructions per wall-second of job execution.
  double kips() const {
    return total_wall_seconds > 0.0
               ? total_committed / total_wall_seconds / 1000.0
               : 0.0;
  }
};

/// Mirror a ServiceStats snapshot into `registry` as reese_service_*
/// series (counters for the monotonic totals, gauges for queue depth /
/// running jobs / throughput). Called per scrape of GET /v1/metrics;
/// exposed for tests.
void export_service_stats(metrics::Registry* registry,
                          const ServiceStats& stats);

class SimulationService {
 public:
  explicit SimulationService(const ServiceConfig& config = {});
  ~SimulationService();

  SimulationService(const SimulationService&) = delete;
  SimulationService& operator=(const SimulationService&) = delete;

  /// Route one HTTP request. Thread-compatible with the serial
  /// http::Server loop; internal state is mutex-protected regardless, so
  /// tests may call it from multiple threads.
  http::Response handle(const http::Request& request);

  /// Block until every admitted job has finished (SIGTERM drain).
  void drain();

  ServiceStats stats() const;

 private:
  struct Job {
    u64 id = 0;
    bool is_campaign = false;
    JobState state = JobState::kQueued;
    bool fetched = false;  ///< a client has seen the terminal state
    std::string error;     ///< for kFailed
    double timeout_s = 0.0;
    std::chrono::steady_clock::time_point submitted_at;
    std::chrono::steady_clock::time_point started_at;  ///< set at kRunning
    double wall_seconds = 0.0;  ///< execution time once finished
    u64 committed = 0;          ///< instructions, once finished
    // Live progress, max-merged from the grid's ProgressFn (updates can
    // arrive out of order across workers), so each field is monotonic for
    // the job's lifetime — the progress endpoint never goes backwards.
    u64 cells_done = 0;
    u64 cells_total = 0;
    u64 progress_committed = 0;
    // Exactly one of these is engaged, matching is_campaign.
    std::optional<ExperimentSpec> experiment_spec;
    std::optional<CampaignSpec> campaign_spec;
    std::optional<ExperimentResult> experiment_result;
    std::optional<CampaignResult> campaign_result;
  };

  http::Response submit(const http::Request& request, bool is_campaign);
  http::Response job_status(u64 id);
  http::Response job_progress(u64 id);
  http::Response job_result(u64 id, const http::Request& request);
  http::Response stats_response();
  http::Response metrics_response();
  void run_job(u64 id);
  std::string job_status_json(const Job& job);

  const ServiceConfig config_;
  log::Logger* logger_;  ///< never null (config.logger or log::global())
  mutable std::mutex mutex_;
  std::map<u64, Job> jobs_;
  u64 next_id_ = 1;
  u64 submitted_ = 0;
  u64 completed_ = 0;
  u64 timeouts_ = 0;
  u64 failed_ = 0;
  u64 rejected_queue_full_ = 0;
  u64 total_committed_ = 0;
  double total_wall_seconds_ = 0.0;
  /// Daemon-wide registry behind GET /v1/metrics. Grid runners bump its
  /// reese_grid_* counters live from worker threads (lock-free handles);
  /// service-level series are refreshed from ServiceStats at scrape time.
  /// Declared before queue_ so running jobs never outlive it.
  metrics::Registry registry_;
  /// Declared last: its destructor joins the workers before any state
  /// they touch is torn down.
  TaskQueue queue_;
};

}  // namespace reese::sim
