// reesed_jobs: one reesed child on loopback (--workers 1 --grid-jobs 1)
// driven by a closed loop of one client with a keep-alive http::Client.
// The client submits a fixed 3:1 sequence of experiment and campaign jobs,
// polls the job status at a fixed interval, and fetches the result before
// submitting again — as reese_client and the fleet coordinator do. One
// client and one worker keep the loop's threads well below the host's
// cores, so its timings measure the serving stack, not the scheduler.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>

#include "bench.h"
#include "common/http.h"
#include "common/json.h"
#include "common/strutil.h"
#include "sim/campaign.h"
#include "sim/experiment.h"

extern char** environ;

namespace perfbench {

using namespace reese;

namespace {

constexpr u32 kDaemonWorkers = 1;
constexpr u32 kClients = 1;
constexpr double kPollInterval_s = 0.002;
constexpr const char* kWorkload = "gcc";

/// A reesed child process. The destructor stops it if still running.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawn the daemon on an ephemeral port and wait for the first
  /// /v1/healthz 200. Returns the launch-to-healthy time, or < 0.
  double start(const std::string& binary) {
    const double t0 = now_s();
    int out[2];
    if (pipe(out) != 0) return -1.0;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, out[0]);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    const std::string workers = std::to_string(kDaemonWorkers);
    std::vector<std::string> args = {binary,         "--port",     "0",
                                     "--workers",    workers,      "--grid-jobs",
                                     "1"};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(out[1]);
    if (rc != 0) {
      close(out[0]);
      pid_ = -1;
      return -1.0;
    }
    // "reesed: listening on HOST:PORT"
    std::string line;
    char c = 0;
    pollfd pfd{out[0], POLLIN, 0};
    while (line.find('\n') == std::string::npos) {
      if (poll(&pfd, 1, 10'000) <= 0 || read(out[0], &c, 1) != 1) break;
      line.push_back(c);
    }
    close(out[0]);
    const usize colon = line.rfind(':');
    if (colon == std::string::npos) return -1.0;
    port_ = static_cast<u16>(std::atoi(line.c_str() + colon + 1));
    for (int attempt = 0; attempt < 10'000; ++attempt) {
      if (http::request("127.0.0.1", port_, "GET", "/v1/healthz").status ==
          200) {
        return now_s() - t0;
      }
      usleep(500);
    }
    return -1.0;
  }

  /// SIGTERM, wait, and return the daemon's peak resident memory in MB.
  double stop() {
    if (pid_ <= 0) return 0.0;
    kill(pid_, SIGTERM);
    int status = 0;
    rusage usage{};
    wait4(pid_, &status, 0, &usage);
    pid_ = -1;
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

  u16 port() const { return port_; }

  /// User + system CPU seconds the daemon has used so far.
  double cpu_s() const {
    FILE* file = std::fopen(format("/proc/%d/stat", pid_).c_str(), "r");
    if (file == nullptr) return 0.0;
    char buffer[1024] = {};
    const usize size = std::fread(buffer, 1, sizeof(buffer) - 1, file);
    std::fclose(file);
    // Fields 14 and 15 (utime, stime) follow the parenthesised command.
    const char* p = std::strrchr(buffer, ')');
    unsigned long long utime = 0, stime = 0;
    if (p == nullptr || size == 0 ||
        std::sscanf(p + 2, "%*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                    &utime, &stime) != 2) {
      return 0.0;
    }
    return static_cast<double>(utime + stime) /
           static_cast<double>(sysconf(_SC_CLK_TCK));
  }

 private:
  pid_t pid_ = -1;
  u16 port_ = 0;
};

/// The two job specs every client submits, with the bytes the service
/// must return for them (computed in-process during setup).
struct Jobs {
  std::string experiment_body;
  std::string campaign_body;
  std::string experiment_reference;
  std::string campaign_reference;
};

Jobs make_jobs(const Options& options) {
  const Sizes& sizes = options.sizes;
  Jobs jobs;
  jobs.experiment_body = format(
      "{\"workloads\": [\"%s\"], \"models\": [\"baseline\"], "
      "\"instructions\": %llu, \"seed\": %llu}",
      kWorkload, static_cast<unsigned long long>(sizes.job_experiment_budget),
      static_cast<unsigned long long>(options.seed));
  jobs.campaign_body = format(
      "{\"workloads\": [\"%s\"], \"variants\": [\"baseline\"], "
      "\"replicas\": 1, \"instructions\": %llu, \"seed\": %llu}",
      kWorkload, static_cast<unsigned long long>(sizes.job_campaign_budget),
      static_cast<unsigned long long>(options.seed));

  // The same specs as the service builds them from those bodies.
  sim::ExperimentSpec experiment;
  experiment.title = "service experiment";
  experiment.base = core::starting_config();
  experiment.models = {sim::Model::kBaseline};
  experiment.workloads = {kWorkload};
  experiment.instructions = sizes.job_experiment_budget;
  experiment.seed = options.seed;
  experiment.jobs = 1;
  jobs.experiment_reference = sim::run_experiment(experiment).json();

  sim::CampaignSpec campaign;
  sim::CampaignVariant variant;
  sim::campaign_variant_by_label("baseline", &variant);
  campaign.variants = {variant};
  campaign.workloads = {kWorkload};
  campaign.replicas = 1;
  campaign.instructions = sizes.job_campaign_budget;
  campaign.seed = options.seed;
  campaign.jobs = 1;
  jobs.campaign_reference = sim::run_campaign(campaign).json();

  if (options.corrupt_reference) {
    jobs.experiment_reference += " ";
    jobs.campaign_reference += " ";
  }
  return jobs;
}

struct JobRecord {
  bool ok = false;
  bool rejected = false;
  double latency_s = 0.0;
  double submit_s = 0.0;
  double fetch_s = 0.0;
  double run_s = 0.0;  ///< the status' wall_seconds
  double end_s = 0.0;  ///< when the result arrived
  double reference_s = 0.0;  ///< wall time of the sample taken after it
  u64 committed = 0;
  u64 requests = 0;
  std::string error;
};

struct LoopResult {
  std::vector<JobRecord> jobs;
  u64 connects = 0;
  double start_s = 0.0;
  double wall_s = 0.0;
  double tail_s = 0.0;  ///< first client done to last client done
};

double number_field(const json::Value& value, const char* key) {
  const json::Value* field = value.find(key);
  return field != nullptr && field->is_number() ? field->number : -1.0;
}

std::string string_field(const json::Value& value, const char* key) {
  const json::Value* field = value.find(key);
  return field != nullptr && field->is_string() ? field->string : "";
}

/// One job: submit, poll until terminal, fetch the result, compare.
JobRecord run_job(http::Client* client, bool campaign, const Jobs& jobs,
                  Trace* trace, u64 span_id) {
  JobRecord record;
  http::RequestOptions request_options;
  request_options.deadline_s = 60.0;
  Scope job(trace, "service.job", span_id);
  const double t0 = now_s();
  http::Response response;
  {
    Scope submit(trace, "http.submit", span_id, job.index());
    response = client->request(
        "POST", campaign ? "/v1/campaigns" : "/v1/experiments",
        campaign ? jobs.campaign_body : jobs.experiment_body, request_options);
    record.submit_s = submit.close();
  }
  ++record.requests;
  if (response.status != 202) {
    record.rejected = response.status == 429;
    record.error = format("submit answered %d", response.status);
    return record;
  }
  auto parsed = json::parse_json(response.body);
  if (!parsed.ok()) {
    record.error = "submit body is not JSON";
    return record;
  }
  const u64 id = static_cast<u64>(number_field(parsed.value(), "id"));
  const std::string status_path = format("/v1/jobs/%llu",
                                         static_cast<unsigned long long>(id));
  std::string state;
  while (now_s() - t0 < 60.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(kPollInterval_s));
    Scope poll(trace, "http.poll", span_id, job.index());
    response = client->request("GET", status_path, "", request_options);
    poll.close();
    ++record.requests;
    auto status = json::parse_json(response.body);
    if (response.status != 200 || !status.ok()) {
      record.error = format("status answered %d", response.status);
      return record;
    }
    state = string_field(status.value(), "state");
    if (state == "queued" || state == "running") continue;
    record.run_s = number_field(status.value(), "wall_seconds");
    record.committed =
        static_cast<u64>(std::max(0.0, number_field(status.value(),
                                                    "committed")));
    break;
  }
  if (state != "done") {
    record.error = "job ended in state \"" + state + "\"";
    return record;
  }
  {
    Scope fetch(trace, "http.result", span_id, job.index());
    response = client->request("GET", status_path + "/result", "",
                               request_options);
    record.fetch_s = fetch.close();
  }
  ++record.requests;
  record.end_s = now_s();
  record.latency_s = record.end_s - t0;
  const std::string& reference =
      campaign ? jobs.campaign_reference : jobs.experiment_reference;
  record.ok = response.status == 200 && response.body == reference;
  if (!record.ok) {
    record.error = response.status == 200
                       ? "result differs from the in-process reference"
                       : format("result answered %d", response.status);
  }
  return record;
}

/// Closed loop: kClients threads, each submitting its next job only after
/// the previous result arrived, until `seconds` have passed and at least
/// `min_jobs` jobs finished. With `reference`, a client takes a reference
/// sample after each job, before the next submit.
LoopResult drive(u16 port, const Jobs& jobs, double seconds, usize min_jobs,
                 Trace* trace, u64 first_span_id, bool reference) {
  LoopResult result;
  std::mutex mutex;
  std::atomic<usize> finished{0};
  std::atomic<u64> next_span{first_span_id};
  std::vector<double> done_at(kClients, 0.0);
  const double start = now_s();
  std::vector<std::thread> threads;
  for (u32 c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      http::Client client("127.0.0.1", port);
      for (u64 k = 0;; ++k) {
        if (now_s() - start >= seconds && finished.load() >= min_jobs) break;
        const bool campaign = k % 4 == 3;
        JobRecord record =
            run_job(&client, campaign, jobs, trace, next_span.fetch_add(1));
        if (reference) record.reference_s = reference_sample().wall_s;
        ++finished;
        std::lock_guard<std::mutex> lock(mutex);
        result.jobs.push_back(std::move(record));
      }
      std::lock_guard<std::mutex> lock(mutex);
      done_at[c] = now_s();
      result.connects += client.connects();
    });
  }
  for (std::thread& thread : threads) thread.join();
  const auto [first, last] = std::minmax_element(done_at.begin(), done_at.end());
  result.start_s = start;
  result.wall_s = *last - start;
  result.tail_s = *last - *first;
  return result;
}

/// The timed loop of one client cut into consecutive slices of
/// kMinLatencySamples completed jobs (the last takes the remainder). Each
/// job's latency and its share of the loop's wall time (from the end of
/// its predecessor's reference sample to its result) are scaled to the
/// reference host's speed by the samples around its own; as with the grid
/// cells, the best slice is reported.
struct BestSlice {
  double jobs_per_s = 0.0;
  double mean_s = 1e300;
  double p50_s = 1e300;
  double p95_s = 1e300;
  double speed_scale = 1.0;  ///< over every job's reference sample
};

BestSlice best_slice(const LoopResult& loop) {
  std::vector<const JobRecord*> done;
  for (const JobRecord& job : loop.jobs) {
    if (job.ok) done.push_back(&job);
  }
  std::sort(done.begin(), done.end(),
            [](const JobRecord* a, const JobRecord* b) {
              return a->end_s < b->end_s;
            });
  BestSlice best;
  std::vector<double> reference;
  for (const JobRecord* job : done) reference.push_back(job->reference_s);
  best.speed_scale = speed_scale(reference);
  const std::vector<double> scale = local_speed_scales(reference);
  const usize slices = std::max<usize>(1, done.size() / kMinLatencySamples);
  for (usize k = 0; k < slices; ++k) {
    const usize begin = k * kMinLatencySamples;
    const usize end =
        k + 1 == slices ? done.size() : begin + kMinLatencySamples;
    if (begin >= end) break;
    std::vector<double> latency;
    double seconds = 0.0;
    for (usize i = begin; i < end; ++i) {
      latency.push_back(done[i]->latency_s * scale[i]);
      const double since = i == 0 ? loop.start_s
                                  : done[i - 1]->end_s + done[i - 1]->reference_s;
      seconds += (done[i]->end_s - since) * scale[i];
    }
    double latency_sum = 0.0;
    for (const double s : latency) latency_sum += s;
    best.jobs_per_s = std::max(best.jobs_per_s, (end - begin) / seconds);
    best.mean_s = std::min(best.mean_s, latency_sum / (end - begin));
    best.p50_s = std::min(best.p50_s, percentile(latency, 0.5));
    best.p95_s = std::min(best.p95_s, percentile(latency, 0.95));
  }
  return best;
}

void check_jobs(const LoopResult& loop, Report* report) {
  for (const JobRecord& job : loop.jobs) {
    report->check(job.ok, "reesed_jobs: " + job.error);
  }
}

void report_service_layers(const LoopResult& loop, Report* report) {
  std::vector<double> submit, fetch, run, overhead;
  u64 requests = 0;
  u64 rejected = 0;
  for (const JobRecord& job : loop.jobs) {
    requests += job.requests;
    rejected += job.rejected ? 1 : 0;
    if (!job.ok) continue;
    submit.push_back(job.submit_s);
    fetch.push_back(job.fetch_s);
    run.push_back(job.run_s);
    overhead.push_back(job.latency_s - job.run_s);
  }
  const double jobs = static_cast<double>(std::max<usize>(loop.jobs.size(), 1));
  report->metric("service.submit_ms", 1e3 * median(submit), "ms");
  report->metric("service.result_fetch_ms", 1e3 * median(fetch), "ms");
  report->metric("service.run_ms", 1e3 * median(run), "ms");
  report->metric("service.overhead_ms", 1e3 * median(overhead), "ms");
  report->metric("service.requests_per_job", requests / jobs, "count");
  report->metric("http.connects_per_job", loop.connects / jobs, "count");
  report->metric("service.rejected_frac", rejected / jobs, "ratio");
}

}  // namespace

bool run_service_probe(const Options& options, double seconds, Trace* trace,
                       Report* report) {
  const Jobs jobs = make_jobs(options);
  Daemon daemon;
  if (daemon.start(options.reesed) < 0.0) {
    std::printf("FAILED: reesed did not start (%s)\n", options.reesed.c_str());
    return false;
  }
  const LoopResult loop =
      drive(daemon.port(), jobs, seconds, 0, trace, 1'000'000, false);
  daemon.stop();
  check_jobs(loop, report);
  report_service_layers(loop, report);
  return true;
}

int run_reesed_jobs(const Options& options, Report* report, Trace* trace) {
  const Sizes& sizes = options.sizes;
  report->record("clients", std::to_string(kClients));
  report->record("daemon", format("--workers %u --grid-jobs 1", kDaemonWorkers));
  report->record("poll_interval_ms", format("%g", 1e3 * kPollInterval_s));
  report->record("job_mix", format("3 experiment (%s, baseline, %llu instr) : "
                                   "1 campaign (%s, baseline, 1 replica, "
                                   "%llu instr)",
                                   kWorkload,
                                   static_cast<unsigned long long>(
                                       sizes.job_experiment_budget),
                                   kWorkload,
                                   static_cast<unsigned long long>(
                                       sizes.job_campaign_budget)));

  // setup_s: daemon launch to the first /v1/healthz 200, median of several
  // launches, each followed by a reference sample.
  std::vector<double> launches;
  std::vector<double> reference;
  for (int rep = 0; rep < sizes.setup_reps; ++rep) {
    Daemon daemon;
    const double t = daemon.start(options.reesed);
    if (t < 0.0) {
      std::printf("FAILED: reesed did not start (%s)\n",
                  options.reesed.c_str());
      return 1;
    }
    daemon.stop();
    launches.push_back(t);
    reference.push_back(reference_sample().wall_s);
  }
  report->metric("setup_s", median(launches) * speed_scale(reference), "s");

  const Jobs jobs = make_jobs(options);
  report->fingerprint("reesed_jobs.experiment", jobs.experiment_reference);
  report->fingerprint("reesed_jobs.campaign", jobs.campaign_reference);

  Daemon daemon;
  if (daemon.start(options.reesed) < 0.0) return 1;
  Trace off(false);
  drive(daemon.port(), jobs, options.small ? 0.2 : 1.0, 0, &off, 0,
        true);  // warm-up

  if (!trace->enabled()) {
    const double cpu0 = daemon.cpu_s();
    const LoopResult loop =
        drive(daemon.port(), jobs, options.seconds,
              kMinPasses * kMinLatencySamples, &off, 0, true);
    const double daemon_cpu_s = daemon.cpu_s() - cpu0;
    const double peak_rss_mb = daemon.stop();
    check_jobs(loop, report);
    std::vector<double> run;
    double committed = 0.0;
    for (const JobRecord& job : loop.jobs) {
      run.push_back(job.run_s);
      if (job.ok) committed += static_cast<double>(job.committed);
    }
    const BestSlice best = best_slice(loop);
    const double wall = loop.wall_s;
    const usize timed_jobs = loop.jobs.size();
    report->record("median_job_run_ms", format("%.3f", 1e3 * median(run)));
    report->record("timed_wall_s", format("%.3f", wall));
    report->record("timed_jobs", std::to_string(timed_jobs));
    report->metric("reference_ms", 1e3 * kReferenceUnit_s / best.speed_scale,
                   "ms");
    report->metric("sim_kips",
                   committed / (daemon_cpu_s * best.speed_scale) / 1e3,
                   "kIPS");
    report->metric("ops_per_s", best.jobs_per_s, "1/s");
    report->metric("jobs_per_s", best.jobs_per_s, "1/s");
    report->metric("latency_mean_ms", 1e3 * best.mean_s, "ms");
    report->metric("latency_p50_ms", 1e3 * best.p50_s, "ms");
    report->metric("latency_p95_ms", 1e3 * best.p95_s, "ms");
    report->metric("job_latency_p50_ms", 1e3 * best.p50_s, "ms");
    report->metric("job_latency_p95_ms", 1e3 * best.p95_s, "ms");
    report->metric("peak_rss_mb", peak_rss_mb, "MB");
    return 0;
  }

  // Traced run: the same loop untraced, then traced; the service's jobs
  // are the grid cells of this workload.
  const LoopResult untraced = drive(daemon.port(), jobs, options.seconds,
                                    kMinLatencySamples, &off, 0, false);
  const LoopResult traced = drive(daemon.port(), jobs, options.seconds,
                                  kMinLatencySamples, trace, 1, false);
  daemon.stop();
  check_jobs(untraced, report);
  check_jobs(traced, report);
  const double rate_untraced = untraced.jobs.size() / untraced.wall_s;
  const double rate_traced = traced.jobs.size() / traced.wall_s;
  report->metric("trace.overhead_pct",
                 100.0 * (rate_untraced / rate_traced - 1.0), "%");
  report_service_layers(traced, report);

  std::vector<double> run;
  double run_total = 0.0;
  for (const JobRecord& job : traced.jobs) {
    run.push_back(job.run_s);
    run_total += job.run_s;
  }
  report->metric("sim.grid.cell_ms_p50", 1e3 * median(run), "ms");
  report->metric("sim.grid.cell_ms_max", 1e3 * percentile(run, 1.0), "ms");
  report->metric("sim.grid.efficiency",
                 run_total / (kDaemonWorkers * traced.wall_s), "ratio");
  report->metric("sim.grid.tail_ms", 1e3 * traced.tail_s, "ms");

  CellCache cells;
  run_layer_probes(options, trace, &cells,
                   static_cast<double>(traced.jobs.size()), traced.wall_s,
                   kDaemonWorkers, report);
  return 0;
}

}  // namespace perfbench
