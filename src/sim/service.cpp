#include "sim/service.h"

#include <algorithm>
#include <cstring>

#include "common/diag.h"
#include "common/json.h"
#include "common/strutil.h"
#include "sim/simulator.h"
#include "workloads/workload.h"

namespace reese::sim {

namespace {

/// The bearer token on a request, or "" when absent/malformed.
std::string request_token(const http::Request& request) {
  const auto it = request.headers.find("authorization");
  if (it == request.headers.end()) return "";
  const std::string_view value = trim(it->second);
  if (!starts_with(value, "Bearer ")) return "";
  return std::string(trim(value.substr(7)));
}

http::Response json_response(int status, std::string body) {
  return http::Response{status, "application/json", std::move(body)};
}

http::Response error_response(int status, const std::string& message) {
  return json_response(
      status, format("{\"error\": \"%s\"}\n", json_escape(message).c_str()));
}

bool known_workload(const std::string& name) {
  const std::vector<std::string>& names = workloads::all_workload_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

/// Reject spec objects with keys outside the documented schema: a typo'd
/// field silently falling back to a default would run the wrong
/// simulation, which is worse than a 400.
bool check_allowed_keys(const json::Value& object,
                        std::initializer_list<const char*> allowed,
                        std::string* error) {
  for (const auto& [key, value] : object.object) {
    (void)value;
    bool known = false;
    for (const char* candidate : allowed) {
      if (key == candidate) {
        known = true;
        break;
      }
    }
    if (!known) {
      *error = "unknown field \"" + key + "\"";
      return false;
    }
  }
  return true;
}

/// Optional non-negative integer field; leaves *out untouched when absent.
bool parse_u64_field(const json::Value& object, const char* key, u64* out,
                     std::string* error) {
  const json::Value* value = object.find(key);
  if (value == nullptr) return true;
  if (!value->is_number() || !value->is_integer || value->number < 0) {
    *error = format("\"%s\" must be a non-negative integer", key);
    return false;
  }
  *out = value->uint_value;
  return true;
}

bool parse_double_field(const json::Value& object, const char* key,
                        double* out, std::string* error) {
  const json::Value* value = object.find(key);
  if (value == nullptr) return true;
  if (!value->is_number()) {
    *error = format("\"%s\" must be a number", key);
    return false;
  }
  *out = value->number;
  return true;
}

bool parse_bool_field(const json::Value& object, const char* key, bool* out,
                      std::string* error) {
  const json::Value* value = object.find(key);
  if (value == nullptr) return true;
  if (!value->is_bool()) {
    *error = format("\"%s\" must be a boolean", key);
    return false;
  }
  *out = value->boolean;
  return true;
}

bool parse_string_list_field(const json::Value& object, const char* key,
                             std::vector<std::string>* out,
                             std::string* error) {
  const json::Value* value = object.find(key);
  if (value == nullptr) return true;
  if (!value->is_array() || value->array.empty()) {
    *error = format("\"%s\" must be a non-empty array of strings", key);
    return false;
  }
  out->clear();
  for (const json::Value& element : value->array) {
    if (!element.is_string()) {
      *error = format("\"%s\" must contain only strings", key);
      return false;
    }
    out->push_back(element.string);
  }
  return true;
}

/// Grid worker count ("jobs"): the service is strict where the CLIs warn —
/// a request outside [1, kMaxJobRequest] is a client error, not a value to
/// be silently replaced.
bool parse_jobs_field(const json::Value& object, u32* out,
                      std::string* error) {
  const json::Value* value = object.find("jobs");
  if (value == nullptr) return true;
  if (!value->is_number() || !value->is_integer || value->number < 1 ||
      value->uint_value > kMaxJobRequest) {
    *error = format("\"jobs\" must be an integer in [1, %u]", kMaxJobRequest);
    return false;
  }
  *out = static_cast<u32>(value->uint_value);
  return true;
}

/// Checkpoint policy ("checkpoint": {"dir", "interval", "resume"}), passed
/// through to ExperimentSpec/CampaignSpec::checkpoint (DESIGN.md §14). The
/// dir is required when the object is present — a snapshot has to land
/// somewhere the client can find it again.
bool parse_checkpoint_field(const json::Value& object, CheckpointOptions* out,
                            std::string* error) {
  const json::Value* value = object.find("checkpoint");
  if (value == nullptr) return true;
  if (!value->is_object()) {
    *error = "\"checkpoint\" must be an object";
    return false;
  }
  if (!check_allowed_keys(*value, {"dir", "interval", "resume"}, error)) {
    return false;
  }
  const json::Value* dir = value->find("dir");
  if (dir == nullptr || !dir->is_string() || dir->string.empty()) {
    *error = "\"checkpoint.dir\" must be a non-empty string";
    return false;
  }
  out->dir = dir->string;
  if (!parse_u64_field(*value, "interval", &out->interval, error)) {
    return false;
  }
  return parse_bool_field(*value, "resume", &out->resume, error);
}

bool parse_timeout_field(const json::Value& object,
                         const ServiceConfig& config, double* out,
                         std::string* error) {
  double timeout_s = config.default_timeout_s;
  if (!parse_double_field(object, "timeout_s", &timeout_s, error)) {
    return false;
  }
  if (timeout_s < 0.0 || timeout_s > config.max_timeout_s) {
    *error = format("\"timeout_s\" must be in [0, %g]", config.max_timeout_s);
    return false;
  }
  *out = timeout_s;
  return true;
}

}  // namespace

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kTimeout: return "timeout";
  }
  return "?";
}

SimulationService::SimulationService(const ServiceConfig& config)
    : config_(config),
      logger_(config.logger != nullptr ? config.logger : &log::global()),
      queue_(std::max(1u, config.workers), config.queue_capacity) {
  // Event volume becomes scrapeable (reese_log_events_total on
  // /v1/metrics). Detached in the destructor before registry_ dies.
  logger_->set_registry(&registry_);
}

SimulationService::~SimulationService() {
  // Detach before registry_ dies; still-running jobs (joined by queue_'s
  // destructor, which runs after this body) then log without a counter
  // rather than into a dead registry.
  if (logger_->registry() == &registry_) logger_->set_registry(nullptr);
}

void SimulationService::drain() { queue_.drain(); }

ServiceStats SimulationService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServiceStats stats;
  stats.queue_depth = queue_.queued();
  stats.running = queue_.running();
  stats.submitted = submitted_;
  stats.completed = completed_;
  stats.timeouts = timeouts_;
  stats.rejected_queue_full = rejected_queue_full_;
  stats.total_committed = total_committed_;
  stats.total_wall_seconds = total_wall_seconds_;
  return stats;
}

http::Response SimulationService::handle(const http::Request& request) {
  const std::string& path = request.path;
  if (path == "/v1/healthz") {
    // Liveness stays reachable without credentials: probes and load
    // balancers must be able to tell "down" from "locked out".
    if (request.method != "GET") return error_response(405, "use GET");
    return json_response(200, "{\"ok\": true}\n");
  }
  if (!config_.auth_tokens.empty()) {
    const std::string token = request_token(request);
    const bool known =
        !token.empty() &&
        std::find(config_.auth_tokens.begin(), config_.auth_tokens.end(),
                  token) != config_.auth_tokens.end();
    if (!known) {
      return error_response(401, "missing or invalid bearer token");
    }
  }
  if (path == "/v1/stats") {
    if (request.method != "GET") return error_response(405, "use GET");
    return stats_response();
  }
  if (path == "/v1/metrics") {
    if (request.method != "GET") return error_response(405, "use GET");
    return metrics_response();
  }
  if (path == "/v1/experiments" || path == "/v1/campaigns") {
    if (request.method != "POST") return error_response(405, "use POST");
    return submit(request, path == "/v1/campaigns");
  }
  if (starts_with(path, "/v1/jobs/")) {
    if (request.method != "GET") return error_response(405, "use GET");
    const std::vector<std::string_view> parts =
        split(std::string_view(path).substr(1), '/');
    // parts: ["v1", "jobs", "<id>"] optionally + "result" or "progress".
    i64 id = 0;
    if (parts.size() >= 3 && parse_int(parts[2], &id) && id > 0) {
      if (parts.size() == 3) return job_status(static_cast<u64>(id));
      if (parts.size() == 4 && parts[3] == "result") {
        return job_result(static_cast<u64>(id), request);
      }
      if (parts.size() == 4 && parts[3] == "progress") {
        return job_progress(static_cast<u64>(id));
      }
    }
    return error_response(404, "no such job resource");
  }
  return error_response(404, "no such endpoint");
}

std::string SimulationService::job_status_json(const Job& job) {
  std::string out = "{\n";
  out += format("  \"id\": %llu,\n", static_cast<unsigned long long>(job.id));
  out += format("  \"kind\": \"%s\",\n",
                job.is_campaign ? "campaign" : "experiment");
  out += format("  \"state\": \"%s\",\n", job_state_name(job.state));
  out += format("  \"timeout_s\": %g,\n", job.timeout_s);
  if (job.state == JobState::kDone) {
    out += format("  \"committed\": %llu,\n",
                  static_cast<unsigned long long>(job.committed));
    out += format("  \"wall_seconds\": %.6f,\n", job.wall_seconds);
  }
  out += format("  \"result\": \"/v1/jobs/%llu/result\"\n",
                static_cast<unsigned long long>(job.id));
  out += "}\n";
  return out;
}

http::Response SimulationService::submit(const http::Request& request,
                                         bool is_campaign) {
  Result<json::Value> parsed = json::parse_json(request.body);
  if (!parsed.ok()) return error_response(400, parsed.error().message);
  const json::Value& body = parsed.value();
  if (!body.is_object()) {
    return error_response(400, "spec must be a JSON object");
  }

  std::string error;
  Job job;
  job.is_campaign = is_campaign;
  if (!parse_timeout_field(body, config_, &job.timeout_s, &error)) {
    return error_response(400, error);
  }

  u64 cells = 0;
  u64 instructions = 0;
  std::vector<std::string> workload_names;
  if (is_campaign) {
    CampaignSpec spec;
    spec.jobs = config_.grid_jobs;
    if (!check_allowed_keys(body,
                            {"workloads", "variants", "replicas",
                             "instructions", "rate", "seed", "jobs", "quick",
                             "timeout_s", "checkpoint"},
                            &error) ||
        !parse_string_list_field(body, "workloads", &spec.workloads, &error) ||
        !parse_u64_field(body, "instructions", &spec.instructions, &error) ||
        !parse_u64_field(body, "seed", &spec.seed, &error) ||
        !parse_double_field(body, "rate", &spec.rate, &error) ||
        !parse_bool_field(body, "quick", &spec.quick, &error) ||
        !parse_jobs_field(body, &spec.jobs, &error) ||
        !parse_checkpoint_field(body, &spec.checkpoint, &error)) {
      return error_response(400, error);
    }
    u64 replicas = spec.replicas;
    if (!parse_u64_field(body, "replicas", &replicas, &error)) {
      return error_response(400, error);
    }
    // Input validation before the u32 narrowing; the real guard against
    // runaway grids is the cell cap below.
    if (replicas < 1 || replicas > 1'000'000) {
      return error_response(400, "\"replicas\" must be in [1, 1000000]");
    }
    spec.replicas = static_cast<u32>(replicas);
    if (spec.rate <= 0.0 || spec.rate > 1.0) {
      return error_response(400, "\"rate\" must be in (0, 1]");
    }
    std::vector<std::string> variant_labels;
    if (!parse_string_list_field(body, "variants", &variant_labels, &error)) {
      return error_response(400, error);
    }
    if (!variant_labels.empty()) {
      // Labels resolve to either the standard five or a component
      // "base@site" variant — the spec carries labels only.
      for (const std::string& label : variant_labels) {
        CampaignVariant variant;
        if (!campaign_variant_by_label(label, &variant)) {
          return error_response(400, "unknown variant \"" + label + "\"");
        }
        spec.variants.push_back(std::move(variant));
      }
    }
    // The caps apply to what run_campaign will run: an omitted
    // "instructions" or "variants" resolves to the campaign defaults.
    const CampaignSpec resolved = resolve_campaign_defaults(spec);
    cells = static_cast<u64>(resolved.variants.size()) *
            resolved.workloads.size() * resolved.replicas;
    instructions = resolved.instructions;
    workload_names = spec.workloads;
    job.campaign_spec = std::move(spec);
  } else {
    ExperimentSpec spec;
    spec.title = "service experiment";
    spec.base = core::starting_config();
    spec.jobs = config_.grid_jobs;
    std::vector<std::string> model_slugs;
    if (!check_allowed_keys(body,
                            {"title", "workloads", "models", "instructions",
                             "seed", "extra_seeds", "jobs", "timeout_s",
                             "checkpoint"},
                            &error) ||
        !parse_string_list_field(body, "workloads", &spec.workloads, &error) ||
        !parse_string_list_field(body, "models", &model_slugs, &error) ||
        !parse_u64_field(body, "instructions", &spec.instructions, &error) ||
        !parse_u64_field(body, "seed", &spec.seed, &error) ||
        !parse_jobs_field(body, &spec.jobs, &error) ||
        !parse_checkpoint_field(body, &spec.checkpoint, &error)) {
      return error_response(400, error);
    }
    if (const json::Value* title = body.find("title")) {
      if (!title->is_string()) {
        return error_response(400, "\"title\" must be a string");
      }
      spec.title = title->string;
    }
    if (const json::Value* extra = body.find("extra_seeds")) {
      if (!extra->is_array()) {
        return error_response(400, "\"extra_seeds\" must be an array");
      }
      for (const json::Value& seed : extra->array) {
        if (!seed.is_number() || !seed.is_integer || seed.number < 0) {
          return error_response(
              400, "\"extra_seeds\" must contain non-negative integers");
        }
        spec.extra_seeds.push_back(seed.uint_value);
      }
    }
    for (const std::string& slug : model_slugs) {
      Model model;
      if (!model_from_slug(slug, &model)) {
        return error_response(400, "unknown model \"" + slug + "\"");
      }
      spec.models.push_back(model);
    }
    const usize model_count = spec.models.empty() ? standard_models().size()
                                                  : spec.models.size();
    const usize workload_count =
        spec.workloads.empty() ? workloads::spec_like_names().size()
                               : spec.workloads.size();
    cells = workload_count * model_count * (1 + spec.extra_seeds.size());
    // run_experiment runs an omitted "instructions" at the default budget.
    instructions = spec.instructions != 0 ? spec.instructions
                                          : default_instruction_budget();
    workload_names = spec.workloads;
    job.experiment_spec = std::move(spec);
  }

  for (const std::string& name : workload_names) {
    if (!known_workload(name)) {
      return error_response(400, "unknown workload \"" + name + "\"");
    }
  }
  if (instructions > config_.max_instructions) {
    return error_response(
        400, format("\"instructions\" exceeds the per-cell cap %llu",
                    static_cast<unsigned long long>(config_.max_instructions)));
  }
  if (cells > config_.max_cells) {
    return error_response(
        400, format("spec expands to %llu grid cells (cap %llu)",
                    static_cast<unsigned long long>(cells),
                    static_cast<unsigned long long>(config_.max_cells)));
  }

  u64 id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = next_id_++;
    job.id = id;
    job.submitted_at = std::chrono::steady_clock::now();
    jobs_.emplace(id, std::move(job));
    ++submitted_;
    // Bound the table: drop the oldest finished jobs beyond the retention
    // window (ids are monotonic, so map order is submission order) —
    // preferring jobs whose result a client already fetched. A
    // never-fetched result is evicted only when fetched ones cannot cover
    // the excess.
    usize finished = 0;
    for (const auto& [jid, entry] : jobs_) {
      (void)jid;
      if (entry.state != JobState::kQueued &&
          entry.state != JobState::kRunning) {
        ++finished;
      }
    }
    const auto prune_pass = [this, &finished](bool fetched_only) {
      for (auto it = jobs_.begin();
           finished > config_.max_retained_jobs && it != jobs_.end();) {
        const Job& entry = it->second;
        const bool is_finished = entry.state != JobState::kQueued &&
                                 entry.state != JobState::kRunning;
        if (is_finished && (entry.fetched || !fetched_only)) {
          it = jobs_.erase(it);
          --finished;
        } else {
          ++it;
        }
      }
    };
    prune_pass(/*fetched_only=*/true);
    prune_pass(/*fetched_only=*/false);
  }

  if (!queue_.try_enqueue([this, id] { run_job(id); })) {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.erase(id);
    --submitted_;
    ++rejected_queue_full_;
    return error_response(429,
                          format("queue full (%zu waiting jobs; retry later)",
                                 queue_.capacity()));
  }

  logger_->info("job_submitted",
                format("job %llu accepted", static_cast<unsigned long long>(id)),
                {log::field("id", id),
                 log::field("job_kind",
                            is_campaign ? "campaign" : "experiment")});

  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  // The job may already have started (or even finished) on a worker.
  return json_response(202, it != jobs_.end()
                                ? job_status_json(it->second)
                                : format("{\"id\": %llu}\n",
                                         static_cast<unsigned long long>(id)));
}

http::Response SimulationService::job_status(u64 id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return error_response(404, "no such job");
  return json_response(200, job_status_json(it->second));
}

http::Response SimulationService::job_progress(u64 id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return error_response(404, "no such job");
  const Job& job = it->second;

  // Elapsed wall time: frozen at the recorded duration once the job
  // finished, live while it runs, zero while it waits in the queue.
  double elapsed_s = 0.0;
  if (job.state == JobState::kRunning) {
    elapsed_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              job.started_at)
                    .count();
  } else if (job.state != JobState::kQueued) {
    elapsed_s = job.wall_seconds;
  }
  // Committed count: the live max-merged progress number until the final
  // tally lands (the final tally includes cells the callback never saw,
  // e.g. when the run was cancelled mid-cell).
  const u64 committed = std::max(job.progress_committed, job.committed);
  const double kips =
      elapsed_s > 0.0 ? committed / elapsed_s / 1000.0 : 0.0;

  std::string out = "{\n";
  out += format("  \"id\": %llu,\n", static_cast<unsigned long long>(job.id));
  out += format("  \"state\": \"%s\",\n", job_state_name(job.state));
  out += format("  \"cells_done\": %llu,\n",
                static_cast<unsigned long long>(job.cells_done));
  out += format("  \"cells_total\": %llu,\n",
                static_cast<unsigned long long>(job.cells_total));
  out += format("  \"committed\": %llu,\n",
                static_cast<unsigned long long>(committed));
  out += format("  \"elapsed_s\": %.6f,\n", elapsed_s);
  out += format("  \"kips\": %.3f\n", kips);
  out += "}\n";
  return json_response(200, out);
}

http::Response SimulationService::job_result(u64 id,
                                             const http::Request& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return error_response(404, "no such job");
  Job& job = it->second;
  switch (job.state) {
    case JobState::kQueued:
    case JobState::kRunning:
      return json_response(202, job_status_json(it->second));
    case JobState::kTimeout:
      job.fetched = true;
      return error_response(
          408, format("job exceeded its %g s wall-clock timeout",
                      job.timeout_s));
    case JobState::kDone:
      break;
  }

  const auto format_it = request.query.find("format");
  const std::string fmt =
      format_it == request.query.end() ? "json" : format_it->second;
  const bool want_csv = fmt == "csv";
  if (fmt != "json" && !want_csv) {
    return error_response(400, "format must be \"json\" or \"csv\"");
  }
  job.fetched = true;
  if (job.is_campaign) {
    return want_csv
               ? http::Response{200, "text/csv", job.campaign_result->csv()}
               : json_response(200, job.campaign_result->json());
  }
  return want_csv
             ? http::Response{200, "text/csv", job.experiment_result->csv()}
             : json_response(200, job.experiment_result->json());
}

http::Response SimulationService::stats_response() {
  const ServiceStats stats = this->stats();
  std::string out = "{\n";
  out += format("  \"queue_depth\": %zu,\n", stats.queue_depth);
  out += format("  \"running\": %u,\n", stats.running);
  out += format("  \"queue_capacity\": %zu,\n", queue_.capacity());
  out += format("  \"workers\": %u,\n", queue_.worker_count());
  out += format("  \"submitted\": %llu,\n",
                static_cast<unsigned long long>(stats.submitted));
  out += format("  \"completed\": %llu,\n",
                static_cast<unsigned long long>(stats.completed));
  out += format("  \"timeouts\": %llu,\n",
                static_cast<unsigned long long>(stats.timeouts));
  out += format("  \"rejected_queue_full\": %llu,\n",
                static_cast<unsigned long long>(stats.rejected_queue_full));
  out += format("  \"total_committed_instructions\": %llu,\n",
                static_cast<unsigned long long>(stats.total_committed));
  out += format("  \"total_wall_seconds\": %.6f,\n",
                stats.total_wall_seconds);
  out += format("  \"cumulative_kips\": %.3f\n", stats.kips());
  out += "}\n";
  return json_response(200, out);
}

void export_service_stats(metrics::Registry* registry,
                          const ServiceStats& stats) {
  const auto set_counter = [registry](const char* name, u64 value,
                                      const char* help) {
    if (metrics::Counter* counter = registry->counter(name, {}, help)) {
      counter->set(value);
    }
  };
  const auto set_gauge = [registry](const char* name, double value,
                                    const char* help) {
    if (metrics::Gauge* gauge = registry->gauge(name, {}, help)) {
      gauge->set(value);
    }
  };
  set_counter("reese_service_submitted_total", stats.submitted,
              "Jobs accepted");
  set_counter("reese_service_completed_total", stats.completed,
              "Jobs finished in state done");
  set_counter("reese_service_timeouts_total", stats.timeouts,
              "Jobs finished in state timeout");
  set_counter("reese_service_rejected_queue_full_total",
              stats.rejected_queue_full, "Submits refused with 429");
  set_counter("reese_service_committed_instructions_total",
              stats.total_committed,
              "Instructions committed across finished jobs");
  set_gauge("reese_service_queue_depth",
            static_cast<double>(stats.queue_depth), "Jobs waiting to run");
  set_gauge("reese_service_running_jobs", static_cast<double>(stats.running),
            "Jobs currently executing");
  set_gauge("reese_service_busy_seconds", stats.total_wall_seconds,
            "Cumulative job execution wall time");
  set_gauge("reese_service_kips", stats.kips(),
            "Cumulative throughput, thousand committed instructions per "
            "wall-second");
}

http::Response SimulationService::metrics_response() {
  // Service-level series are point-in-time mirrors refreshed per scrape;
  // the grid counters in registry_ are already live.
  export_service_stats(&registry_, stats());
  return http::Response{200, "text/plain; version=0.0.4",
                        registry_.prometheus()};
}

void SimulationService::run_job(u64 id) {
  bool is_campaign = false;
  double timeout_s = 0.0;
  ExperimentSpec experiment_spec;
  CampaignSpec campaign_spec;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return;
    Job& job = it->second;
    job.state = JobState::kRunning;
    job.started_at = std::chrono::steady_clock::now();
    is_campaign = job.is_campaign;
    timeout_s = job.timeout_s;
    if (is_campaign) {
      campaign_spec = *job.campaign_spec;
    } else {
      experiment_spec = *job.experiment_spec;
    }
  }

  const auto lifecycle_fields = [&](std::vector<log::Field> extra = {}) {
    std::vector<log::Field> fields = {
        log::field("id", id),
        log::field("job_kind", is_campaign ? "campaign" : "experiment")};
    for (log::Field& field : extra) fields.push_back(std::move(field));
    return fields;
  };
  logger_->info("job_started",
                format("job %llu running", static_cast<unsigned long long>(id)),
                lifecycle_fields());

  // Per-cell progress lands in the job table (max-merged: worker threads
  // may report out of order) so /v1/jobs/<id>/progress sees a monotonic
  // stream; the grid counters accumulate daemon-wide in registry_.
  const ProgressFn progress = [this, id](const ProgressUpdate& update) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return;
    Job& job = it->second;
    job.cells_done = std::max(job.cells_done, update.cells_done);
    job.cells_total = update.cells_total;
    job.progress_committed =
        std::max(job.progress_committed, update.committed);
  };

  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(timeout_s));
  const auto expired = [deadline] {
    return std::chrono::steady_clock::now() >= deadline;
  };

  bool cancelled = false;
  u64 committed = 0;
  std::optional<ExperimentResult> experiment_result;
  std::optional<CampaignResult> campaign_result;
  if (is_campaign) {
    campaign_spec.cancel = expired;
    campaign_spec.progress = progress;
    campaign_spec.metrics = &registry_;
    campaign_result = run_campaign(campaign_spec);
    cancelled = campaign_result->cancelled;
    for (const auto& per_workload : campaign_result->matrix.cells) {
      for (const auto& per_replica : per_workload) {
        for (const CampaignCell& cell : per_replica) {
          committed += cell.committed;
        }
      }
    }
  } else {
    experiment_spec.cancel = expired;
    experiment_spec.progress = progress;
    experiment_spec.metrics = &registry_;
    experiment_result = run_experiment(experiment_spec);
    cancelled = experiment_result->cancelled;
    for (const auto& per_model : experiment_result->cells) {
      for (const auto& per_seed : per_model) {
        for (const ExperimentCell& cell : per_seed) {
          committed += cell.committed;
        }
      }
    }
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const JobState final_state = cancelled ? JobState::kTimeout : JobState::kDone;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return;
    Job& job = it->second;
    job.wall_seconds = wall_seconds;
    job.committed = committed;
    job.state = final_state;
    if (cancelled) {
      ++timeouts_;
    } else {
      job.experiment_result = std::move(experiment_result);
      job.campaign_result = std::move(campaign_result);
      ++completed_;
      total_committed_ += committed;
      total_wall_seconds_ += wall_seconds;
    }
  }

  const char* state = job_state_name(final_state);
  logger_->info("job_finished",
                format("job %llu finished in state %s",
                       static_cast<unsigned long long>(id), state),
                lifecycle_fields({log::field("state", state),
                                  log::field("wall_seconds", wall_seconds),
                                  log::field("committed", committed)}));
}

}  // namespace reese::sim
