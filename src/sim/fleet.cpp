#include "sim/fleet.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>

#include "common/diag.h"
#include "common/http.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/strutil.h"
#include "sim/progress.h"

namespace reese::sim::fleet {

namespace {

log::Logger& logger_of(const FleetConfig& config) {
  return config.logger != nullptr ? *config.logger : log::global();
}

http::RequestOptions wire_options(const FleetConfig& config, double deadline_s,
                                  u64 jitter_seed) {
  http::RequestOptions options;
  options.deadline_s = deadline_s;
  options.max_retries = config.max_retries;
  options.backoff_ms = config.backoff_ms;
  options.backoff_max_ms = config.backoff_max_ms;
  options.jitter_seed = jitter_seed;
  if (!config.auth_token.empty()) {
    options.headers.push_back(
        {"Authorization", "Bearer " + config.auth_token});
  }
  return options;
}

std::string worker_name(const Worker& worker) {
  return format("%s:%u", worker.host.c_str(), worker.port);
}

/// Shared dispatch state: one shard queue, one merge target. Worker
/// threads block on `cv` for pending shards (a dead worker's shard comes
/// *back* onto the queue, so survivors must wake up for it).
struct Dispatch {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<usize> pending;
  usize completed = 0;
  usize total = 0;
  u32 alive_workers = 0;
  bool fatal = false;
  bool cancelled = false;
  std::string error;
  u64 cells_done = 0;
  u64 cells_total = 0;
  u64 committed = 0;
  CampaignMatrix merged;
  std::vector<u32> dispatch_counts;  ///< attempts so far, per shard
  log::Logger* logger = nullptr;     ///< thread-safe itself

  void fail(const std::string& message) {
    if (!fatal) {
      fatal = true;
      error = message;
    }
  }
  bool finished() const {
    return fatal || cancelled || completed == total;
  }
};

/// Which shard, which try. Minted under the dispatch mutex when a worker
/// thread claims a shard.
struct Attempt {
  usize shard_index = 0;
  u32 number = 0;  ///< 1-based dispatch count for this shard
};

/// Standard structured-log fields tying an event to a shard attempt.
std::vector<log::Field> attempt_fields(const Worker& worker,
                                       const CampaignSpec& shard,
                                       const Attempt& attempt) {
  return {log::field("worker", worker_name(worker)),
          log::field("shard", static_cast<u64>(attempt.shard_index)),
          log::field("replica_begin", shard.replica_begin),
          log::field("replicas", shard.replicas),
          log::field("attempt", attempt.number)};
}

enum class ShardOutcome {
  kDone,        ///< placed into the merged matrix
  kRequeue,     ///< worker is alive but lost the job (restart); retry shard
  kWorkerDead,  ///< transport gone past the retry budget; requeue + exit
  kFatal,       ///< deterministic failure; campaign aborted
  kCancelled,   ///< spec.cancel fired
};

ShardOutcome run_shard(http::Client* client, const Worker& worker,
                       const FleetConfig& config,
                       const CampaignSpec& resolved,
                       const CampaignSpec& shard, const Attempt& attempt,
                       Dispatch* dispatch) {
  const u64 jitter_seed =
      SplitMix64(resolved.seed ^ (static_cast<u64>(shard.replica_begin) + 1))
          .next();
  const http::RequestOptions request_options =
      wire_options(config, config.request_deadline_s, jitter_seed);
  const std::string shard_label =
      format("r[%u,%u)", shard.replica_begin,
             shard.replica_begin + shard.replicas);

  const auto fatal = [&](const std::string& message) {
    {
      std::lock_guard<std::mutex> lock(dispatch->mutex);
      dispatch->fail(message);
    }
    dispatch->logger->error("campaign_failed", message,
                            attempt_fields(worker, shard, attempt));
    return ShardOutcome::kFatal;
  };

  // Submit the shard.
  const std::string body =
      campaign_spec_json(shard, config.shard_timeout_s);
  http::Response response =
      client->request("POST", "/v1/campaigns", body, request_options);
  if (response.status == 0) return ShardOutcome::kWorkerDead;
  if (response.status != 202) {
    const std::string detail(trim(response.body));
    return fatal(format("worker %s rejected shard %s: %d %s",
                        worker_name(worker).c_str(), shard_label.c_str(),
                        response.status, detail.c_str()));
  }
  Result<json::Value> accepted = json::parse_json(response.body);
  const json::Value* id_value =
      accepted.ok() ? accepted.value().find("id") : nullptr;
  if (id_value == nullptr || !id_value->is_integer) {
    return fatal(format("worker %s returned an unparseable submit response",
                        worker_name(worker).c_str()));
  }
  const u64 job_id = id_value->uint_value;
  const std::string job_path = format("/v1/jobs/%llu",
                                      static_cast<unsigned long long>(job_id));
  dispatch->logger->info(
      "shard_dispatch",
      format("shard %s dispatched to %s as job %llu", shard_label.c_str(),
             worker_name(worker).c_str(),
             static_cast<unsigned long long>(job_id)),
      attempt_fields(worker, shard, attempt));

  // Poll the job's status document until it reaches a terminal state.
  while (true) {
    if (resolved.cancel && resolved.cancel()) {
      std::lock_guard<std::mutex> lock(dispatch->mutex);
      dispatch->cancelled = true;
      return ShardOutcome::kCancelled;
    }
    response = client->request("GET", job_path, "", request_options);
    if (response.status == 0) return ShardOutcome::kWorkerDead;
    if (response.status == 404) {
      // The worker restarted (fresh job table) or pruned the job: it is
      // alive, it just lost our work — resubmit the shard.
      return ShardOutcome::kRequeue;
    }
    if (response.status != 200) {
      return fatal(format("worker %s: job %llu status fetch failed: %d",
                          worker_name(worker).c_str(),
                          static_cast<unsigned long long>(job_id),
                          response.status));
    }
    Result<json::Value> status = json::parse_json(response.body);
    const json::Value* state =
        status.ok() ? status.value().find("state") : nullptr;
    if (state == nullptr || !state->is_string()) {
      return fatal(format("worker %s returned an unparseable job status",
                          worker_name(worker).c_str()));
    }
    if (state->string == "done") break;
    if (state->string == "failed" || state->string == "timeout") {
      // Deterministic on re-dispatch too (same cells, same budget): abort
      // with the worker's diagnosis instead of looping the fleet on it.
      const json::Value* job_error = status.value().find("error");
      const std::string detail =
          job_error != nullptr && job_error->is_string() ? job_error->string
                                                         : "";
      return fatal(format("worker %s: shard %s ended in state %s%s%s",
                          worker_name(worker).c_str(), shard_label.c_str(),
                          state->string.c_str(), detail.empty() ? "" : ": ",
                          detail.c_str()));
    }
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        config.poll_interval_ms > 0.0 ? config.poll_interval_ms : 50.0));
  }

  // Fetch the lossless per-cell matrix and merge it.
  response = client->request(
      "GET", job_path + "/result?format=cells", "",
      wire_options(config, config.fetch_deadline_s, jitter_seed));
  if (response.status == 0) return ShardOutcome::kWorkerDead;
  if (response.status == 404) return ShardOutcome::kRequeue;
  if (response.status != 200) {
    return fatal(format("worker %s: shard result fetch failed: %d",
                        worker_name(worker).c_str(), response.status));
  }
  CampaignWire wire;
  std::string wire_error;
  if (!deserialize_campaign_matrix(response.body, &wire, &wire_error)) {
    return fatal(format("worker %s: %s", worker_name(worker).c_str(),
                        wire_error.c_str()));
  }

  u64 shard_committed = 0;
  u64 shard_cells_merged = 0;
  for (const auto& workloads : wire.matrix.cells) {
    for (const auto& cells : workloads) {
      for (const CampaignCell& cell : cells) {
        shard_committed += cell.committed;
        ++shard_cells_merged;
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(dispatch->mutex);
    if (!place_shard(resolved, wire, &dispatch->merged, &wire_error)) {
      dispatch->fail(format("worker %s: %s", worker_name(worker).c_str(),
                            wire_error.c_str()));
      return ShardOutcome::kFatal;
    }
    ++dispatch->completed;
    dispatch->cells_done += shard_cells_merged;
    dispatch->committed += shard_committed;
  }
  std::vector<log::Field> fields = attempt_fields(worker, shard, attempt);
  fields.push_back(log::field("cells", shard_cells_merged));
  fields.push_back(log::field("committed", shard_committed));
  dispatch->logger->info("shard_merged",
                         format("shard %s merged from %s", shard_label.c_str(),
                                worker_name(worker).c_str()),
                         fields);
  return ShardOutcome::kDone;
}

void worker_loop(const FleetConfig& config, const Worker& worker,
                 const CampaignSpec& resolved,
                 const std::vector<CampaignSpec>& shards,
                 Dispatch* dispatch) {
  // One persistent keep-alive connection per worker thread: submit, every
  // poll and the result fetch ride the same socket.
  http::Client client(worker.host, worker.port);
  while (true) {
    Attempt attempt;
    {
      std::unique_lock<std::mutex> lock(dispatch->mutex);
      dispatch->cv.wait(lock, [dispatch] {
        return dispatch->finished() || !dispatch->pending.empty();
      });
      if (dispatch->finished()) return;
      attempt.shard_index = dispatch->pending.front();
      dispatch->pending.pop_front();
      attempt.number = ++dispatch->dispatch_counts[attempt.shard_index];
    }
    const CampaignSpec& shard = shards[attempt.shard_index];

    const ShardOutcome outcome = run_shard(&client, worker, config, resolved,
                                           shard, attempt, dispatch);
    switch (outcome) {
      case ShardOutcome::kDone: {
        u64 done = 0;
        u64 total = 0;
        u64 committed = 0;
        {
          std::lock_guard<std::mutex> lock(dispatch->mutex);
          done = dispatch->cells_done;
          total = dispatch->cells_total;
          committed = dispatch->committed;
        }
        if (resolved.progress) resolved.progress({done, total, committed});
        dispatch->cv.notify_all();
        break;
      }
      case ShardOutcome::kRequeue: {
        {
          std::lock_guard<std::mutex> lock(dispatch->mutex);
          dispatch->pending.push_front(attempt.shard_index);
        }
        dispatch->logger->info(
            "shard_redispatch",
            format("worker %s lost job for shard %zu; re-dispatching",
                   worker_name(worker).c_str(), attempt.shard_index),
            attempt_fields(worker, shard, attempt));
        dispatch->cv.notify_all();
        break;
      }
      case ShardOutcome::kWorkerDead: {
        {
          std::lock_guard<std::mutex> lock(dispatch->mutex);
          dispatch->pending.push_front(attempt.shard_index);
          --dispatch->alive_workers;
          if (dispatch->alive_workers == 0 &&
              dispatch->completed < dispatch->total) {
            dispatch->fail("every worker became unreachable with shards "
                           "still pending");
          }
        }
        dispatch->logger->warn(
            "worker_dead",
            format("worker %s unreachable; re-dispatching shard %zu",
                   worker_name(worker).c_str(), attempt.shard_index),
            attempt_fields(worker, shard, attempt));
        dispatch->cv.notify_all();
        return;
      }
      case ShardOutcome::kFatal:
      case ShardOutcome::kCancelled:
        dispatch->cv.notify_all();
        return;
    }
  }
}

}  // namespace

bool parse_worker_address(const std::string& address, Worker* out,
                          std::string* error) {
  const usize colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= address.size()) {
    if (error != nullptr) {
      *error = "worker address must be host:port, got \"" + address + "\"";
    }
    return false;
  }
  i64 port = 0;
  if (!parse_int(std::string_view(address).substr(colon + 1), &port) ||
      port < 1 || port > 65535) {
    if (error != nullptr) {
      *error = "bad port in worker address \"" + address + "\"";
    }
    return false;
  }
  out->host = address.substr(0, colon);
  out->port = static_cast<u16>(port);
  return true;
}

bool load_workers_file(const std::string& path, std::vector<Worker>* out,
                       std::string* error) {
  FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) {
    if (error != nullptr) *error = "cannot open workers file " + path;
    return false;
  }
  std::string contents;
  char chunk[4096];
  usize got;
  while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    contents.append(chunk, got);
  }
  std::fclose(file);

  for (std::string_view raw_line : split(contents, '\n')) {
    const std::string_view line = trim(raw_line);
    if (line.empty() || line[0] == '#') continue;
    Worker worker;
    if (!parse_worker_address(std::string(line), &worker, error)) {
      return false;
    }
    out->push_back(std::move(worker));
  }
  if (out->empty()) {
    if (error != nullptr) *error = "workers file " + path + " lists no workers";
    return false;
  }
  return true;
}

bool probe_worker(const Worker& worker, const FleetConfig& config,
                  int* attempts) {
  log::Logger& logger = logger_of(config);
  const int max_attempts = std::max(1, config.max_retries + 1);
  // One attempt per iteration with the transport's own retries disabled:
  // the transport layer only retries transport failures and 429, so a
  // worker answering 503 while it drains (or any other transient refusal)
  // would be declared dead on its first word. This loop retries on *any*
  // non-200 with a deterministic backoff instead.
  double delay_ms = config.backoff_ms > 0.0 ? config.backoff_ms : 100.0;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    http::RequestOptions options;
    options.deadline_s = config.probe_deadline_s;
    options.max_retries = 0;
    if (!config.auth_token.empty()) {
      options.headers.push_back(
          {"Authorization", "Bearer " + config.auth_token});
    }
    const http::Response response = http::request(
        worker.host, worker.port, "GET", "/v1/healthz", "", options);
    if (response.status == 200) {
      if (attempts != nullptr) *attempts = attempt;
      return true;
    }
    logger.warn("probe_attempt_failed",
                format("worker %s probe attempt %d/%d failed (status %d)",
                       worker_name(worker).c_str(), attempt, max_attempts,
                       response.status),
                {log::field("worker", worker_name(worker)),
                 log::field("attempt", attempt),
                 log::field("max_attempts", max_attempts),
                 log::field("status", response.status)});
    if (attempt < max_attempts) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(delay_ms));
      delay_ms = std::min(delay_ms * 2.0, config.backoff_max_ms > 0.0
                                              ? config.backoff_max_ms
                                              : delay_ms * 2.0);
    }
  }
  if (attempts != nullptr) *attempts = max_attempts;
  return false;
}

std::string campaign_spec_json(const CampaignSpec& shard, double timeout_s) {
  // Every field is the *resolved* value: a worker must not re-resolve
  // defaults (and must never see quick=true, which would clamp the shard
  // back to one replica).
  std::string out = "{";
  out += "\"workloads\": [";
  for (usize w = 0; w < shard.workloads.size(); ++w) {
    out += format("%s\"%s\"", w == 0 ? "" : ", ",
                  json_escape(shard.workloads[w]).c_str());
  }
  out += "], \"variants\": [";
  for (usize v = 0; v < shard.variants.size(); ++v) {
    out += format("%s\"%s\"", v == 0 ? "" : ", ",
                  json_escape(shard.variants[v].label).c_str());
  }
  out += format("], \"replicas\": %u", shard.replicas);
  out += format(", \"replica_begin\": %u", shard.replica_begin);
  out += format(", \"instructions\": %llu",
                static_cast<unsigned long long>(shard.instructions));
  // %.17g round-trips an IEEE double exactly, so the worker's injector
  // sees bit-identical rate.
  out += format(", \"rate\": %.17g", shard.rate);
  out += format(", \"seed\": %llu",
                static_cast<unsigned long long>(shard.seed));
  if (timeout_s > 0.0) out += format(", \"timeout_s\": %g", timeout_s);
  out += "}";
  return out;
}

bool run_fleet_campaign(const FleetConfig& config, const CampaignSpec& spec,
                        CampaignResult* result, std::string* error) {
  log::Logger& logger = logger_of(config);
  const auto fail = [error, &logger](const std::string& message) {
    if (error != nullptr) *error = message;
    logger.error("campaign_failed", message);
    return false;
  };
  if (config.workers.empty()) return fail("fleet has no workers configured");

  const CampaignSpec resolved = resolve_campaign_defaults(spec);
  if (!resolved.programs.empty()) {
    return fail("fleet mode cannot ship fixed program images to workers");
  }
  // The wire spec names variants by label; anything the worker cannot
  // reconstruct from the label alone (standard five or component
  // "base@site") would silently resolve differently over there.
  for (const CampaignVariant& variant : resolved.variants) {
    CampaignVariant reconstructed;
    if (!campaign_variant_by_label(variant.label, &reconstructed)) {
      return fail("fleet mode supports label-resolvable campaign variants "
                  "only (standard or \"base@site\"), got \"" +
                  variant.label + "\"");
    }
  }

  std::vector<Worker> alive;
  for (const Worker& worker : config.workers) {
    int attempts = 0;
    if (probe_worker(worker, config, &attempts)) {
      alive.push_back(worker);
    } else {
      logger.warn("probe_failed",
                  format("worker %s failed its health probe after %d attempts",
                         worker_name(worker).c_str(), attempts),
                  {log::field("worker", worker_name(worker)),
                   log::field("attempts", attempts)});
    }
  }
  if (alive.empty()) return fail("no reachable workers");

  const usize shard_target =
      std::min<usize>(resolved.replicas,
                      alive.size() * std::max(1u, config.shards_per_worker));
  const std::vector<CampaignSpec> shards =
      split_campaign_spec(resolved, shard_target);

  Dispatch dispatch;
  dispatch.total = shards.size();
  for (usize s = 0; s < shards.size(); ++s) dispatch.pending.push_back(s);
  dispatch.alive_workers = static_cast<u32>(alive.size());
  dispatch.cells_total = static_cast<u64>(resolved.variants.size()) *
                         resolved.workloads.size() * resolved.replicas;
  dispatch.merged = make_campaign_matrix(resolved);
  dispatch.dispatch_counts.assign(shards.size(), 0);
  dispatch.logger = &logger;

  logger.info(
      "campaign_start",
      format("fleet campaign across %zu workers in %zu shards", alive.size(),
             shards.size()),
      {log::field("workers", static_cast<u64>(alive.size())),
       log::field("shards", static_cast<u64>(shards.size())),
       log::field("replicas", resolved.replicas),
       log::field("cells", dispatch.cells_total)});

  std::vector<std::thread> threads;
  threads.reserve(alive.size());
  for (const Worker& worker : alive) {
    threads.emplace_back(worker_loop, std::cref(config), std::cref(worker),
                         std::cref(resolved), std::cref(shards), &dispatch);
  }
  for (std::thread& thread : threads) thread.join();

  if (dispatch.fatal) {
    if (error != nullptr) *error = dispatch.error;
    // run_shard/worker_loop already logged the specific failure.
    return false;
  }
  result->spec = resolved;
  result->matrix = std::move(dispatch.merged);
  result->cancelled = dispatch.cancelled;
  logger.info("campaign_done",
              format("fleet campaign merged %llu cells",
                     static_cast<unsigned long long>(dispatch.cells_done)),
              {log::field("cells", dispatch.cells_done),
               log::field("committed", dispatch.committed),
               log::field("cancelled", dispatch.cancelled)});
  return true;
}

}  // namespace reese::sim::fleet
