// Fleet coordinator: fan one fault campaign across N reesed worker
// daemons and merge the shards back byte-identically (DESIGN.md §15).
//
// The coordinator side of reesed --coordinator. A campaign splits along
// the replica axis (split_campaign_spec) into more shards than workers
// (shards_per_worker controls the granularity of failure re-dispatch);
// one thread per worker pulls shards from a shared queue, POSTs each to
// the worker's /v1/campaigns over a persistent keep-alive connection
// (http::Client), polls job state, and fetches the finished shard's
// lossless per-cell matrix (?format=cells). Shards land in the merged
// matrix through place_shard, which enforces the shard identity contract
// (seed / budget / rate / axes) instead of trusting the worker.
//
// Failure semantics:
//  * transient transport errors and 429 backpressure retry with bounded
//    exponential backoff + jitter (http::RequestOptions);
//  * a worker that stays unreachable past the retry budget is declared
//    dead: its in-flight shard goes back on the queue for the surviving
//    workers, and its thread exits — a SIGKILLed worker costs one shard's
//    worth of redone work, never the campaign;
//  * a worker that *rejects* a shard (4xx/5xx) or returns a result that
//    fails the identity check aborts the campaign with a diagnostic —
//    those are deterministic failures that retrying cannot fix;
//  * when every worker is dead with shards still pending, the campaign
//    fails rather than hangs.
//
// Determinism: a shard re-dispatched to a different worker computes
// exactly the same cells (derive_cell_seed is a pure function of the
// campaign seed and global cell coordinates), so worker death changes
// wall-clock time, never results.
//
// Observability (DESIGN.md §17): lifecycle events (dispatch, merge,
// re-dispatch, worker death, probe failures) go to the structured log
// (common/log.h).
#pragma once

#include <string>
#include <vector>

#include "common/log.h"
#include "sim/campaign.h"

namespace reese::sim::fleet {

struct Worker {
  std::string host;
  u16 port = 0;
};

/// Parse "host:port" (host may be a dotted IPv4 literal). False with a
/// diagnostic for anything else.
bool parse_worker_address(const std::string& address, Worker* out,
                          std::string* error);

/// Read a workers file: one host:port per line; blank lines and
/// '#'-comments skipped. False with a diagnostic on I/O or parse errors.
bool load_workers_file(const std::string& path, std::vector<Worker>* out,
                       std::string* error);

struct FleetConfig {
  std::vector<Worker> workers;
  /// Bearer token sent on every worker request ("" = none).
  std::string auth_token;
  /// Shards per *alive* worker; >1 makes re-dispatch after a worker death
  /// cheaper (smaller lost unit) at the cost of more requests.
  u32 shards_per_worker = 2;
  /// Wall-clock timeout_s requested for each shard job on the worker;
  /// 0 = the worker's default.
  double shard_timeout_s = 0.0;
  double probe_deadline_s = 5.0;    ///< /v1/healthz budget per attempt
  double request_deadline_s = 10.0; ///< submit/poll budget per attempt
  double fetch_deadline_s = 60.0;   ///< ?format=cells fetch budget
  /// Retries per request (exponential backoff + jitter); a worker is
  /// declared dead only after max_retries + 1 consecutive failures.
  int max_retries = 3;
  double backoff_ms = 100.0;
  double backoff_max_ms = 2000.0;
  double poll_interval_ms = 50.0;   ///< job-state poll cadence
  /// Structured event log target; nullptr = log::global().
  log::Logger* logger = nullptr;
};

/// True when the worker answers /v1/healthz. Probes the worker up to
/// max_retries + 1 times, backing off deterministically (backoff_ms
/// doubling, capped at backoff_max_ms) between attempts — a worker that
/// refuses one transient probe (503 while draining, listen backlog hiccup)
/// is not declared dead. Each failed attempt is logged as a
/// probe_attempt_failed event; `attempts` (optional) reports how many
/// attempts were made.
bool probe_worker(const Worker& worker, const FleetConfig& config,
                  int* attempts = nullptr);

/// The JSON body POSTed to a worker for one shard (exposed for tests:
/// the wire spec must carry resolved values and the shard's
/// replica_begin, and must never set "quick"). `timeout_s` <= 0 omits
/// the field.
std::string campaign_spec_json(const CampaignSpec& shard, double timeout_s);

/// Run `spec` across the fleet and merge the shards into `*result`,
/// byte-identical (json()/csv()) to a single-node run_campaign of the
/// same spec. Honors spec.cancel (the merged result is then marked
/// cancelled, matching run_campaign) and reports shard completions
/// through spec.progress. Returns false with a diagnostic when the
/// campaign cannot complete: no reachable workers, a deterministic shard
/// rejection/failure, an identity-check violation, or every worker dead
/// with shards pending.
bool run_fleet_campaign(const FleetConfig& config, const CampaignSpec& spec,
                        CampaignResult* result, std::string* error);

}  // namespace reese::sim::fleet
