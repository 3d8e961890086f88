// End-to-end coverage for the reesed stack (DESIGN.md §11):
//  * SimulationService routing, validation (400), backpressure (429),
//    wall-clock timeouts (408) and stats — driven in-process via handle();
//  * results fetched through the service are byte-identical to a direct
//    run_experiment/run_campaign with the same spec;
//  * every JSON body the service emits round-trips through JsonChecker;
//  * the HTTP layer over a real loopback socket (http::Server + client);
//  * the shipped binaries: reesed on an ephemeral port driven by
//    reese_client (submit → wait → result), then a SIGTERM drain that must
//    exit 0. Binary paths arrive via REESE_REESED_BIN / REESE_CLIENT_BIN.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/http.h"
#include "common/json.h"
#include "common/strutil.h"
#include "sim/campaign.h"
#include "sim/experiment.h"
#include "sim/service.h"
#include "json_checker.h"

namespace reese {
namespace {

using sim::ServiceConfig;
using sim::SimulationService;

http::Request make_request(const std::string& method, const std::string& path,
                           const std::string& body = "") {
  http::Request request;
  request.method = method;
  request.path = path;
  request.body = body;
  return request;
}

http::Request result_request(const std::string& id_path,
                             const std::string& fmt = "") {
  http::Request request = make_request("GET", id_path + "/result");
  if (!fmt.empty()) request.query["format"] = fmt;
  return request;
}

/// Submit a spec, expect 202, return "/v1/jobs/<id>".
std::string submit_ok(SimulationService* service, const std::string& endpoint,
                      const std::string& spec) {
  const http::Response response =
      service->handle(make_request("POST", endpoint, spec));
  EXPECT_EQ(response.status, 202) << response.body;
  EXPECT_TRUE(JsonChecker(response.body).valid()) << response.body;
  const Result<json::Value> parsed = json::parse_json(response.body);
  EXPECT_TRUE(parsed.ok());
  const json::Value* id = parsed.value().find("id");
  EXPECT_NE(id, nullptr);
  return format("/v1/jobs/%llu",
                static_cast<unsigned long long>(id->uint_value));
}

/// Poll a job until it leaves queued/running; returns the final state.
std::string wait_for_job(SimulationService* service,
                         const std::string& id_path) {
  for (int i = 0; i < 2000; ++i) {
    const http::Response response =
        service->handle(make_request("GET", id_path));
    EXPECT_EQ(response.status, 200) << response.body;
    EXPECT_TRUE(JsonChecker(response.body).valid()) << response.body;
    const Result<json::Value> parsed = json::parse_json(response.body);
    EXPECT_TRUE(parsed.ok());
    const std::string state = parsed.value().find("state")->string;
    if (state != "queued" && state != "running") return state;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return "poll timeout";
}

TEST(Service, HealthzAndUnknownRoutes) {
  SimulationService service;
  EXPECT_EQ(service.handle(make_request("GET", "/v1/healthz")).status, 200);
  EXPECT_EQ(service.handle(make_request("POST", "/v1/healthz")).status, 405);
  EXPECT_EQ(service.handle(make_request("GET", "/v1/nope")).status, 404);
  EXPECT_EQ(service.handle(make_request("GET", "/v1/jobs/99")).status, 404);
  EXPECT_EQ(service.handle(make_request("GET", "/v1/jobs/zzz")).status, 404);
  EXPECT_EQ(service.handle(make_request("DELETE", "/v1/jobs/1")).status, 405);
  EXPECT_EQ(service.handle(make_request("GET", "/v1/experiments")).status,
            405);
}

TEST(Service, RejectsInvalidSpecsWith400) {
  SimulationService service;
  const char* bad_specs[] = {
      "not json at all",
      "[1, 2, 3]",                             // not an object
      R"({"workloads": ["no_such_bench"]})",   // unknown workload
      R"({"models": ["pentium"]})",            // unknown model
      R"({"modles": ["reese"]})",              // typo'd key
      R"({"workloads": []})",                  // empty list
      R"({"instructions": 99000000})",         // over the per-cell cap
      R"({"instructions": -5})",               // negative integer
      R"({"jobs": 0})",                        // out-of-range worker count
      R"({"jobs": 1000000})",                  //
      R"({"timeout_s": 1e9})",                 // beyond max_timeout_s
      R"({"extra_seeds": [1, "two"]})",        // non-integer seed
      R"({"seed": 1.5})",                      // non-integer seed
  };
  for (const char* spec : bad_specs) {
    const http::Response response =
        service.handle(make_request("POST", "/v1/experiments", spec));
    EXPECT_EQ(response.status, 400) << spec << " -> " << response.body;
    EXPECT_TRUE(JsonChecker(response.body).valid()) << response.body;
  }

  const char* bad_campaigns[] = {
      R"({"variants": ["no_such_variant"]})",
      R"({"rate": 0})",
      R"({"rate": 1.5})",
      R"({"replicas": 0})",
      R"({"replicas": 100000})",  // replica bound and cell cap
      R"({"models": ["reese"]})",  // experiment-only key
      // replica_begin + replicas would wrap past the bound near 2^64.
      R"({"replica_begin": 18446744073709551615})",
  };
  for (const char* spec : bad_campaigns) {
    const http::Response response =
        service.handle(make_request("POST", "/v1/campaigns", spec));
    EXPECT_EQ(response.status, 400) << spec << " -> " << response.body;
    EXPECT_TRUE(JsonChecker(response.body).valid()) << response.body;
  }
}

TEST(Service, OmittedInstructionsCountAgainstTheCap) {
  // "{}" runs at the default budget (1M per experiment cell, 60k per
  // campaign cell), which is over this cap. A zero default timeout keeps
  // a wrongly admitted job from simulating anything.
  ServiceConfig config;
  config.workers = 1;
  config.max_instructions = 50'000;
  config.default_timeout_s = 0.0;
  SimulationService service(config);
  for (const char* endpoint : {"/v1/experiments", "/v1/campaigns"}) {
    const http::Response response =
        service.handle(make_request("POST", endpoint, "{}"));
    EXPECT_EQ(response.status, 400) << endpoint << " -> " << response.body;
  }
  // An explicit budget within the cap is still admitted.
  submit_ok(&service, "/v1/experiments",
            R"({"workloads": ["gcc"], "models": ["baseline"],
                "instructions": 50000})");
  submit_ok(&service, "/v1/campaigns",
            R"({"workloads": ["gcc"], "variants": ["baseline"],
                "replicas": 1, "instructions": 50000})");
  service.drain();
}

TEST(Service, ExperimentMatchesDirectRunByteForByte) {
  ServiceConfig config;
  config.workers = 1;
  SimulationService service(config);
  const std::string id_path = submit_ok(
      &service, "/v1/experiments",
      R"({"title": "svc", "workloads": ["gcc", "li"],
          "models": ["baseline", "reese"],
          "instructions": 20000, "seed": 42})");
  EXPECT_EQ(wait_for_job(&service, id_path), "done");

  const http::Response csv = service.handle(result_request(id_path, "csv"));
  ASSERT_EQ(csv.status, 200);
  EXPECT_EQ(csv.content_type, "text/csv");
  const http::Response json_body = service.handle(result_request(id_path));
  ASSERT_EQ(json_body.status, 200);
  EXPECT_TRUE(JsonChecker(json_body.body).valid()) << json_body.body;

  // The same spec run directly must serialize identically: the service
  // adds queueing and timeouts around the grid, never inside it.
  sim::ExperimentSpec direct;
  direct.title = "svc";
  direct.base = core::starting_config();
  direct.workloads = {"gcc", "li"};
  direct.models = {sim::Model::kBaseline, sim::Model::kReese};
  direct.instructions = 20000;
  direct.seed = 42;
  direct.jobs = 1;
  const sim::ExperimentResult expected = sim::run_experiment(direct);
  EXPECT_EQ(csv.body, expected.csv());
  EXPECT_EQ(json_body.body, expected.json());
}

TEST(Service, CampaignMatchesDirectRunByteForByte) {
  ServiceConfig config;
  config.workers = 1;
  SimulationService service(config);
  const std::string id_path = submit_ok(
      &service, "/v1/campaigns",
      R"({"workloads": ["gcc"], "quick": true, "instructions": 5000})");
  EXPECT_EQ(wait_for_job(&service, id_path), "done");

  const http::Response json_body = service.handle(result_request(id_path));
  ASSERT_EQ(json_body.status, 200);
  EXPECT_TRUE(JsonChecker(json_body.body).valid()) << json_body.body;
  const http::Response csv = service.handle(result_request(id_path, "csv"));
  ASSERT_EQ(csv.status, 200);

  sim::CampaignSpec direct;
  direct.workloads = {"gcc"};
  direct.quick = true;
  direct.instructions = 5000;
  direct.jobs = 1;
  const sim::CampaignResult expected = sim::run_campaign(direct);
  EXPECT_EQ(json_body.body, expected.json());
  EXPECT_EQ(csv.body, expected.csv());

  EXPECT_EQ(service.handle(result_request(id_path, "xml")).status, 400);
}

TEST(Service, TimedOutJobAnswers408) {
  ServiceConfig config;
  config.workers = 1;
  SimulationService service(config);
  // timeout_s 0: the deadline has already passed when the job starts, so
  // the cancel hook fires before the first grid cell.
  const std::string id_path = submit_ok(
      &service, "/v1/experiments",
      R"({"workloads": ["gcc"], "models": ["baseline"],
          "instructions": 20000, "timeout_s": 0})");
  EXPECT_EQ(wait_for_job(&service, id_path), "timeout");
  const http::Response response = service.handle(result_request(id_path));
  EXPECT_EQ(response.status, 408);
  EXPECT_TRUE(JsonChecker(response.body).valid()) << response.body;
  EXPECT_EQ(service.stats().timeouts, 1u);
}

TEST(Service, FullQueueAnswers429) {
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  SimulationService service(config);
  // Job A occupies the single worker for a while (one ~3M-instruction
  // cell; the cancel hook is only polled between cells, so it cannot be
  // preempted mid-cell).
  const std::string slow_spec =
      R"({"workloads": ["gcc"], "models": ["baseline"],
          "instructions": 3000000})";
  const std::string a_path =
      submit_ok(&service, "/v1/experiments", slow_spec);
  // Wait until A holds the worker so the admission math is deterministic.
  for (int i = 0; i < 2000 && service.stats().running == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.stats().running, 1u);

  const std::string quick_spec =
      R"({"workloads": ["gcc"], "models": ["baseline"],
          "instructions": 1000})";
  // B fills the single waiting slot; C must be refused.
  submit_ok(&service, "/v1/experiments", quick_spec);
  const http::Response refused =
      service.handle(make_request("POST", "/v1/experiments", quick_spec));
  EXPECT_EQ(refused.status, 429) << refused.body;
  EXPECT_TRUE(JsonChecker(refused.body).valid()) << refused.body;
  EXPECT_EQ(service.stats().rejected_queue_full, 1u);

  service.drain();
  EXPECT_EQ(wait_for_job(&service, a_path), "done");
  const sim::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_GT(stats.total_committed, 0u);
  EXPECT_GT(stats.kips(), 0.0);
}

TEST(Service, BearerTokenGatesEverythingButHealthz) {
  ServiceConfig config;
  config.workers = 1;
  config.auth_tokens = {"tenant-a", "tenant-b"};
  SimulationService service(config);

  // Health stays probe-able without credentials; everything else is 401.
  EXPECT_EQ(service.handle(make_request("GET", "/v1/healthz")).status, 200);
  const http::Response denied =
      service.handle(make_request("GET", "/v1/stats"));
  EXPECT_EQ(denied.status, 401) << denied.body;
  EXPECT_TRUE(JsonChecker(denied.body).valid()) << denied.body;

  http::Request wrong = make_request("GET", "/v1/stats");
  wrong.headers["authorization"] = "Bearer nope";
  EXPECT_EQ(service.handle(wrong).status, 401);
  wrong.headers["authorization"] = "Basic dXNlcjpwdw==";  // wrong scheme
  EXPECT_EQ(service.handle(wrong).status, 401);

  http::Request right = make_request("GET", "/v1/stats");
  right.headers["authorization"] = "Bearer tenant-b";
  EXPECT_EQ(service.handle(right).status, 200);
}

TEST(Service, PruningPrefersFetchedResults) {
  ServiceConfig config;
  config.workers = 1;
  config.max_retained_jobs = 2;
  SimulationService service(config);
  const std::string spec =
      R"({"workloads": ["gcc"], "models": ["baseline"],
          "instructions": 1000})";

  // Three finished jobs; fetch only job 2's result.
  const std::string job1 = submit_ok(&service, "/v1/experiments", spec);
  EXPECT_EQ(wait_for_job(&service, job1), "done");
  const std::string job2 = submit_ok(&service, "/v1/experiments", spec);
  EXPECT_EQ(wait_for_job(&service, job2), "done");
  const std::string job3 = submit_ok(&service, "/v1/experiments", spec);
  EXPECT_EQ(wait_for_job(&service, job3), "done");
  EXPECT_EQ(service.handle(result_request(job2)).status, 200);

  // The next submit prunes down to the retention window. The fetched job
  // (2) must go first — jobs 1 and 3 were never fetched, and the old bug
  // was evicting the oldest id regardless, losing never-delivered results.
  const std::string job4 = submit_ok(&service, "/v1/experiments", spec);
  EXPECT_EQ(wait_for_job(&service, job4), "done");

  // A pruned id answers 404, like an id the service never issued.
  const http::Response pruned = service.handle(result_request(job2));
  EXPECT_EQ(pruned.status, 404) << pruned.body;
  EXPECT_TRUE(JsonChecker(pruned.body).valid()) << pruned.body;
  EXPECT_EQ(service.handle(result_request(job1)).status, 200)
      << "never-fetched result was pruned while a fetched one existed";
  EXPECT_EQ(service.handle(result_request(job3)).status, 200);
}

TEST(Service, ResultFormatCellsRoundTripsTheCampaignMatrix) {
  ServiceConfig config;
  config.workers = 1;
  SimulationService service(config);
  const std::string id_path = submit_ok(
      &service, "/v1/campaigns",
      R"({"workloads": ["gcc"], "quick": true, "instructions": 5000})");
  EXPECT_EQ(wait_for_job(&service, id_path), "done");

  const http::Response cells =
      service.handle(result_request(id_path, "cells"));
  ASSERT_EQ(cells.status, 200) << cells.body;
  EXPECT_EQ(cells.content_type, "application/octet-stream");

  sim::CampaignSpec direct;
  direct.workloads = {"gcc"};
  direct.quick = true;
  direct.instructions = 5000;
  direct.jobs = 1;
  const sim::CampaignResult expected = sim::run_campaign(direct);
  sim::CampaignWire wire;
  std::string error;
  ASSERT_TRUE(sim::deserialize_campaign_matrix(cells.body, &wire, &error))
      << error;
  EXPECT_TRUE(wire.matrix == expected.matrix);

  // cells is a campaign-only view: an experiment result cannot provide it.
  const std::string exp_path = submit_ok(
      &service, "/v1/experiments",
      R"({"workloads": ["gcc"], "models": ["baseline"],
          "instructions": 1000})");
  EXPECT_EQ(wait_for_job(&service, exp_path), "done");
  EXPECT_EQ(service.handle(result_request(exp_path, "cells")).status, 400);
}

TEST(Service, AcceptsMillionReplicaSpecsThroughTheCampaignRunnerHook) {
  // Coordinator mode: a campaign_runner intercepts campaign jobs (the
  // fleet dispatcher in reesed --coordinator) and the cell cap is raised
  // by the fleet size, so million-replica specs must pass validation and
  // reach the hook instead of the local run_campaign.
  ServiceConfig config;
  config.workers = 1;
  config.max_cells = 4u * 1000 * 1000;
  std::atomic<u32> runner_replicas{0};
  config.campaign_runner = [&](const sim::CampaignSpec& spec,
                               sim::CampaignResult* result, std::string*) {
    runner_replicas = spec.replicas;
    result->spec = sim::resolve_campaign_defaults(spec);
    result->spec.replicas = 0;  // keep the stub matrix legitimately empty
    result->matrix = sim::make_campaign_matrix(result->spec);
    return true;
  };
  SimulationService service(config);
  const std::string id_path = submit_ok(
      &service, "/v1/campaigns",
      R"({"workloads": ["gcc"], "variants": ["baseline"],
          "replicas": 1000000, "instructions": 100})");
  EXPECT_EQ(wait_for_job(&service, id_path), "done");
  EXPECT_EQ(runner_replicas.load(), 1000000u);

  // Beyond the per-spec replica bound stays a 400 regardless of the cap.
  const http::Response absurd = service.handle(make_request(
      "POST", "/v1/campaigns",
      R"({"workloads": ["gcc"], "variants": ["baseline"],
          "replicas": 1000001})"));
  EXPECT_EQ(absurd.status, 400) << absurd.body;

  // A runner that reports failure turns the job into state "failed".
  config.campaign_runner = [](const sim::CampaignSpec&, sim::CampaignResult*,
                              std::string* error) {
    *error = "fleet exploded";
    return false;
  };
  SimulationService failing(config);
  const std::string failed_path = submit_ok(
      &failing, "/v1/campaigns",
      R"({"workloads": ["gcc"], "quick": true, "instructions": 1000})");
  EXPECT_EQ(wait_for_job(&failing, failed_path), "failed");
}

TEST(Service, StatsBodyIsValidJson) {
  SimulationService service;
  const http::Response response =
      service.handle(make_request("GET", "/v1/stats"));
  ASSERT_EQ(response.status, 200);
  EXPECT_TRUE(JsonChecker(response.body).valid()) << response.body;
  const Result<json::Value> parsed = json::parse_json(response.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().find("queue_depth")->uint_value, 0u);
  EXPECT_NE(parsed.value().find("cumulative_kips"), nullptr);
}

TEST(Service, MetricsEndpointServesPrometheusText) {
  ServiceConfig config;
  config.workers = 1;
  SimulationService service(config);

  // Before any job: service-level series exist with zero values.
  http::Response response = service.handle(make_request("GET", "/v1/metrics"));
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "text/plain; version=0.0.4");
  EXPECT_NE(response.body.find("# TYPE reese_service_submitted_total counter"),
            std::string::npos);
  EXPECT_NE(response.body.find("reese_service_submitted_total 0"),
            std::string::npos);
  EXPECT_EQ(service.handle(make_request("POST", "/v1/metrics")).status, 405);

  const std::string id_path = submit_ok(
      &service, "/v1/experiments",
      R"({"workloads": ["li"], "models": ["baseline", "reese"],
          "instructions": 2000})");
  EXPECT_EQ(wait_for_job(&service, id_path), "done");

  response = service.handle(make_request("GET", "/v1/metrics"));
  ASSERT_EQ(response.status, 200);
  const std::string& text = response.body;
  EXPECT_NE(text.find("reese_service_submitted_total 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("reese_service_completed_total 1"), std::string::npos);
  // The grid counters accumulated live while the job ran.
  EXPECT_NE(
      text.find("reese_grid_cells_completed_total{kind=\"experiment\"} 2"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("reese_grid_committed_instructions_total"),
            std::string::npos);
  // Valid exposition shape: every non-comment line is "name[{labels}] value".
  for (usize start = 0; start < text.size();) {
    usize end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    EXPECT_EQ(line.rfind("reese_", 0), 0u) << line;
    EXPECT_NE(line.find(' '), std::string::npos) << line;
  }
}

TEST(Service, ProgressEndpointTracksAJobToCompletion) {
  ServiceConfig config;
  config.workers = 1;
  SimulationService service(config);
  EXPECT_EQ(service.handle(make_request("GET", "/v1/jobs/9/progress")).status,
            404);

  const std::string id_path = submit_ok(
      &service, "/v1/experiments",
      R"({"workloads": ["li", "gcc"], "models": ["baseline", "reese"],
          "instructions": 5000})");

  // Poll progress while the job runs: cells_done must never decrease and
  // must land on cells_total when the job is done.
  u64 last_done = 0;
  u64 last_committed = 0;
  bool saw_running = false;
  for (int i = 0; i < 4000; ++i) {
    const http::Response response =
        service.handle(make_request("GET", id_path + "/progress"));
    ASSERT_EQ(response.status, 200) << response.body;
    EXPECT_TRUE(JsonChecker(response.body).valid()) << response.body;
    const Result<json::Value> parsed = json::parse_json(response.body);
    ASSERT_TRUE(parsed.ok());
    const json::Value& body = parsed.value();
    const u64 done = body.find("cells_done")->uint_value;
    const u64 committed = body.find("committed")->uint_value;
    EXPECT_GE(done, last_done) << "cells_done went backwards";
    EXPECT_GE(committed, last_committed) << "committed went backwards";
    last_done = done;
    last_committed = committed;
    const std::string& state = body.find("state")->string;
    if (state == "running") saw_running = true;
    if (state == "done") {
      EXPECT_EQ(done, body.find("cells_total")->uint_value);
      EXPECT_EQ(done, 4u);
      EXPECT_GT(committed, 0u);
      EXPECT_GT(body.find("elapsed_s")->number, 0.0);
      EXPECT_GT(body.find("kips")->number, 0.0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_EQ(last_done, 4u) << "job never reached done";
  // With 4 sub-second cells the poll loop races the worker; seeing the
  // running state at least once keeps this test honest about polling
  // mid-run (200µs polls against ~4 × tens-of-ms cells).
  EXPECT_TRUE(saw_running);
}

TEST(Service, ExportServiceStatsSeries) {
  sim::ServiceStats stats;
  stats.queue_depth = 3;
  stats.running = 2;
  stats.submitted = 10;
  stats.completed = 7;
  stats.timeouts = 1;
  stats.failed = 1;
  stats.rejected_queue_full = 4;
  stats.total_committed = 123456;
  stats.total_wall_seconds = 2.0;

  metrics::Registry registry;
  sim::export_service_stats(&registry, stats);
  const std::string text = registry.prometheus();
  EXPECT_NE(text.find("reese_service_submitted_total 10"), std::string::npos);
  EXPECT_NE(text.find("reese_service_queue_depth 3"), std::string::npos);
  EXPECT_NE(text.find("reese_service_rejected_queue_full_total 4"),
            std::string::npos);
  EXPECT_NE(text.find("reese_service_busy_seconds 2"), std::string::npos);
  // kips = 123456 / 2.0 / 1000 = 61.728
  EXPECT_NE(text.find("reese_service_kips 61.728"), std::string::npos);

  // Re-export mirrors the new snapshot in place.
  stats.submitted = 11;
  sim::export_service_stats(&registry, stats);
  EXPECT_NE(registry.prometheus().find("reese_service_submitted_total 11"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// HTTP over a real loopback socket.

TEST(HttpLoopback, ServesServiceEndpoints) {
  SimulationService service;
  http::Server server(
      [&service](const http::Request& request) {
        return service.handle(request);
      });
  ASSERT_TRUE(server.listen("127.0.0.1", 0));
  std::thread serve_thread([&server] { server.serve(); });

  const http::Response health =
      http::request("127.0.0.1", server.port(), "GET", "/v1/healthz");
  EXPECT_EQ(health.status, 200) << health.body;
  EXPECT_TRUE(JsonChecker(health.body).valid());

  const http::Response bad = http::request(
      "127.0.0.1", server.port(), "POST", "/v1/experiments", "{oops");
  EXPECT_EQ(bad.status, 400);

  const http::Response missing =
      http::request("127.0.0.1", server.port(), "GET", "/v1/jobs/123");
  EXPECT_EQ(missing.status, 404);

  server.request_stop();
  // Unblock the accept loop in case ::shutdown alone does not wake it.
  http::request("127.0.0.1", server.port(), "GET", "/v1/healthz");
  serve_thread.join();
}

// ---------------------------------------------------------------------------
// The shipped binaries, end to end.

#if defined(REESE_REESED_BIN) && defined(REESE_CLIENT_BIN)

struct Daemon {
  pid_t pid = -1;
  int port = 0;
  FILE* stdout_stream = nullptr;
};

/// Fork reesed (on an ephemeral port by default; a restart reuses a fixed
/// one); parse the port from its first stdout line
/// ("reesed: listening on 127.0.0.1:PORT").
Daemon start_reesed(int port = 0) {
  Daemon daemon;
  int out_pipe[2];
  if (pipe(out_pipe) != 0) return daemon;
  const std::string port_arg = format("%d", port);
  const pid_t pid = fork();
  if (pid == 0) {
    dup2(out_pipe[1], STDOUT_FILENO);
    close(out_pipe[0]);
    close(out_pipe[1]);
    execl(REESE_REESED_BIN, "reesed", "--port", port_arg.c_str(), "--workers",
          "1", static_cast<char*>(nullptr));
    _exit(127);
  }
  close(out_pipe[1]);
  if (pid < 0) {
    close(out_pipe[0]);
    return daemon;
  }
  daemon.pid = pid;
  daemon.stdout_stream = fdopen(out_pipe[0], "r");
  char line[256] = {};
  if (daemon.stdout_stream != nullptr &&
      fgets(line, sizeof(line), daemon.stdout_stream) != nullptr) {
    const char* colon = std::strrchr(line, ':');
    if (colon != nullptr) daemon.port = std::atoi(colon + 1);
  }
  return daemon;
}

/// Run a reese_client command line; capture stdout and the exit status.
int run_client(int port, const std::string& args, std::string* output) {
  const std::string command = format(
      "%s --port %d %s", REESE_CLIENT_BIN, port, args.c_str());
  FILE* stream = popen(command.c_str(), "r");
  if (stream == nullptr) return -1;
  output->clear();
  char buffer[4096];
  usize n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), stream)) > 0) {
    output->append(buffer, n);
  }
  const int status = pclose(stream);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Run reesed with `args` on an ephemeral port, output discarded; the exit
/// status, or -1 if it is still running after a few seconds (it is then
/// killed).
int reesed_exit_status(const std::vector<std::string>& args) {
  const pid_t pid = fork();
  if (pid == 0) {
    const int null_fd = open("/dev/null", O_WRONLY);
    dup2(null_fd, STDOUT_FILENO);
    dup2(null_fd, STDERR_FILENO);
    std::vector<const char*> argv = {"reesed", "--port", "0"};
    for (const std::string& arg : args) argv.push_back(arg.c_str());
    argv.push_back(nullptr);
    execv(REESE_REESED_BIN, const_cast<char* const*>(argv.data()));
    _exit(127);
  }
  if (pid < 0) return -1;
  int status = 0;
  for (int i = 0; i < 500; ++i) {
    if (waitpid(pid, &status, WNOHANG) == pid) {
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  kill(pid, SIGKILL);
  waitpid(pid, &status, 0);
  return -1;
}

TEST(ReesedBinary, RejectsADefaultTimeoutOutsideTheSpecRange) {
  // Every spec without "timeout_s" would inherit the default and be
  // refused, so a bad default is a startup error (exit 2).
  for (const char* value : {"7200", "-1", "abc", ""}) {
    EXPECT_EQ(reesed_exit_status({"--timeout-s", value}), 2) << value;
  }
}

TEST(ReesedBinary, ClientDrivesExperimentAndCampaignThenSigtermDrains) {
  Daemon daemon = start_reesed();
  ASSERT_GT(daemon.pid, 0);
  ASSERT_GT(daemon.port, 0) << "could not parse the listening port";

  std::string output;
  ASSERT_EQ(run_client(daemon.port, "health", &output), 0) << output;

  const std::string dir = testing::TempDir();
  const std::string espec_path = dir + "/reese_espec.json";
  {
    std::ofstream spec(espec_path);
    spec << R"({"workloads": ["gcc"], "models": ["baseline", "reese"],
                "instructions": 20000, "seed": 42})";
  }
  ASSERT_EQ(run_client(daemon.port, "submit-experiment " + espec_path,
                       &output),
            0)
      << output;
  const std::string job_id = std::string(trim(output));
  ASSERT_FALSE(job_id.empty());

  ASSERT_EQ(run_client(daemon.port, "wait " + job_id, &output), 0) << output;
  EXPECT_EQ(trim(output), "done");

  ASSERT_EQ(run_client(daemon.port, "result " + job_id + " --csv", &output),
            0)
      << output;
  sim::ExperimentSpec direct;
  direct.base = core::starting_config();
  direct.workloads = {"gcc"};
  direct.models = {sim::Model::kBaseline, sim::Model::kReese};
  direct.instructions = 20000;
  direct.seed = 42;
  direct.jobs = 1;
  EXPECT_EQ(output, sim::run_experiment(direct).csv());

  const std::string cspec_path = dir + "/reese_cspec.json";
  {
    std::ofstream spec(cspec_path);
    spec << R"({"workloads": ["gcc"], "quick": true, "instructions": 5000})";
  }
  ASSERT_EQ(run_client(daemon.port, "submit-campaign " + cspec_path, &output),
            0)
      << output;
  const std::string campaign_id = std::string(trim(output));
  ASSERT_EQ(run_client(daemon.port, "wait " + campaign_id, &output), 0);
  ASSERT_EQ(run_client(daemon.port, "result " + campaign_id, &output), 0);
  sim::CampaignSpec campaign;
  campaign.workloads = {"gcc"};
  campaign.quick = true;
  campaign.instructions = 5000;
  campaign.jobs = 1;
  EXPECT_EQ(output, sim::run_campaign(campaign).json());

  // SIGTERM must drain and exit 0.
  ASSERT_EQ(kill(daemon.pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(waitpid(daemon.pid, &status, 0), daemon.pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  if (daemon.stdout_stream != nullptr) fclose(daemon.stdout_stream);
}

TEST(ReesedBinary, ClientRetriesRideOutADaemonKillAndRestart) {
  // The flaky-fan-out regression: a daemon dies (SIGKILL — no drain, no
  // goodbye) and comes back on the same port. A client started during the
  // outage with --retries must bridge it instead of failing on the first
  // refused connect; without --retries that first connect is a hard error.
  Daemon first = start_reesed();
  ASSERT_GT(first.pid, 0);
  ASSERT_GT(first.port, 0);
  const int port = first.port;
  ASSERT_EQ(kill(first.pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(first.pid, &status, 0), first.pid);
  if (first.stdout_stream != nullptr) fclose(first.stdout_stream);

  const std::string spec_path = testing::TempDir() + "/reese_restart.json";
  {
    std::ofstream spec(spec_path);
    spec << R"({"workloads": ["gcc"], "quick": true, "instructions": 5000})";
  }

  // No retries: the dead daemon is an immediate transport failure.
  std::string output;
  EXPECT_NE(run_client(port, "submit-campaign " + spec_path, &output), 0);

  // With retries: submit while the port is dark, restart the daemon
  // mid-backoff, and the queued attempts land on the new incarnation.
  std::string retried_id;
  int retried_rc = -1;
  std::thread client_thread([&] {
    retried_rc = run_client(
        port,
        "--retries 12 --retry-backoff-ms 40 submit-campaign " + spec_path,
        &retried_id);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  Daemon second = start_reesed(port);
  ASSERT_GT(second.pid, 0);
  ASSERT_EQ(second.port, port);
  client_thread.join();
  ASSERT_EQ(retried_rc, 0) << retried_id;
  const std::string job_id = std::string(trim(retried_id));
  ASSERT_FALSE(job_id.empty());

  ASSERT_EQ(run_client(port, "--retries 4 wait " + job_id, &output), 0)
      << output;
  EXPECT_EQ(trim(output), "done");
  ASSERT_EQ(run_client(port, "result " + job_id, &output), 0);
  sim::CampaignSpec direct;
  direct.workloads = {"gcc"};
  direct.quick = true;
  direct.instructions = 5000;
  direct.jobs = 1;
  EXPECT_EQ(output, sim::run_campaign(direct).json());

  ASSERT_EQ(kill(second.pid, SIGTERM), 0);
  ASSERT_EQ(waitpid(second.pid, &status, 0), second.pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  if (second.stdout_stream != nullptr) fclose(second.stdout_stream);
}

#endif  // REESE_REESED_BIN && REESE_CLIENT_BIN

}  // namespace
}  // namespace reese
