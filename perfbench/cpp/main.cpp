// perfbench: the repository benchmark runner (see perfbench/README.md).
//
// Usage: perfbench --workload figure_grid|fault_campaign|reesed_jobs
//                  --reesed PATH --out-dir DIR [--seed N] [--seconds S]
//                  [--trace 0|1] [--small] [--corrupt-reference]
//                  [--source-id ID]
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (the end-to-end metrics untraced, the
// per-layer metrics traced). Exit status 0 only when every output check
// passed; 2 on bad arguments.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "common/strutil.h"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr, "perfbench: %s\n", message);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    if (std::strcmp(arg, "--workload") == 0) {
      options.workload = value();
    } else if (std::strcmp(arg, "--seed") == 0) {
      options.seed = std::strtoull(value(), nullptr, 0);
    } else if (std::strcmp(arg, "--seconds") == 0) {
      options.seconds = std::atof(value());
    } else if (std::strcmp(arg, "--trace") == 0) {
      options.trace = std::strcmp(value(), "0") != 0;
    } else if (std::strcmp(arg, "--small") == 0) {
      options.small = true;
    } else if (std::strcmp(arg, "--corrupt-reference") == 0) {
      options.corrupt_reference = true;
    } else if (std::strcmp(arg, "--reesed") == 0) {
      options.reesed = value();
    } else if (std::strcmp(arg, "--out-dir") == 0) {
      options.out_dir = value();
    } else if (std::strcmp(arg, "--source-id") == 0) {
      options.source_id = value();
    } else {
      usage(reese::format("unknown argument %s", arg).c_str());
    }
  }
  if (options.out_dir.empty() || options.reesed.empty()) {
    usage("--out-dir and --reesed are required");
  }
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  std::filesystem::create_directories(options.out_dir);
  options.sizes = options.small ? small_sizes() : full_sizes();
  const u32 nproc = std::max(1u, std::thread::hardware_concurrency());
  options.jobs = std::min(4u, nproc);

  Report report;
  report.record("workload", options.workload);
  report.record("seed", std::to_string(options.seed));
  report.record("seconds", reese::format("%g", options.seconds));
  report.record("mode", options.trace ? "traced" : "untraced");
  report.record("size", options.small ? "small" : "full");
  report.record("nproc", std::to_string(nproc));
  report.record("jobs", std::to_string(options.jobs));
  report.record("compiler", "g++ " __VERSION__);
  report.record("build_type", PERFBENCH_BUILD_TYPE);
  report.record("source_id", options.source_id);

  // Untraced runs measure on one CPU, so the reference samples see the same
  // co-tenants as the timed work; the reesed child inherits the mask.
  // Traced runs keep every CPU for their jobs = min(4, nproc) passes.
  if (!options.trace) {
    const int cpu = pin_to_current_cpu();
    if (cpu >= 0) report.record("cpu", std::to_string(cpu));
  }

  Trace trace(options.trace);
  int rc = 2;
  if (options.workload == "figure_grid") {
    rc = run_figure_grid(options, &report, &trace);
  } else if (options.workload == "fault_campaign") {
    rc = run_fault_campaign(options, &report, &trace);
  } else if (options.workload == "reesed_jobs") {
    rc = run_reesed_jobs(options, &report, &trace);
  } else {
    usage(reese::format("unknown workload \"%s\"", options.workload.c_str())
              .c_str());
  }
  if (rc != 0) return rc;

  if (options.trace) {
    const std::string path = options.out_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             ".spans.jsonl";
    if (trace.write(path)) report.record("spans", path);
  }
  const bool correct = report.finish(
      options, options.trace ? per_layer_metrics() : end_to_end_metrics());
  return correct ? 0 : 1;
}
