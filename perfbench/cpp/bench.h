// Shared declarations of the repository benchmark (see perfbench/README.md).
//
// One binary runs one named workload per invocation:
//   figure_grid     the Figure 2 and Figure 7 grids through run_experiment
//   fault_campaign  the standard and component campaigns through run_campaign
//   reesed_jobs     a closed loop of two HTTP clients against a reesed child
// Untraced runs report the end-to-end metrics; a traced run (--trace 1)
// wraps every call into a layer in a span and reports per-layer metrics.
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/types.h"
#include "core/config.h"
#include "core/stats.h"

namespace perfbench {

using reese::u32;
using reese::u64;
using reese::usize;

/// Seed used when --seed is not given; recorded with every result.
inline constexpr u64 kDefaultSeed = 0x5EED5EED;
/// Timings report p95, so a run holds at least this many samples (ten
/// beyond the 95th percentile).
inline constexpr usize kMinLatencySamples = 200;
/// Host time on a shared machine varies by tens of percent from second to
/// second, and contention only ever adds time. So the timed grid passes run
/// on one thread, repeat every cell at least this many times, and keep each
/// cell's fastest run; the job loop is cut into slices of
/// kMinLatencySamples jobs and reports its best slice.
inline constexpr usize kMinPasses = 3;
/// Grid workers of the timed passes: one, so that the timing measures the
/// simulator and not the host's scheduler. Traced runs use Options::jobs.
inline constexpr u32 kTimedJobs = 1;

/// Problem sizes. The full sizes are the ones the end-to-end metrics are
/// defined at; --small shrinks every one so the self-test finishes in
/// seconds.
struct Sizes {
  u64 cell_budget = 100'000;         ///< figure grid cells and core probes
  u64 warmup_budget = 10'000;        ///< untimed warm-up grid
  u64 campaign_budget = 60'000;      ///< per campaign cell
  u32 campaign_replicas = 4;         ///< standard five-variant campaign
  u32 component_replicas = 1;        ///< {reese, baseline} x 8 sites
  u64 job_experiment_budget = 100'000;
  u64 job_campaign_budget = 20'000;
  u64 hook_budget = 300'000;         ///< faults probe cells
  double service_probe_s = 3.0;      ///< service probe in non-service runs
  int setup_reps = 51;               ///< set-up repetitions (median taken)
};

Sizes full_sizes();
Sizes small_sizes();

/// A run reaches its budget when it stops in the cycle whose commits cross
/// it: the pipeline retires whole commit groups, so it overshoots by at
/// most commit_width - 1 instructions.
inline bool reached_budget(u64 committed, u64 budget, u32 commit_width) {
  return committed >= budget && committed < budget + commit_width;
}

struct Options {
  std::string workload;
  u64 seed = kDefaultSeed;
  double seconds = 30.0;
  bool trace = false;
  bool small = false;
  /// Self-test hook: perturb the reference results so every output check
  /// must fail.
  bool corrupt_reference = false;
  std::string reesed;   ///< path of the reesed binary
  std::string out_dir;  ///< spans, results and counts files go here
  std::string source_id;
  u32 jobs = 1;         ///< min(4, nproc)
  Sizes sizes;
};

double now_s();

/// Linear-interpolated percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);
u64 fnv1a(const std::string& bytes);
std::string hex64(u64 value);
double self_peak_rss_mb();
/// User + system CPU seconds this process has used so far.
double self_cpu_s();
/// CPU seconds the calling thread has used so far.
double thread_cpu_s();
/// Restrict the calling thread, and the threads and processes it starts
/// later, to the CPU it runs on now. Returns that CPU, or -1.
int pin_to_current_cpu();

// --- host speed reference (calibrate.cpp) --------------------------------

/// Wall and thread CPU seconds of one run of the reference kernel.
struct ReferenceSample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};
ReferenceSample reference_sample();
/// The reference kernel's time on an unloaded host (4-vCPU Xeon, g++ 12,
/// RelWithDebInfo). Times multiplied by speed_scale() are in seconds of
/// that host.
inline constexpr double kReferenceUnit_s = 0.0034;
/// kReferenceUnit_s over the median of `samples` (1 when there are none):
/// the factor that brings a time measured beside those samples to the
/// reference host's speed.
double speed_scale(const std::vector<double>& samples);
/// Samples in the window around each unit's own sample. The host's speed
/// drifts within seconds, so a unit is scaled by the samples taken next to
/// it; a whole grid pass's median tracked the drift less well.
inline constexpr usize kLocalReferenceSamples = 9;
/// speed_scale() of the kLocalReferenceSamples samples centred on each
/// sample (fewer at the ends), for units that each took one sample.
std::vector<double> local_speed_scales(const std::vector<double>& samples);

// --- spans --------------------------------------------------------------

/// In-memory span store. Disabled instances record nothing, so untraced
/// runs pay one branch per call site. Thread-safe: grid progress callbacks
/// add spans from worker threads.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Open a span now; returns its index (the parent handle of its
  /// children), or -1 when disabled. `id` groups the spans of one cell or
  /// job.
  long begin(const std::string& name, u64 id, long parent);
  void end(long index);
  /// Record a span whose times were observed elsewhere.
  long add(const std::string& name, u64 id, long parent, double start,
           double end);

  /// Durations of the spans with this name, and their sum.
  std::vector<double> durations_s(const std::string& name) const;
  double total_s(const std::string& name) const;

  /// One JSON object per line: name, id, parent, start/end in
  /// microseconds from the first span.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    u64 id;
    long parent;
    double start;
    double end;
  };
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Times a block: a span from construction to close() or destruction.
class Scope {
 public:
  Scope(Trace* trace, const std::string& name, u64 id, long parent = -1)
      : trace_(trace), index_(trace->begin(name, id, parent)),
        start_(now_s()) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// End the span (once); returns its duration in seconds.
  double close();
  long index() const { return index_; }

 private:
  Trace* trace_;
  long index_;
  double start_;
  double elapsed_ = -1.0;
};

// --- results ------------------------------------------------------------

/// Collects everything one run prints: metrics with units, deterministic
/// counts, result fingerprints, run records and failed checks.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void count(const std::string& name, double value);
  void fingerprint(const std::string& name, const std::string& bytes);
  void record(const std::string& key, const std::string& value);
  /// Count one attempted operation; a false `ok` is a failure and `what`
  /// is printed (the first few only).
  void check(bool ok, const std::string& what);

  u64 attempted() const { return attempted_; }
  u64 failed() const { return failed_; }

  /// Print the human-readable lines, write the result and counts files,
  /// and print the final JSON line holding exactly `final_metrics`.
  /// Returns false when a name in `final_metrics` was never measured.
  bool finish(const Options& options,
              const std::vector<std::pair<std::string, std::string>>&
                  final_metrics);

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, double> counts_;
  std::map<std::string, std::string> fingerprints_;
  std::vector<std::pair<std::string, std::string>> records_;
  u64 attempted_ = 0;
  u64 failed_ = 0;
};

/// The metric lists of BENCHMARK.json, with units.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

// --- per-layer probes (probes.cpp) --------------------------------------

/// One figure-grid cell run alone through sim::Simulator — the object
/// run_experiment builds per cell — with its timings and simulated stats.
struct CellRun {
  double run_s = 0.0;    ///< Simulator construction + Pipeline::run
  double total_s = 0.0;  ///< make_workload + the above
  reese::core::CoreStats stats;
  u64 il1_accesses = 0;
  u64 dl1_accesses = 0;
  u64 dl1_misses = 0;
  u64 ul2_accesses = 0;
  u64 ul2_misses = 0;
  u64 dtlb_accesses = 0;
  u64 dtlb_misses = 0;
  bool budget_ok = false;
  bool functional_ok = false;  ///< drained state equals the ISS reference
};

/// Figure 7's big-window base configuration (LSQ half the RUU, 16-wide,
/// optionally with extra functional units), as bench/fig7_more_hardware.
reese::core::CoreConfig fig7_config(u32 ruu, bool extra_fus);

/// CellCache key of one figure-grid cell.
std::string cell_key(const std::string& grid, const std::string& model,
                     const std::string& workload);

/// Build every spec-like workload image once per repetition and return
/// the median wall time of one full set (the grid workloads' setup_s).
double median_image_build_s(u64 seed, int reps);

/// Run one cell alone, then drain it and check it against an isa::Iss run
/// of exactly the committed instruction count.
CellRun run_cell_alone(const std::string& workload,
                       const reese::core::CoreConfig& config, u64 budget,
                       u64 seed, Trace* trace, u64 span_id, long parent);

/// Cells already run alone by the workload's traced pass, keyed by
/// "<config label>/<workload>"; the core probe reuses them.
using CellCache = std::map<std::string, CellRun>;

/// The layer probes every traced run reports: workloads, isa, mem,
/// branch, core, core.reese and faults. `builds_per_pass`, `pass_wall_s`
/// and `pass_workers` describe the workload's own pass, for
/// workloads.build_share.
void run_layer_probes(const Options& options, Trace* trace, CellCache* cells,
                      double builds_per_pass, double pass_wall_s,
                      u32 pass_workers, Report* report);

// --- workloads ----------------------------------------------------------

int run_figure_grid(const Options& options, Report* report, Trace* trace);
int run_fault_campaign(const Options& options, Report* report, Trace* trace);
int run_reesed_jobs(const Options& options, Report* report, Trace* trace);

/// The reesed_jobs traffic for `seconds` (used by the service workload and
/// as the service probe of the other traced runs). Reports the service.*
/// and http.* layer metrics; returns false if the daemon could not start.
bool run_service_probe(const Options& options, double seconds, Trace* trace,
                       Report* report);

/// Grid fan-out layer metrics from one pass: cell latencies observed
/// through ProgressFn (per worker thread, consecutive completions bracket
/// a cell) and the tail from the last cell start to the grid's end.
struct GridTimes {
  std::vector<double> cell_s;  ///< in-grid cell latencies
  /// Thread CPU time per cell, in the same order; exact only when the grid
  /// runs inline on the calling thread (jobs = 1).
  std::vector<double> cell_cpu_s;
  /// Reference samples taken after each cell, when the clock takes them.
  std::vector<double> reference_wall_s;
  std::vector<double> reference_cpu_s;
  double tail_s = 0.0;         ///< summed over the pass's grids
  double wall_s = 0.0;
};

/// Summary of a grid workload's timed passes (one GridTimes per pass, all
/// run with jobs = 1, so the k-th cell of every pass is the same cell).
/// Every cell time is first scaled to the reference host's speed by the
/// reference samples around it; then each cell's fastest run over the passes
/// is kept. Times are the sums of those, percentiles are over them.
struct BestPass {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< thread CPU time, summed the same way
  double mean_s = 0.0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double raw_wall_s = 0.0;     ///< the same sum, unscaled
  double reference_ms = 0.0;   ///< median reference sample, wall
};
BestPass best_of_passes(const std::vector<GridTimes>& passes);

/// Records ProgressFn completions of one run_experiment/run_campaign call.
class GridClock {
 public:
  /// With `reference`, every cell is followed by a reference sample, which
  /// the next cell's time excludes.
  explicit GridClock(bool reference);
  void on_cell();
  /// Close the grid: fold its cells and tail into `times`, adding a
  /// "sim.cell" span per cell under `parent` when tracing.
  void finish(GridTimes* times, Trace* trace, u64 id, long parent);

 private:
  struct Cell {
    double start, end, cpu_s;
  };
  std::mutex mutex_;
  double start_;
  double start_cpu_;  ///< the constructing thread's CPU time
  std::thread::id owner_;  ///< the constructing thread
  bool reference_;
  /// Per worker thread: when, and at what thread CPU time, it last
  /// finished a cell.
  std::map<std::string, std::pair<double, double>> last_;
  std::vector<Cell> cells_;
  std::vector<ReferenceSample> samples_;
};

}  // namespace perfbench
