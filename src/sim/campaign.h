// Fault-injection campaign runner: the robustness analogue of the
// experiment grid (sim/experiment.h).
//
// A campaign fans (variant × workload × seed-replica) cells across the
// thread pool. Every cell is one independent simulation: it builds its own
// workload image, pipeline and Injector from a per-cell seed derived with
// SplitMix64 from (campaign seed, variant index, workload index, replica),
// and writes only its own CampaignMatrix slot — so the aggregated matrix is
// bit-identical no matter how many workers ran it (the same determinism
// contract as run_experiment).
//
// The paper's §4.2 claim is "100% detection of soft errors affecting
// instruction results". A claim at the boundary of a proportion needs a
// confidence interval that behaves there, so coverage is reported with
// Wilson-score 95% bounds (common/stats.h) over ~10⁵ injections, stratified
// per variant, per workload, per execution class and per fault side.
// Results serialize to BENCH_fault.json for tools/bench_diff.py and CI
// archiving. See DESIGN.md §10.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "core/config.h"
#include "faults/injector.h"
#include "isa/program.h"
#include "sim/checkpoint.h"
#include "sim/progress.h"

namespace reese {
class SnapshotWriter;
}  // namespace reese

namespace reese::sim {

/// One row of the campaign: a pipeline configuration plus a fault target.
struct CampaignVariant {
  std::string label;
  core::CoreConfig config;
  faults::FaultTarget target = faults::FaultTarget::kEither;
  /// Full re-execution REESE: every resolved fault must be detected.
  bool expect_full_coverage = false;
  /// Baseline (no comparator): every resolved fault must escape.
  bool expect_zero_coverage = false;
  /// Component axis (DESIGN.md §16): kResult keeps the classic
  /// result-flipping model; any other value runs the Injector in site mode
  /// against that structure, and the cell's masked/sdc/coverage_loss
  /// columns become meaningful.
  core::FaultSite site = core::FaultSite::kResult;
};

/// The A5 bench's five standard rows: REESE with P-side, R-side and
/// either-side flips, the baseline, and REESE with 1-of-2 re-execution.
std::vector<CampaignVariant> standard_campaign_variants();

/// The two base configurations component campaigns cross with the site
/// axis: "reese" (full re-execution) and "baseline" (no checker).
std::vector<CampaignVariant> component_base_variants();

/// Parse a fault_site_name() string back to the enum. False on unknown.
bool fault_site_from_name(std::string_view name, core::FaultSite* site);

/// Resolve a variant label to a full CampaignVariant: either one of the
/// five standard labels, or a component label of the form "base@site"
/// (e.g. "reese@rqueue") with base from component_base_variants(). This is
/// how site variants travel through a service spec — labels only, no new
/// spec field. False on unknown label.
bool campaign_variant_by_label(const std::string& label, CampaignVariant* out);

/// A fixed program image to campaign over in place of a named workload
/// (e.g. an assembled examples/srv file for srv-vuln cross-validation).
struct CampaignProgram {
  std::string name;
  isa::Program program;
};

struct CampaignSpec {
  std::vector<CampaignVariant> variants;  ///< empty = the standard five
  /// Component axis shorthand: when non-empty, the variant list is replaced
  /// by (base × site) for each site here, with labels "base@site". The
  /// bases are `variants` if set, else component_base_variants().
  std::vector<core::FaultSite> sites;
  std::vector<std::string> workloads;     ///< empty = the six spec-like names
  /// When non-empty, these images replace the workload axis entirely:
  /// cell (v, w, r) runs programs[w], spec.workloads is overwritten with
  /// their names, and cells may stop on HALT (example programs terminate)
  /// as well as on the commit target.
  std::vector<CampaignProgram> programs;
  /// Independent seed replicas per (variant, workload) cell. The default
  /// full campaign (12 × 5 × 6 cells × rate × instructions) lands at
  /// ~10⁵ total injections.
  u32 replicas = 12;
  u64 instructions = 0;   ///< per-cell budget; 0 = 60k (quick: 20k)
  double rate = 5e-3;     ///< per-instruction injection probability
  u64 seed = 0xFA17C0DE;  ///< campaign master seed
  /// Worker threads; 0 = auto (same resolution as ExperimentSpec::jobs).
  u32 jobs = 0;
  /// CI mode: one replica on a reduced budget, ≈10³ injections total.
  bool quick = false;
  /// Optional cooperative cancellation, polled once per grid cell (same
  /// contract as ExperimentSpec::cancel): when it returns true the
  /// remaining cells are skipped and the result carries `cancelled`.
  std::function<bool()> cancel;
  /// Optional per-cell progress callback (see sim/progress.h for the
  /// threading contract). Observes only.
  ProgressFn progress;
  /// Optional metrics registry: each finished cell bumps the
  /// reese_grid_* counters with kind="campaign" (and, in site mode, the
  /// reese_injector_strikes_total{site=,outcome=} breakdown). Must outlive
  /// the run.
  metrics::Registry* metrics = nullptr;
  /// Checkpoint policy (DESIGN.md §14). Campaign cells persist at whole-
  /// cell granularity only: each finished cell writes its CampaignCell to
  /// a ".done" record in `dir`, and with `resume` those cells are skipped
  /// on the next run (mid-cell snapshots are not taken — the injector's
  /// in-flight fault windows are not part of the snapshot surface, and
  /// cells are short relative to experiment cells). `interval` is
  /// therefore ignored here. Left default, the process-wide
  /// default_checkpoint() applies.
  CheckpointOptions checkpoint;
  /// Global index of this spec's first replica; 0 for a whole campaign.
  /// The cell seed (derive_cell_seed) and the checkpoint ".done" record
  /// name use the global replica index `replica_begin + r`, so a spec over
  /// replicas [b, b + n) runs exactly those cells of the whole campaign.
  u32 replica_begin = 0;
};

/// Per-stratum injection counts (a stratum = exec class or fault side).
struct StratumCount {
  u64 injected = 0;
  u64 detected = 0;
  u64 undetected = 0;

  bool operator==(const StratumCount&) const = default;
};

/// Number of isa::ExecClass values (strata in CampaignCell::by_class).
inline constexpr usize kExecClassCount = 10;
const char* exec_class_label(usize class_index);

/// Per-static-instruction (program counter) injection outcomes, including
/// the injector's dynamic ACE-window measurements. This is the campaign
/// half of the srv-vuln cross-validation loop (bench/avf_validate.cpp).
struct PcStratum {
  u64 injected = 0;
  u64 detected = 0;
  u64 undetected = 0;      ///< escapes (the measured per-PC escape count)
  u64 ace = 0;             ///< faulted values read before redefinition
  u64 masked = 0;          ///< faulted values overwritten/dropped unread
  u64 window_pending = 0;  ///< windows still open at end of run
  u64 window_sum = 0;      ///< total live instructions across ACE faults

  bool operator==(const PcStratum&) const = default;
};

/// Raw outcome of one (variant, workload, replica) cell. Everything needed
/// for campaign-level aggregation is carried here in integer form so cells
/// merge exactly and compare bit-identically across worker counts.
struct CampaignCell {
  u64 injected = 0;
  u64 detected = 0;
  u64 undetected = 0;
  u64 pending = 0;            ///< injected but unresolved at budget end
  u64 duplicate_reports = 0;  ///< must stay 0; see Injector
  u64 committed = 0;
  Cycle cycles = 0;

  // Outcome lattice (DESIGN.md §16). In site mode masked + detected + sdc
  // == injected and undetected == sdc; in the legacy result-flip model the
  // pair is derived from escapes via the ACE measurement (an escape whose
  // value was never consumed is masked, a consumed one is SDC).
  u64 masked = 0;
  u64 sdc = 0;
  /// Site mode only: R-queue control-state strikes that silently disabled
  /// a pending re-execution (REESE coverage loss; the §16 headline).
  u64 coverage_loss = 0;

  // Detection-latency distribution, mergeable across cells: the Injector's
  // Histogram{4,64} finite buckets plus its clamped overflow bucket.
  u64 latency_sum = 0;
  u64 latency_count = 0;
  u64 latency_min = 0;
  u64 latency_max = 0;
  u64 latency_overflow = 0;
  std::vector<u64> latency_buckets;

  std::array<StratumCount, kExecClassCount> by_class{};
  StratumCount p_side;  ///< flips that landed in the stored P result
  StratumCount r_side;  ///< flips that landed in the R recomputation
  /// Outcomes keyed by static instruction address. An ordered map so that
  /// merge order, equality and serialization are deterministic — the
  /// --jobs bit-identity contract covers this stratum too.
  std::map<Addr, PcStratum> by_pc;

  u64 resolved() const { return detected + undetected; }
  double coverage() const { return safe_ratio(detected, resolved()); }
  /// Accumulate another cell (aggregation helper).
  void merge(const CampaignCell& other);

  bool operator==(const CampaignCell&) const = default;
};

/// The aggregation target: cells[variant][workload][replica]. Compared
/// directly by the --jobs bit-identity test.
struct CampaignMatrix {
  std::vector<std::vector<std::vector<CampaignCell>>> cells;

  bool operator==(const CampaignMatrix&) const = default;
};

struct CampaignResult {
  CampaignSpec spec;  ///< with defaults resolved (budget, lists, replicas)
  CampaignMatrix matrix;
  /// True when CampaignSpec::cancel fired before every cell ran; the
  /// matrix is then incomplete and must not be reported as a result.
  bool cancelled = false;

  /// Merged counts for one variant across workloads and replicas.
  CampaignCell variant_total(usize variant_index) const;
  /// Merged counts for one (variant, workload) across replicas.
  CampaignCell workload_total(usize variant_index, usize workload_index) const;
  u64 total_injections() const;

  /// Approximate percentile from a merged latency distribution.
  static u64 latency_percentile(const CampaignCell& cell, double fraction);

  /// Human-readable per-variant coverage table with Wilson 95% bounds.
  std::string table() const;
  /// Machine-readable report (BENCH_fault.json schema v1).
  std::string json() const;
  /// Machine-readable CSV, one row per variant:
  /// variant,injected,detected,undetected,pending,coverage,wilson_lower,
  /// wilson_upper,mean_latency,p95_latency. The service's text/csv view.
  std::string csv() const;
};

/// Derive one cell's injector seed. Exposed for tests: the derivation must
/// give distinct streams per cell and stay stable across PRs (BENCH_fault
/// comparability).
u64 derive_cell_seed(u64 campaign_seed, usize variant_index,
                     usize workload_index, usize replica);

/// Run the campaign across the thread pool (spec.jobs; same worker
/// resolution and sequential jobs==1 reference path as run_experiment).
CampaignResult run_campaign(const CampaignSpec& spec);

/// Resolve every defaulted CampaignSpec field (variants, workloads,
/// quick-mode replica clamp, instruction budget, checkpoint policy) exactly
/// as run_campaign does, without running anything. The service sizes a
/// campaign spec's grid against its cell cap with it.
CampaignSpec resolve_campaign_defaults(const CampaignSpec& spec);

/// Append one cell's outcome to `writer` in the layout its checkpoint
/// ".done" record stores. Exposed so tests can pin cells by the hash of
/// these bytes.
void put_campaign_cell(SnapshotWriter* writer, const CampaignCell& cell);

/// Write `result.json()` to `path`; returns false (with a message on
/// stderr) if the file cannot be written.
bool write_campaign_report(const CampaignResult& result,
                           const std::string& path);

}  // namespace reese::sim
