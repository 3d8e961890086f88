// fault_campaign: the standard five-variant campaign and the component
// campaign ({reese, baseline} x all 8 fault sites) through
// sim::run_campaign. Hundreds of short cells, each rebuilding its image,
// Pipeline and Injector, so per-cell setup and the pool tail weigh in.
#include <cstdio>

#include "bench.h"
#include "common/strutil.h"
#include "sim/campaign.h"
#include "workloads/workload.h"

namespace perfbench {

using namespace reese;

namespace {

struct Campaign {
  std::string label;
  sim::CampaignSpec spec;
};

std::vector<Campaign> campaigns(const Sizes& sizes, u64 seed, u32 jobs) {
  Campaign standard;
  standard.label = "standard";
  standard.spec.replicas = sizes.campaign_replicas;
  Campaign component;
  component.label = "component";
  component.spec.replicas = sizes.component_replicas;
  for (usize s = 0; s < core::kFaultSiteCount; ++s) {
    component.spec.sites.push_back(static_cast<core::FaultSite>(s));
  }
  std::vector<Campaign> out = {standard, component};
  for (Campaign& campaign : out) {
    campaign.spec.instructions = sizes.campaign_budget;
    campaign.spec.seed = seed;
    campaign.spec.jobs = jobs;
  }
  return out;
}

struct PassOutcome {
  std::vector<sim::CampaignResult> results;
  std::vector<std::string> json;
  u64 committed = 0;
  u64 injected = 0;
};

/// One pass over every campaign; `reference` takes a reference sample
/// after every cell (timed passes).
PassOutcome run_pass(const std::vector<Campaign>& list, Trace* trace, u64 id,
                     GridTimes* times, bool reference) {
  PassOutcome outcome;
  Scope pass(trace, "sim.campaign_pass", id);
  for (const Campaign& campaign : list) {
    sim::CampaignSpec spec = campaign.spec;
    GridClock clock(reference);
    spec.progress = [&clock](const sim::ProgressUpdate&) { clock.on_cell(); };
    Scope call(trace, "sim.run_campaign", id, pass.index());
    sim::CampaignResult result = sim::run_campaign(spec);
    call.close();
    clock.finish(times, trace, id, call.index());
    outcome.json.push_back(result.json());
    outcome.injected += result.total_injections();
    for (const auto& variant : result.matrix.cells) {
      for (const auto& workload : variant) {
        for (const sim::CampaignCell& cell : workload) {
          outcome.committed += cell.committed;
        }
      }
    }
    outcome.results.push_back(std::move(result));
  }
  return outcome;
}

/// A cell passes when it reached its budget, reported no fault twice,
/// met its variant's coverage expectation, and its campaign's report is
/// byte-identical to the reference pass.
bool cell_ok(const sim::CampaignVariant& variant, const sim::CampaignCell& cell,
             u64 budget) {
  return reached_budget(cell.committed, budget,
                        variant.config.commit_width) &&
         cell.duplicate_reports == 0 &&
         (!variant.expect_full_coverage || cell.undetected == 0) &&
         (!variant.expect_zero_coverage || cell.detected == 0);
}

void check_pass(const PassOutcome& outcome,
                const std::vector<std::string>& reference,
                const std::vector<Campaign>& list, Report* report) {
  for (usize c = 0; c < list.size(); ++c) {
    const sim::CampaignResult& result = outcome.results[c];
    const bool same = outcome.json[c] == reference[c];
    for (usize v = 0; v < result.matrix.cells.size(); ++v) {
      const sim::CampaignVariant& variant = result.spec.variants[v];
      for (usize w = 0; w < result.matrix.cells[v].size(); ++w) {
        for (const sim::CampaignCell& cell : result.matrix.cells[v][w]) {
          const bool ok = cell_ok(variant, cell, result.spec.instructions);
          report->check(ok && same,
                        format("fault_campaign %s %s/%s: %s",
                               list[c].label.c_str(), variant.label.c_str(),
                               result.spec.workloads[w].c_str(),
                               ok ? "report differs from the reference pass"
                                  : "budget, duplicate or coverage check"));
        }
      }
    }
  }
}

}  // namespace

int run_fault_campaign(const Options& options, Report* report, Trace* trace) {
  const Sizes& sizes = options.sizes;
  const std::vector<Campaign> list =
      campaigns(sizes, options.seed, options.jobs);
  report->record("instructions_per_cell", std::to_string(sizes.campaign_budget));
  report->record("replicas", format("standard %u, component %u",
                                    sizes.campaign_replicas,
                                    sizes.component_replicas));

  const double setup_s = median_image_build_s(options.seed, sizes.setup_reps);
  report->metric("setup_s", setup_s, "s");

  // Untimed warm-up: the standard campaign at one replica.
  Trace off(false);
  const std::vector<Campaign> timed =
      campaigns(sizes, options.seed, kTimedJobs);
  {
    std::vector<Campaign> warm = {timed[0]};
    warm[0].spec.replicas = 1;
    GridTimes ignored;
    run_pass(warm, &off, 0, &ignored, true);
  }

  std::vector<std::string> reference;
  const auto take_reference = [&](const PassOutcome& outcome) {
    reference = outcome.json;
    if (options.corrupt_reference) {
      for (std::string& json : reference) json += " ";
    }
    for (usize c = 0; c < list.size(); ++c) {
      report->fingerprint("fault_campaign." + list[c].label, outcome.json[c]);
    }
  };

  if (!trace->enabled()) {
    double committed_per_pass = 0.0;
    double injected_per_pass = 0.0;
    std::vector<GridTimes> passes;
    const double start = now_s();
    while (passes.size() < kMinPasses || now_s() - start < options.seconds) {
      passes.emplace_back();
      const PassOutcome outcome =
          run_pass(timed, &off, passes.size(), &passes.back(), true);
      if (passes.size() == 1) take_reference(outcome);
      check_pass(outcome, reference, list, report);
      committed_per_pass = static_cast<double>(outcome.committed);
      injected_per_pass = static_cast<double>(outcome.injected);
    }
    const BestPass best = best_of_passes(passes);
    report->record("timed_jobs", std::to_string(kTimedJobs));
    report->record("timed_passes", std::to_string(passes.size()));
    report->record("timed_wall_s", format("%.3f", now_s() - start));
    report->metric("reference_ms", best.reference_ms, "ms");
    report->metric("sim_kips", committed_per_pass / best.cpu_s / 1e3, "kIPS");
    report->metric("sim_kips_wall", committed_per_pass / best.wall_s / 1e3,
                   "kIPS");
    report->metric("sim_kips_wall_unscaled",
                   committed_per_pass / best.raw_wall_s / 1e3, "kIPS");
    report->metric("ops_per_s", injected_per_pass / best.wall_s, "1/s");
    report->metric("injections_per_s", injected_per_pass / best.wall_s, "1/s");
    report->metric("latency_mean_ms", 1e3 * best.mean_s, "ms");
    report->metric("latency_p50_ms", 1e3 * best.p50_s, "ms");
    report->metric("latency_p95_ms", 1e3 * best.p95_s, "ms");
    report->metric("latency_samples_per_pass",
                   static_cast<double>(passes.front().cell_s.size()), "count");
    report->metric("peak_rss_mb", self_peak_rss_mb(), "MB");
    return 0;
  }

  GridTimes untraced;
  const PassOutcome first = run_pass(list, &off, 0, &untraced, false);
  take_reference(first);
  check_pass(first, reference, list, report);
  GridTimes traced;
  check_pass(run_pass(list, trace, 1, &traced, false), reference, list,
             report);
  report->metric("trace.overhead_pct",
                 100.0 * (traced.wall_s / untraced.wall_s - 1.0), "%");

  // Every cell alone, through the same public call with a one-cell spec
  // (one variant, one workload, one replica at the cell's replica index).
  std::vector<double> alone_s;
  usize cells_per_pass = 0;
  u64 id = 100;
  for (const sim::CampaignResult& result : first.results) {
    for (const sim::CampaignVariant& variant : result.spec.variants) {
      for (const std::string& workload : result.spec.workloads) {
        for (u32 r = 0; r < result.spec.replicas; ++r) {
          sim::CampaignSpec one;
          one.variants = {variant};
          one.workloads = {workload};
          one.replicas = 1;
          one.replica_begin = r;
          one.instructions = result.spec.instructions;
          one.seed = options.seed;
          one.jobs = 1;
          Scope cell(trace, "sim.cell_alone", id++);
          const sim::CampaignResult alone = sim::run_campaign(one);
          alone_s.push_back(cell.close());
          report->check(cell_ok(variant, alone.matrix.cells[0][0][0],
                                one.instructions),
                        format("fault_campaign %s/%s alone",
                               variant.label.c_str(), workload.c_str()));
          ++cells_per_pass;
        }
      }
    }
  }
  double alone_total = 0.0;
  for (const double s : alone_s) alone_total += s;
  report->metric("sim.grid.cell_ms_p50", 1e3 * median(alone_s), "ms");
  report->metric("sim.grid.cell_ms_max", 1e3 * percentile(alone_s, 1.0), "ms");
  report->metric("sim.grid.efficiency",
                 alone_total / (options.jobs * untraced.wall_s), "ratio");
  report->metric("sim.grid.tail_ms", 1e3 * untraced.tail_s, "ms");

  CellCache cells;
  run_layer_probes(options, trace, &cells, static_cast<double>(cells_per_pass),
                   untraced.wall_s, options.jobs, report);
  if (!run_service_probe(options, sizes.service_probe_s, trace, report)) {
    return 1;
  }
  return 0;
}

}  // namespace perfbench
