// figure_grid: the Figure 2 grid (Table 1 config, 6 workloads x 5 models)
// and Figure 7's four big-window configs x {baseline, reese, reese_2alu},
// through sim::run_experiment — the wait users have for the paper's
// figures.
#include <cstdio>

#include "bench.h"
#include "common/strutil.h"
#include "sim/experiment.h"
#include "workloads/workload.h"

namespace perfbench {

using namespace reese;

core::CoreConfig fig7_config(u32 ruu, bool extra_fus) {
  core::CoreConfig config = core::starting_config();
  config.ruu_size = ruu;
  config.lsq_size = ruu / 2;
  config.fetch_width = 16;
  config.decode_width = 16;
  config.issue_width = 16;
  config.commit_width = 16;
  config.ifq_size = 32;
  if (extra_fus) {
    config.int_alu_count = 8;
    config.int_mult_count = 4;
    config.mem_port_count = 4;
  }
  return config;
}

std::string cell_key(const std::string& grid, const std::string& model,
                     const std::string& workload) {
  return grid + "/" + model + "/" + workload;
}

double median_image_build_s(u64 seed, int reps) {
  std::vector<double> times;
  std::vector<double> reference;
  for (int rep = 0; rep < reps; ++rep) {
    const double start = now_s();
    for (const std::string& name : workloads::spec_like_names()) {
      workloads::WorkloadOptions options;
      options.seed = seed;
      options.iterations = 0;
      if (!workloads::make_workload(name, options).ok()) return -1.0;
    }
    times.push_back(now_s() - start);
    reference.push_back(reference_sample().wall_s);
  }
  return median(times) * speed_scale(reference);
}

namespace {

struct Grid {
  std::string label;  ///< short name used in cell keys and fingerprints
  sim::ExperimentSpec spec;
};

std::vector<Grid> figure_grids(u64 budget, u64 seed, u32 jobs) {
  std::vector<Grid> grids;
  Grid fig2;
  fig2.label = "fig2";
  fig2.spec.title =
      "Figure 2: initial comparison between REESE and baseline "
      "(starting configuration)";
  fig2.spec.base = core::starting_config();
  fig2.spec.models = sim::standard_models();
  grids.push_back(fig2);
  const struct {
    const char* label;
    u32 ruu;
    bool extra_fus;
  } points[] = {{"RUU=64", 64, false},
                {"RUU=64+FUs", 64, true},
                {"RUU=256", 256, false},
                {"RUU=256+FUs", 256, true}};
  for (const auto& point : points) {
    Grid grid;
    grid.label = point.label;
    grid.spec.title = point.label;
    grid.spec.base = fig7_config(point.ruu, point.extra_fus);
    grid.spec.models = {sim::Model::kBaseline, sim::Model::kReese,
                        sim::Model::kReese2Alu};
    grids.push_back(grid);
  }
  for (Grid& grid : grids) {
    grid.spec.workloads = workloads::spec_like_names();
    grid.spec.instructions = budget;
    grid.spec.seed = seed;
    grid.spec.jobs = jobs;
  }
  return grids;
}

struct PassOutcome {
  std::vector<std::string> json;  ///< one report per grid
  std::vector<bool> budgets_ok;   ///< per cell, grid-major
  u64 committed = 0;
};

/// One pass over every grid; `reference` takes a reference sample after
/// every cell (timed passes).
PassOutcome run_pass(const std::vector<Grid>& grids, Trace* trace, u64 id,
                     GridTimes* times, bool reference) {
  PassOutcome outcome;
  Scope pass(trace, "sim.grid_pass", id);
  for (const Grid& grid : grids) {
    sim::ExperimentSpec spec = grid.spec;
    GridClock clock(reference);
    spec.progress = [&clock](const sim::ProgressUpdate&) { clock.on_cell(); };
    Scope call(trace, "sim.run_experiment", id, pass.index());
    const sim::ExperimentResult result = sim::run_experiment(spec);
    call.close();
    clock.finish(times, trace, id, call.index());
    outcome.json.push_back(result.json());
    for (const auto& row : result.cells) {
      for (const auto& model : row) {
        for (const sim::ExperimentCell& cell : model) {
          outcome.budgets_ok.push_back(
              cell.stop == core::StopReason::kCommitTarget &&
              reached_budget(cell.committed, spec.instructions,
                             spec.base.commit_width));
          outcome.committed += cell.committed;
        }
      }
    }
  }
  return outcome;
}

/// Check one pass against the reference reports: every cell reaches its
/// budget and every grid's report is byte-identical to the reference.
void check_pass(const PassOutcome& outcome,
                const std::vector<std::string>& reference,
                const std::vector<Grid>& grids, Report* report) {
  usize cell = 0;
  for (usize g = 0; g < grids.size(); ++g) {
    const bool same = outcome.json[g] == reference[g];
    const usize cells =
        grids[g].spec.workloads.size() * grids[g].spec.models.size();
    for (usize c = 0; c < cells; ++c, ++cell) {
      report->check(outcome.budgets_ok[cell] && same,
                    format("figure_grid %s cell %zu: %s", grids[g].label.c_str(),
                           c,
                           outcome.budgets_ok[cell]
                               ? "report differs from the reference pass"
                               : "stopped short of its budget"));
    }
  }
}

}  // namespace

int run_figure_grid(const Options& options, Report* report, Trace* trace) {
  const Sizes& sizes = options.sizes;
  const std::vector<Grid> grids =
      figure_grids(sizes.cell_budget, options.seed, options.jobs);
  usize cells_per_pass = 0;
  for (const Grid& grid : grids) {
    cells_per_pass += grid.spec.workloads.size() * grid.spec.models.size();
  }
  report->record("instructions_per_cell", std::to_string(sizes.cell_budget));
  report->record("cells_per_pass", std::to_string(cells_per_pass));

  const double setup_s = median_image_build_s(options.seed, sizes.setup_reps);
  report->metric("setup_s", setup_s, "s");

  // Untimed warm-up pass at a tenth of the budget: allocator and code
  // paths are warm before the first timed pass.
  Trace off(false);
  {
    GridTimes ignored;
    run_pass(figure_grids(sizes.warmup_budget, options.seed, kTimedJobs),
             &off, 0, &ignored, true);
  }

  std::vector<std::string> reference;
  const auto take_reference = [&](const PassOutcome& outcome) {
    reference = outcome.json;
    if (options.corrupt_reference) {
      for (std::string& json : reference) json += " ";
    }
    for (usize g = 0; g < grids.size(); ++g) {
      report->fingerprint("figure_grid." + grids[g].label, outcome.json[g]);
    }
  };

  if (!trace->enabled()) {
    const std::vector<Grid> timed =
        figure_grids(sizes.cell_budget, options.seed, kTimedJobs);
    double committed_per_pass = 0.0;
    std::vector<GridTimes> passes;
    const double start = now_s();
    while (passes.size() < kMinPasses || now_s() - start < options.seconds) {
      passes.emplace_back();
      const PassOutcome outcome =
          run_pass(timed, &off, passes.size(), &passes.back(), true);
      if (passes.size() == 1) take_reference(outcome);
      check_pass(outcome, reference, grids, report);
      committed_per_pass = outcome.committed;
    }
    const BestPass best = best_of_passes(passes);
    const double cells = static_cast<double>(cells_per_pass);
    report->record("timed_jobs", std::to_string(kTimedJobs));
    report->record("timed_passes", std::to_string(passes.size()));
    report->record("timed_wall_s", format("%.3f", now_s() - start));
    report->metric("reference_ms", best.reference_ms, "ms");
    report->metric("sim_kips", committed_per_pass / best.cpu_s / 1e3, "kIPS");
    report->metric("sim_kips_wall", committed_per_pass / best.wall_s / 1e3,
                   "kIPS");
    report->metric("sim_kips_wall_unscaled",
                   committed_per_pass / best.raw_wall_s / 1e3, "kIPS");
    report->metric("ops_per_s", cells / best.wall_s, "1/s");
    report->metric("grid_cells_per_s", cells / best.wall_s, "1/s");
    report->metric("latency_mean_ms", 1e3 * best.mean_s, "ms");
    report->metric("latency_p50_ms", 1e3 * best.p50_s, "ms");
    report->metric("latency_p95_ms", 1e3 * best.p95_s, "ms");
    report->metric("latency_samples_per_pass", cells, "count");

    report->metric("peak_rss_mb", self_peak_rss_mb(), "MB");
    return 0;
  }

  // Traced run: one untraced and one traced pass (their difference is the
  // tracing overhead), then every cell alone with a functional check.
  GridTimes untraced;
  const PassOutcome first = run_pass(grids, &off, 0, &untraced, false);
  take_reference(first);
  check_pass(first, reference, grids, report);
  GridTimes traced;
  check_pass(run_pass(grids, trace, 1, &traced, false), reference, grids,
             report);
  report->metric("trace.overhead_pct",
                 100.0 * (traced.wall_s / untraced.wall_s - 1.0), "%");

  CellCache cells;
  std::vector<double> alone_s;
  u64 id = 100;
  for (const Grid& grid : grids) {
    for (const std::string& workload : grid.spec.workloads) {
      for (const sim::Model model : grid.spec.models) {
        const CellRun run = run_cell_alone(
            workload, sim::apply_model(grid.spec.base, model),
            grid.spec.instructions, options.seed, trace, id++, -1);
        report->check(run.budget_ok && run.functional_ok,
                      format("figure_grid %s/%s/%s alone: %s",
                             grid.label.c_str(), sim::model_slug(model),
                             workload.c_str(),
                             run.budget_ok ? "drained state differs from ISS"
                                           : "stopped short of its budget"));
        alone_s.push_back(run.total_s);
        cells[cell_key(grid.label, sim::model_slug(model), workload)] = run;
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

  run_layer_probes(options, trace, &cells, static_cast<double>(cells_per_pass),
                   untraced.wall_s, options.jobs, report);
  if (!run_service_probe(options, sizes.service_probe_s, trace, report)) {
    return 1;
  }
  return 0;
}

}  // namespace perfbench
