// Figures 2-7: what REESE costs in IPC as the hardware grows.
//
// Usage: reese_figs [--figure fig2|fig3|fig4|fig5|fig6|fig7|all] [--jobs N]
//                   [--out PATH] [--checkpoint-dir D]
//                   [--checkpoint-interval N] [--resume-from D]
//
// Eight (workload x model) grids, sim::figure_grids(), make up the six
// figures: figures 2-5 are one grid each, Figure 6 is the summary of
// those four, and Figure 7 is four larger machines. Every grid a chosen
// figure needs is simulated once, at $REESE_SIM_INSTR instructions per
// cell (default 1M). Figure tables go to stdout, one line per finished
// grid to stderr. --out writes
// the simulated grids as a "reese-overnight-v1" report for
// tools/bench_diff.py; the `overnight` CMake target runs --figure all at
// the paper's 100M instructions per cell with resumable checkpoints.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/diag.h"
#include "common/flags.h"
#include "common/strutil.h"
#include "sim/experiment.h"
#include "sim/grid.h"

using namespace reese;

namespace {

struct Figure {
  const char* name;
  std::vector<usize> grids;  ///< indices into sim::figure_grids()
  /// Set for the summary figures (6, 7), which print one row per grid;
  /// figures 2-5 print their one grid's full table.
  const char* summary_title;
  const char* row_header;
};

const std::vector<Figure> kFigures = {
    {"fig2", {0}, nullptr, nullptr},
    {"fig3", {1}, nullptr, nullptr},
    {"fig4", {2}, nullptr, nullptr},
    {"fig5", {3}, nullptr, nullptr},
    {"fig6", {0, 1, 2, 3},
     "Figure 6: summary of results (average IPC per hardware variation)",
     "variation"},
    {"fig7", {4, 5, 6, 7},
     "Figure 7: REESE vs baseline for even more hardware", "config"},
};

using Results = std::vector<std::optional<sim::ExperimentResult>>;

/// Index of `model` in the grid's bars, or -1 when the grid omits it.
int model_index(const sim::ExperimentResult& result, sim::Model model) {
  const std::vector<sim::Model>& models = result.spec.models;
  const auto it = std::find(models.begin(), models.end(), model);
  return it == models.end() ? -1 : static_cast<int>(it - models.begin());
}

/// Figures 6 and 7: each grid's average IPC per model and its REESE gap.
/// The columns are the first grid's models; a grid without one of them
/// prints "-".
std::string summary_table(const Figure& figure,
                          const std::vector<sim::FigureGrid>& grids,
                          const Results& results) {
  const std::vector<sim::Model>& columns =
      results[figure.grids[0]]->spec.models;
  std::string out = std::string(figure.summary_title) + "\n";
  out += format("  %-14s", figure.row_header);
  for (sim::Model model : columns) {
    out += format("%14s", sim::model_name(model));
  }
  out += format("%14s\n", "REESE gap");
  for (usize g : figure.grids) {
    const sim::ExperimentResult& result = *results[g];
    out += format("  %-14s", grids[g].label);
    for (sim::Model model : columns) {
      const int m = model_index(result, model);
      out += m < 0 ? format("%14s", "-")
                   : format("%14.3f", result.average(static_cast<usize>(m)));
    }
    out += format("%13.1f%%\n", result.overhead_pct(static_cast<usize>(
                                    model_index(result, sim::Model::kReese))));
  }
  return out;
}

/// "[a, b, c]" from item(0) ... item(count - 1).
std::string json_list(usize count, const auto& item) {
  std::string out = "[";
  for (usize i = 0; i < count; ++i) out += (i == 0 ? "" : ", ") + item(i);
  return out + "]";
}

std::string averages_json(const sim::ExperimentResult& r) {
  return json_list(r.spec.models.size(),
                   [&](usize m) { return format("%.6f", r.average(m)); });
}

std::string grid_json(const sim::FigureGrid& grid,
                      const sim::ExperimentResult& r, double wall_seconds) {
  const usize models = r.spec.models.size();
  std::string out = "    {\n";
  out += format("      \"name\": \"%s\",\n", grid.key);
  out += format("      \"title\": \"%s\",\n",
                json_escape(r.spec.title).c_str());
  const auto quoted = [](const std::string& text) {
    return "\"" + json_escape(text) + "\"";
  };
  out += "      \"workloads\": " +
         json_list(r.spec.workloads.size(),
                   [&](usize w) { return quoted(r.spec.workloads[w]); }) +
         ",\n";
  out += "      \"models\": " +
         json_list(models,
                   [&](usize m) {
                     return quoted(sim::model_slug(r.spec.models[m]));
                   }) +
         ",\n";
  out += "      \"ipc\": [\n";
  for (usize w = 0; w < r.ipc.size(); ++w) {
    out += "        " +
           json_list(models,
                     [&](usize m) { return format("%.6f", r.ipc[w][m]); }) +
           (w + 1 < r.ipc.size() ? ",\n" : "\n");
  }
  out += "      ],\n";
  out += "      \"average\": " + averages_json(r) + ",\n";
  out += "      \"overhead_pct\": " +
         json_list(models,
                   [&](usize m) { return format("%.3f", r.overhead_pct(m)); }) +
         ",\n";
  out += format("      \"wall_seconds\": %.3f\n", wall_seconds);
  out += "    }";
  return out;
}

/// The "reese-overnight-v1" report: every simulated grid, plus the Figure
/// 6 summary rows when that figure was chosen.
std::string report_json(const std::vector<sim::FigureGrid>& grids,
                        const Results& results,
                        const std::vector<double>& wall, const Figure* fig6) {
  double total_wall = 0.0;
  std::string figures_json;
  for (usize g = 0; g < grids.size(); ++g) {
    if (!results[g]) continue;
    total_wall += wall[g];
    if (!figures_json.empty()) figures_json += ",\n";
    figures_json += grid_json(grids[g], *results[g], wall[g]);
  }

  std::string json = "{\n";
  json += "  \"schema\": \"reese-overnight-v1\",\n";
  json += format("  \"instructions\": %llu,\n",
                 static_cast<unsigned long long>(
                     sim::default_instruction_budget()));
  const char* sha = std::getenv("GITHUB_SHA");
  if (sha == nullptr || *sha == '\0') sha = std::getenv("REESE_GIT_SHA");
  json += format("  \"git_sha\": \"%s\",\n",
                 json_escape(sha == nullptr ? "" : sha).c_str());
  json += format("  \"total_wall_seconds\": %.3f,\n", total_wall);
  if (fig6 != nullptr) {
    json += "  \"fig6_summary\": [\n";
    for (usize row = 0; row < fig6->grids.size(); ++row) {
      const usize g = fig6->grids[row];
      json += format("    {\"variation\": \"%s\", \"average\": ",
                     grids[g].label) +
              averages_json(*results[g]) +
              (row + 1 < fig6->grids.size() ? "},\n" : "}\n");
    }
    json += "  ],\n";
  }
  json += "  \"figures\": [\n" + figures_json + "\n  ]\n}\n";
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  std::string figure_name = "all";
  std::string out_path;
  sim::GridSpec options;
  Flags flags("reese_figs");
  flags.text("--figure", &figure_name);
  flags.text("--out", &out_path);
  sim::declare_grid_flags(&flags, &options);
  if (const std::string error = flags.parse(argc, argv); !error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }

  std::vector<const Figure*> chosen;
  const Figure* fig6 = nullptr;
  std::string valid;
  for (const Figure& figure : kFigures) {
    valid += std::string(figure.name) + ", ";
    if (figure_name != "all" && figure_name != figure.name) continue;
    chosen.push_back(&figure);
    if (std::strcmp(figure.name, "fig6") == 0) fig6 = &figure;
  }
  if (chosen.empty()) {
    std::fprintf(stderr, "reese_figs: unknown figure '%s' (valid: %sall)\n",
                 figure_name.c_str(), valid.c_str());
    return 2;
  }

  std::vector<sim::FigureGrid> grids = sim::figure_grids();
  for (sim::FigureGrid& grid : grids) {
    grid.spec.jobs = options.jobs;
    grid.spec.checkpoint = options.checkpoint;
  }
  Results results(grids.size());
  std::vector<double> wall(grids.size(), 0.0);
  for (const Figure* figure : chosen) {
    for (usize g : figure->grids) {
      if (results[g]) continue;
      const auto start = std::chrono::steady_clock::now();
      results[g] = sim::run_experiment(grids[g].spec);
      sim::exit_if_failed(results[g]->error);
      wall[g] = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
      std::fprintf(stderr, "reese_figs: %s: %.1fs wall\n", grids[g].key,
                   wall[g]);
    }
    const std::string text =
        figure->summary_title == nullptr
            ? results[figure->grids[0]]->table()
            : summary_table(*figure, grids, results);
    std::fputs(text.c_str(), stdout);
    std::fflush(stdout);
  }

  if (out_path.empty()) return 0;
  if (!write_text_file(out_path, report_json(grids, results, wall, fig6))) {
    std::fprintf(stderr, "reese_figs: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "reese_figs: wrote %s\n", out_path.c_str());
  return 0;
}
