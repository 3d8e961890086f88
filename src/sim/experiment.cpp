#include "sim/experiment.h"

#include <cassert>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/diag.h"
#include "common/flags.h"
#include "common/snapshot.h"
#include "common/strutil.h"
#include "common/thread_pool.h"
#include "sim/simulator.h"

namespace reese::sim {

const char* model_name(Model model) {
  switch (model) {
    case Model::kBaseline: return "Baseline";
    case Model::kReese: return "REESE";
    case Model::kReese1Alu: return "R+1ALU";
    case Model::kReese2Alu: return "R+2ALU";
    case Model::kReese2Alu1Mult: return "R+2ALU+1Mult";
  }
  return "?";
}

const char* model_slug(Model model) {
  switch (model) {
    case Model::kBaseline: return "baseline";
    case Model::kReese: return "reese";
    case Model::kReese1Alu: return "reese_1alu";
    case Model::kReese2Alu: return "reese_2alu";
    case Model::kReese2Alu1Mult: return "reese_2alu_1mult";
  }
  return "?";
}

bool model_from_slug(const std::string& slug, Model* out) {
  for (Model model : standard_models()) {
    if (slug == model_slug(model)) {
      *out = model;
      return true;
    }
  }
  return false;
}

const std::vector<Model>& standard_models() {
  static const auto* kModels = new std::vector<Model>{
      Model::kBaseline, Model::kReese, Model::kReese1Alu, Model::kReese2Alu,
      Model::kReese2Alu1Mult};
  return *kModels;
}

core::CoreConfig apply_model(core::CoreConfig base, Model model) {
  switch (model) {
    case Model::kBaseline: return base;
    case Model::kReese: return core::with_reese(base, 0, 0);
    case Model::kReese1Alu: return core::with_reese(base, 1, 0);
    case Model::kReese2Alu: return core::with_reese(base, 2, 0);
    case Model::kReese2Alu1Mult: return core::with_reese(base, 2, 1);
  }
  return base;
}

double ExperimentResult::average(usize model_index) const {
  if (ipc.empty()) return 0.0;
  double sum = 0.0;
  for (const std::vector<double>& row : ipc) sum += row[model_index];
  return sum / static_cast<double>(ipc.size());
}

double ExperimentResult::overhead_pct(usize model_index) const {
  assert(!spec.models.empty() && spec.models[0] == Model::kBaseline);
  const double base = average(0);
  if (base == 0.0) return 0.0;
  return 100.0 * (base - average(model_index)) / base;
}

std::string ExperimentResult::table() const {
  std::string out = spec.title + "\n";
  out += format("  (config: %s; %llu instructions/run)\n",
                spec.base.summary().c_str(),
                static_cast<unsigned long long>(spec.instructions));

  out += format("  %-10s", "workload");
  for (Model model : spec.models) out += format("%14s", model_name(model));
  out += "\n";

  for (usize w = 0; w < spec.workloads.size(); ++w) {
    out += format("  %-10s", spec.workloads[w].c_str());
    for (usize m = 0; m < spec.models.size(); ++m) {
      out += format("%14.3f", ipc[w][m]);
    }
    out += "\n";
  }

  out += format("  %-10s", "AV");
  for (usize m = 0; m < spec.models.size(); ++m) {
    out += format("%14.3f", average(m));
  }
  out += "\n";

  if (!spec.models.empty() && spec.models[0] == Model::kBaseline) {
    out += format("  %-10s", "vs base");
    out += format("%14s", "-");
    for (usize m = 1; m < spec.models.size(); ++m) {
      out += format("%13.1f%%", -overhead_pct(m));
    }
    out += "\n";
  }
  return out;
}

std::string ExperimentResult::csv() const {
  std::string out = "workload,model,ipc,ipc_stdev\n";
  for (usize w = 0; w < spec.workloads.size(); ++w) {
    for (usize m = 0; m < spec.models.size(); ++m) {
      out += format("%s,%s,%.6f,%.6f\n", spec.workloads[w].c_str(),
                    model_name(spec.models[m]), ipc[w][m], ipc_stdev[w][m]);
    }
  }
  return out;
}

std::string ExperimentResult::json() const {
  std::string out = "{\n";
  out += "  \"schema\": \"reese-experiment-v1\",\n";
  out += format("  \"title\": \"%s\",\n", json_escape(spec.title).c_str());
  out += format("  \"instructions\": %llu,\n",
                static_cast<unsigned long long>(spec.instructions));
  out += format("  \"seed\": %llu,\n",
                static_cast<unsigned long long>(spec.seed));
  out += "  \"extra_seeds\": [";
  for (usize s = 0; s < spec.extra_seeds.size(); ++s) {
    out += format("%s%llu", s == 0 ? "" : ", ",
                  static_cast<unsigned long long>(spec.extra_seeds[s]));
  }
  out += "],\n";
  out += "  \"workloads\": [";
  for (usize w = 0; w < spec.workloads.size(); ++w) {
    out += format("%s\"%s\"", w == 0 ? "" : ", ",
                  json_escape(spec.workloads[w]).c_str());
  }
  out += "],\n";
  out += "  \"models\": [";
  for (usize m = 0; m < spec.models.size(); ++m) {
    out += format("%s\"%s\"", m == 0 ? "" : ", ",
                  model_slug(spec.models[m]));
  }
  out += "],\n";
  const auto append_matrix =
      [&out](const char* key, const std::vector<std::vector<double>>& matrix) {
        out += format("  \"%s\": [\n", key);
        for (usize w = 0; w < matrix.size(); ++w) {
          out += "    [";
          for (usize m = 0; m < matrix[w].size(); ++m) {
            out += format("%s%.6f", m == 0 ? "" : ", ", matrix[w][m]);
          }
          out += format("]%s\n", w + 1 < matrix.size() ? "," : "");
        }
        out += "  ],\n";
      };
  append_matrix("ipc", ipc);
  append_matrix("ipc_stdev", ipc_stdev);
  out += "  \"average\": [";
  for (usize m = 0; m < spec.models.size(); ++m) {
    out += format("%s%.6f", m == 0 ? "" : ", ", average(m));
  }
  out += "],\n";
  out += "  \"cells\": [\n";
  for (usize w = 0; w < cells.size(); ++w) {
    out += "    [\n";
    for (usize m = 0; m < cells[w].size(); ++m) {
      out += "      [";
      for (usize s = 0; s < cells[w][m].size(); ++s) {
        const ExperimentCell& cell = cells[w][m][s];
        out += format(
            "%s{\"ipc\": %.6f, \"cycles\": %llu, \"committed\": %llu}",
            s == 0 ? "" : ", ", cell.ipc,
            static_cast<unsigned long long>(cell.cycles),
            static_cast<unsigned long long>(cell.committed));
      }
      out += format("]%s\n", m + 1 < cells[w].size() ? "," : "");
    }
    out += format("    ]%s\n", w + 1 < cells.size() ? "," : "");
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

namespace {

/// "Figure 2: initial comparison" -> "figure_2_initial_comparison".
std::string slugify(const std::string& title) {
  std::string slug;
  for (char c : title) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      slug.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(c))));
    } else if (!slug.empty() && slug.back() != '_') {
      slug.push_back('_');
    }
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug.empty() ? "experiment" : slug;
}

void maybe_write_csv(const ExperimentResult& result) {
  const char* dir = std::getenv("REESE_CSV_DIR");
  if (dir == nullptr || *dir == '\0') return;
  const std::string path =
      std::string(dir) + "/" + slugify(result.spec.title) + ".csv";
  if (!write_text_file(path, result.csv())) {
    std::fprintf(stderr, "experiment: cannot write %s\n", path.c_str());
  }
}

}  // namespace

u32 parse_jobs_flag(int argc, char** argv) {
  u32 jobs = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (std::strcmp(arg, "--jobs") == 0 || std::strcmp(arg, "-jobs") == 0) {
      if (i + 1 < argc) value = argv[i + 1];
    } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
      value = arg + 7;
    }
    if (value == nullptr) continue;
    // A non-integer exits 2. sanitize_job_count turns 0/negative/absurd
    // requests into 0 (auto = hardware concurrency) with a warning.
    jobs = sanitize_job_count(int_flag_value("jobs", "--jobs", value));
  }
  return jobs;
}

ExperimentResult run_experiment(const ExperimentSpec& spec_in) {
  ExperimentSpec spec = spec_in;
  if (spec.models.empty()) spec.models = standard_models();
  if (spec.workloads.empty()) spec.workloads = workloads::spec_like_names();
  if (spec.instructions == 0) spec.instructions = default_instruction_budget();
  const CheckpointOptions& ckpt = spec.checkpoint;

  std::vector<u64> seeds = {spec.seed};
  seeds.insert(seeds.end(), spec.extra_seeds.begin(),
               spec.extra_seeds.end());

  ExperimentResult result;
  result.spec = spec;
  result.ipc.assign(spec.workloads.size(),
                    std::vector<double>(spec.models.size(), 0.0));
  result.ipc_stdev.assign(spec.workloads.size(),
                          std::vector<double>(spec.models.size(), 0.0));
  result.cells.assign(
      spec.workloads.size(),
      std::vector<std::vector<ExperimentCell>>(
          spec.models.size(), std::vector<ExperimentCell>(seeds.size())));

  struct Job {
    usize workload_index;
    usize model_index;
    usize seed_index;
  };
  std::vector<Job> jobs;
  for (usize w = 0; w < spec.workloads.size(); ++w) {
    for (usize m = 0; m < spec.models.size(); ++m) {
      for (usize s = 0; s < seeds.size(); ++s) {
        jobs.push_back({w, m, s});
      }
    }
  }

  // Each cell is an independent simulation: it builds its own workload,
  // memory image and pipeline, and writes only its own result.cells slot.
  const auto run_cell = [&](usize job_index) -> u64 {
    const Job job = jobs[job_index];
    ExperimentCell& cell =
        result.cells[job.workload_index][job.model_index][job.seed_index];
    const std::string& workload_name = spec.workloads[job.workload_index];
    const core::CoreConfig config =
        apply_model(spec.base, spec.models[job.model_index]);
    const u64 seed = seeds[job.seed_index];
    // Cell checkpoint files: "<slug>-wW-mM-sS.done" holds a finished
    // cell's result, "<...>.snap" a mid-cell pipeline snapshot.
    std::string cell_base;
    u64 identity = 0;
    if (!ckpt.dir.empty()) {
      cell_base = ckpt.dir + "/" + slugify(spec.title) +
                  format("-w%zu-m%zu-s%zu", job.workload_index,
                         job.model_index, job.seed_index);
      identity = cell_identity(workload_name, config,
                               {spec.instructions, seed, ckpt.interval});
    }
    ExperimentCell recorded;
    if (ckpt.resume && !cell_base.empty() &&
        load_done_record(cell_base + ".done", identity,
                         [&recorded](SnapshotReader* reader) {
                           recorded.stop = static_cast<core::StopReason>(
                               reader->get_u32());
                           recorded.ipc = reader->get_f64();
                           recorded.cycles = reader->get_u64();
                           recorded.committed = reader->get_u64();
                           return true;
                         })) {
      cell = recorded;
      return cell.committed;
    }

    workloads::WorkloadOptions options;
    options.seed = seed;
    options.iterations = 0;  // run forever; budget bounds the simulation
    auto workload = workloads::make_workload(workload_name, options);
    if (!workload.ok()) {
      std::fprintf(stderr, "experiment: %s\n",
                   workload.error().to_string().c_str());
      std::exit(1);
    }
    Simulator simulator(std::move(workload).value(), config);
    std::string error;
    const SimResult sim_result = run_with_checkpoints(
        &simulator, spec.instructions, seed, ckpt.interval,
        cell_base.empty() ? "" : cell_base + ".snap", ckpt.resume, &error);
    if (!error.empty()) {
      std::fprintf(stderr, "experiment: %s\n", error.c_str());
      std::exit(1);
    }
    exit_if_stopped_early(
        "experiment",
        workload_name + "/" + model_name(spec.models[job.model_index]),
        sim_result);
    cell.ipc = sim_result.ipc;
    cell.cycles = sim_result.cycles;
    cell.committed = sim_result.committed;
    cell.stop = sim_result.stop;
    if (!cell_base.empty()) {
      save_done_record(cell_base + ".done", identity,
                       [&cell](SnapshotWriter* writer) {
                         writer->put_u32(static_cast<u32>(cell.stop));
                         writer->put_f64(cell.ipc);
                         writer->put_u64(cell.cycles);
                         writer->put_u64(cell.committed);
                       });
      std::remove((cell_base + ".snap").c_str());
    }
    return cell.committed;
  };
  result.cancelled = run_cells("experiment", spec, jobs.size(), run_cell);

  for (usize w = 0; w < spec.workloads.size(); ++w) {
    for (usize m = 0; m < spec.models.size(); ++m) {
      double sum = 0.0;
      for (const ExperimentCell& cell : result.cells[w][m]) sum += cell.ipc;
      const double mean = sum / static_cast<double>(seeds.size());
      result.ipc[w][m] = mean;
      if (seeds.size() > 1) {
        double variance = 0.0;
        for (const ExperimentCell& cell : result.cells[w][m]) {
          variance += (cell.ipc - mean) * (cell.ipc - mean);
        }
        variance /= static_cast<double>(seeds.size() - 1);
        result.ipc_stdev[w][m] = std::sqrt(variance);
      }
    }
  }

  if (result.cancelled) return result;  // incomplete matrix: no CSV export

  maybe_write_csv(result);
  return result;
}

}  // namespace reese::sim
