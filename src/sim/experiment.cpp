#include "sim/experiment.h"

#include <atomic>
#include <cassert>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

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
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "experiment: cannot write %s\n", path.c_str());
    return;
  }
  const std::string csv = result.csv();
  std::fwrite(csv.data(), 1, csv.size(), file);
  std::fclose(file);
}

u32 g_default_jobs = 0;

// One finished grid cell persisted as a ".done" record so a resumed grid
// skips the cell outright. The record is bound to the budget, the workload
// seed and the cell's snapshot_fingerprint (workload name + configuration):
// a record from a differently-shaped run is ignored (the cell simply
// re-runs), never misused.
constexpr u32 kCellRecordTag = 0x43454C4C;  // "CELL"

void save_cell_record(const std::string& path, u64 instructions, u64 seed,
                      u64 fingerprint, const ExperimentCell& cell) {
  SnapshotWriter writer;
  writer.put_section(kCellRecordTag);
  writer.put_u64(instructions);
  writer.put_u64(seed);
  writer.put_u64(fingerprint);
  writer.put_u32(static_cast<u32>(cell.stop));
  writer.put_f64(cell.ipc);
  writer.put_u64(cell.cycles);
  writer.put_u64(cell.committed);
  std::string error;
  if (!writer.write_file(path, kSnapshotFormatVersion, &error)) {
    std::fprintf(stderr, "experiment: %s\n", error.c_str());
  }
}

bool load_cell_record(const std::string& path, u64 instructions, u64 seed,
                      u64 fingerprint, ExperimentCell* cell) {
  SnapshotReader reader;
  if (!reader.open_file(path, kSnapshotFormatVersion)) return false;
  if (!reader.expect_section(kCellRecordTag)) return false;
  if (reader.get_u64() != instructions) return false;
  if (reader.get_u64() != seed) return false;
  if (reader.get_u64() != fingerprint) return false;
  ExperimentCell loaded;
  loaded.stop = static_cast<core::StopReason>(reader.get_u32());
  loaded.ipc = reader.get_f64();
  loaded.cycles = reader.get_u64();
  loaded.committed = reader.get_u64();
  if (!reader.ok() || !reader.at_end()) return false;
  *cell = loaded;
  return true;
}

}  // namespace

void set_default_jobs(u32 jobs) { g_default_jobs = jobs; }

u32 default_jobs() { return g_default_jobs; }

void parse_jobs_flag(int argc, char** argv) {
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
    // requests into 0 (auto = hardware concurrency) with a warning instead
    // of silently ignoring them — the old behaviour made "--jobs 0" keep
    // whatever default was installed earlier.
    set_default_jobs(
        sanitize_job_count(int_flag_value("jobs", "--jobs", value)));
  }
}

ExperimentResult run_experiment(const ExperimentSpec& spec_in) {
  ExperimentSpec spec = spec_in;
  if (spec.models.empty()) spec.models = standard_models();
  if (spec.workloads.empty()) spec.workloads = workloads::spec_like_names();
  if (spec.instructions == 0) spec.instructions = default_instruction_budget();
  if (spec.checkpoint.dir.empty() && spec.checkpoint.interval == 0 &&
      !spec.checkpoint.resume) {
    spec.checkpoint = default_checkpoint();
  }
  if (!spec.checkpoint.dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(spec.checkpoint.dir, ec);
    if (ec) {
      std::fprintf(stderr, "experiment: cannot create checkpoint dir %s: %s\n",
                   spec.checkpoint.dir.c_str(), ec.message().c_str());
      std::exit(1);
    }
  }
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

  // Progress accounting observes the grid without perturbing it; the grid
  // counters live in the caller's registry so a long-lived service
  // accumulates across jobs.
  std::atomic<u64> cells_done{0};
  std::atomic<u64> committed_total{0};
  metrics::Counter* cells_counter =
      spec.metrics == nullptr
          ? nullptr
          : spec.metrics->counter("reese_grid_cells_completed_total",
                                  {{"kind", "experiment"}},
                                  "Grid cells finished");
  metrics::Counter* committed_counter =
      spec.metrics == nullptr
          ? nullptr
          : spec.metrics->counter(
                "reese_grid_committed_instructions_total",
                {{"kind", "experiment"}},
                "Instructions committed across grid cells");

  // Each cell is an independent simulation: it builds its own workload,
  // memory image and pipeline, and writes only its own result.cells slot,
  // so the matrix is identical no matter how many workers ran it or in
  // what order cells finished.
  std::atomic<bool> cancelled{false};
  auto run_cell = [&](usize job_index) {
    if (spec.cancel &&
        (cancelled.load(std::memory_order_relaxed) || spec.cancel())) {
      cancelled.store(true, std::memory_order_relaxed);
      return;
    }
    const Job job = jobs[job_index];

    ExperimentCell& cell =
        result.cells[job.workload_index][job.model_index][job.seed_index];
    const auto account_cell = [&](u64 committed) {
      const u64 done = cells_done.fetch_add(1, std::memory_order_relaxed) + 1;
      const u64 committed_now =
          committed_total.fetch_add(committed, std::memory_order_relaxed) +
          committed;
      if (cells_counter != nullptr) cells_counter->inc();
      if (committed_counter != nullptr) committed_counter->inc(committed);
      if (spec.progress) {
        spec.progress({done, static_cast<u64>(jobs.size()), committed_now});
      }
    };

    const std::string& workload_name = spec.workloads[job.workload_index];
    const core::CoreConfig config =
        apply_model(spec.base, spec.models[job.model_index]);
    // Cell checkpoint files: "<slug>-wW-mM-sS.done" holds a finished
    // cell's result, "<...>.snap" a mid-cell pipeline snapshot.
    std::string cell_base;
    u64 fingerprint = 0;
    if (!ckpt.dir.empty()) {
      cell_base = ckpt.dir + "/" + slugify(spec.title) +
                  format("-w%zu-m%zu-s%zu", job.workload_index,
                         job.model_index, job.seed_index);
      fingerprint = snapshot_fingerprint(workload_name, config);
    }
    if (ckpt.resume && !cell_base.empty() &&
        load_cell_record(cell_base + ".done", spec.instructions,
                         seeds[job.seed_index], fingerprint, &cell)) {
      account_cell(cell.committed);
      return;
    }

    workloads::WorkloadOptions options;
    options.seed = seeds[job.seed_index];
    options.iterations = 0;  // run forever; budget bounds the simulation
    auto workload = workloads::make_workload(workload_name, options);
    if (!workload.ok()) {
      std::fprintf(stderr, "experiment: %s\n",
                   workload.error().to_string().c_str());
      std::exit(1);
    }
    Simulator simulator(std::move(workload).value(), config);
    SimResult sim_result;
    if (!cell_base.empty()) {
      std::string error;
      sim_result =
          run_with_checkpoints(&simulator, spec.instructions, ckpt.interval,
                               cell_base + ".snap", ckpt.resume, &error);
      if (!error.empty()) {
        std::fprintf(stderr, "experiment: %s\n", error.c_str());
        std::exit(1);
      }
    } else {
      sim_result = simulator.run(spec.instructions);
    }
    if (sim_result.stop != core::StopReason::kCommitTarget) {
      std::fprintf(stderr,
                   "experiment: %s/%s stopped early (%s) after %llu insts, "
                   "%llu cycles\n",
                   workload_name.c_str(),
                   model_name(spec.models[job.model_index]),
                   core::stop_reason_name(sim_result.stop),
                   static_cast<unsigned long long>(sim_result.committed),
                   static_cast<unsigned long long>(sim_result.cycles));
      if (sim_result.stop == core::StopReason::kCycleLimit) {
        std::fprintf(stderr,
                     "experiment: cycle limit hit at cycle %llu — raise it "
                     "via REESE_SIM_CYCLE_LIMIT\n",
                     static_cast<unsigned long long>(sim_result.cycles));
      }
      std::exit(1);
    }
    cell.ipc = sim_result.ipc;
    cell.cycles = sim_result.cycles;
    cell.committed = sim_result.committed;
    cell.stop = sim_result.stop;
    if (!cell_base.empty()) {
      save_cell_record(cell_base + ".done", spec.instructions,
                       seeds[job.seed_index], fingerprint, cell);
      std::remove((cell_base + ".snap").c_str());
    }

    account_cell(sim_result.committed);
  };

  const u32 workers = resolve_job_count(
      spec.jobs != 0 ? spec.jobs : g_default_jobs);
  if (workers <= 1 || jobs.size() <= 1) {
    // Reference path: plain sequential loop on the calling thread.
    for (usize i = 0; i < jobs.size(); ++i) run_cell(i);
  } else {
    ThreadPool pool(workers);
    pool.parallel_for(jobs.size(), run_cell);
  }

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

  result.cancelled = cancelled.load(std::memory_order_relaxed);
  if (result.cancelled) return result;  // incomplete matrix: no CSV export

  maybe_write_csv(result);
  return result;
}

}  // namespace reese::sim
