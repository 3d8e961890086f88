// AVF cross-validation: does the static srv-vuln ranking predict measured
// per-instruction fault outcomes?
//
// The static analyzer (src/analysis/vuln.h) ranks every static instruction
// by freq × expected ACE window — a prediction made without running the
// program. This bench closes the loop dynamically: it assembles the
// examples/srv programs, runs a fault-injection campaign over the fixed
// images (baseline variant = exact program-order ACE-window measurement,
// REESE variant = detection behaviour, informational), joins the measured
// per-PC strata against the static ranking, and reports Spearman rank
// correlation per program.
//
// The headline statistic is rho between the static ace_score and the
// measured per-PC ACE-window mass (window_sum: live instructions summed
// over all faults whose value was read before redefinition — the dynamic
// realization of freq × window). rho against the raw per-PC escape count
// is reported alongside. The bench passes when at least two programs reach
// rho_window >= --min-rho (default 0.6).
//
// Usage: avf_validate [--quick] [--jobs N] [--replicas N] [--rate R]
//                     [--seed S] [--min-rho R] [--out PATH]
//                     [program.srv ...]
//
//   --quick       CI mode: 64 replicas per cell instead of 256
//   --jobs N      worker threads (default: auto; REESE_JOBS honoured)
//   --replicas N  seed replicas per cell, in [1, 10^6] (default 256)
//   --rate R      per-instruction injection probability, in (0, 1]
//                 (default 0.02)
//   --seed S      campaign seed, in [0, 2^63-1] (default 0xAFF01DEA)
//   --min-rho R   per-program pass threshold on rho_window, in [-1, 1]
//                 (default 0.6)
//   --out PATH    report path (default: BENCH_avf.json in the CWD)
//
// With no positional programs, every examples/srv/*.srv under the source
// tree is used, recorded in the report relative to the repository root
// (examples/srv/gcd.srv), so two checkouts of one commit write the same
// report; a program given on the command line is recorded as given. Exit status 1 when a program fails to assemble, the
// report cannot be written, or fewer than two programs pass; 2 when a
// flag is unknown or its value is malformed or out of range.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/vuln.h"
#include "common/diag.h"
#include "common/flags.h"
#include "common/strutil.h"
#include "isa/assembler.h"
#include "sim/campaign.h"

using namespace reese;
namespace fs = std::filesystem;

namespace {

struct ProgramReport {
  std::string name;
  std::string path;
  usize static_instructions = 0;
  usize joined_pcs = 0;  ///< reachable static instructions in the join
  u64 injected = 0;      ///< baseline-variant injections into this program
  u64 escapes = 0;
  double rho_window = 0.0;  ///< static ace_score vs measured window_sum
  double rho_escape = 0.0;  ///< static ace_score vs per-PC escape count
  bool pass = false;
};

/// Every examples/srv program, relative to the repository root.
std::vector<std::string> default_programs() {
  std::vector<std::string> paths;
  const fs::path dir = fs::path(REESE_SOURCE_DIR) / "examples" / "srv";
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".srv") {
      paths.push_back("examples/srv/" + entry.path().filename().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

}  // namespace

int main(int argc, char** argv) {
  sim::CampaignSpec spec;
  spec.rate = 0.02;
  spec.seed = 0xAFF01DEA;
  bool quick = false;
  double min_rho = 0.6;
  std::string out_path = "BENCH_avf.json";
  std::vector<std::string> program_paths;

  Flags flags("avf_validate");
  flags.toggle("--quick", &quick);
  flags.jobs("--jobs", &spec.jobs);
  flags.integer("--replicas", &spec.replicas, 1, 1'000'000);
  flags.number("--rate", &spec.rate, 0.0, 1.0, /*exclude_lo=*/true);
  flags.integer("--seed", &spec.seed);
  flags.number("--min-rho", &min_rho, -1.0, 1.0);
  flags.text("--out", &out_path);
  flags.operands(&program_paths);
  if (const std::string error = flags.parse(argc, argv); !error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  // Default programs are opened under the source tree.
  const fs::path base = program_paths.empty() ? REESE_SOURCE_DIR : "";
  if (program_paths.empty()) program_paths = default_programs();
  if (program_paths.empty()) {
    std::fprintf(stderr, "avf_validate: no input programs\n");
    return 1;
  }
  // The statistics need many seed replicas over the short fixed images, so
  // this bench resolves its own quick mode instead of CampaignSpec::quick
  // (whose default is a single replica). --replicas is never 0.
  if (spec.replicas == 0) spec.replicas = quick ? 64 : 256;
  spec.instructions = quick ? 20'000 : 60'000;

  // Static half: assemble and rank each program.
  std::vector<analysis::VulnReport> statics;
  for (const std::string& path : program_paths) {
    std::ifstream file(base / path);
    if (!file) {
      std::fprintf(stderr, "avf_validate: cannot open %s\n", path.c_str());
      return 1;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    auto assembled = isa::assemble(buffer.str());
    if (!assembled.ok()) {
      std::fprintf(stderr, "avf_validate: %s: %s\n", path.c_str(),
                   assembled.error().to_string().c_str());
      return 1;
    }
    sim::CampaignProgram program;
    program.name = fs::path(path).stem().string();
    program.program = assembled.value();
    statics.push_back(analysis::analyze_vulnerability(program.program));
    spec.programs.push_back(std::move(program));
  }

  // Dynamic half: baseline measures exact program-order ACE windows (no
  // comparator, no flushes); REESE-either rides along for detection rates.
  sim::CampaignVariant baseline{"baseline", core::starting_config(),
                                faults::FaultTarget::kEither};
  baseline.expect_zero_coverage = true;
  sim::CampaignVariant reese{"reese_either",
                             core::with_reese(core::starting_config()),
                             faults::FaultTarget::kEither};
  reese.expect_full_coverage = true;
  spec.variants = {baseline, reese};
  constexpr usize kBaselineVariant = 0;

  std::printf("AVF validation: static srv-vuln ranking vs measured per-PC "
              "fault outcomes\n");
  const sim::CampaignResult result = sim::run_campaign(spec);
  sim::exit_if_failed(result.error);

  std::vector<ProgramReport> reports;
  usize passing = 0;
  for (usize w = 0; w < spec.programs.size(); ++w) {
    const analysis::VulnReport& vuln = statics[w];
    const sim::CampaignCell measured =
        result.workload_total(kBaselineVariant, w);

    ProgramReport report;
    report.name = spec.programs[w].name;
    report.path = program_paths[w];
    report.static_instructions = vuln.instructions.size();

    std::vector<double> predicted;
    std::vector<double> window_mass;
    std::vector<double> escape_count;
    for (const analysis::InstVuln& inst : vuln.instructions) {
      if (!inst.reachable) continue;
      const auto it = measured.by_pc.find(inst.pc);
      const sim::PcStratum* stratum =
          it == measured.by_pc.end() ? nullptr : &it->second;
      predicted.push_back(inst.ace_score);
      window_mass.push_back(
          stratum == nullptr ? 0.0 : static_cast<double>(stratum->window_sum));
      escape_count.push_back(
          stratum == nullptr ? 0.0 : static_cast<double>(stratum->undetected));
      if (stratum != nullptr) {
        report.injected += stratum->injected;
        report.escapes += stratum->undetected;
      }
    }
    report.joined_pcs = predicted.size();
    report.rho_window = spearman_rank_correlation(predicted, window_mass);
    report.rho_escape = spearman_rank_correlation(predicted, escape_count);
    report.pass = report.rho_window >= min_rho;
    if (report.pass) ++passing;

    std::printf(
        "  %-12s static=%3zu joined=%3zu injected=%6llu escapes=%6llu "
        "rho_window=%+.3f rho_escape=%+.3f %s\n",
        report.name.c_str(), report.static_instructions, report.joined_pcs,
        static_cast<unsigned long long>(report.injected),
        static_cast<unsigned long long>(report.escapes), report.rho_window,
        report.rho_escape, report.pass ? "PASS" : "FAIL");
    reports.push_back(std::move(report));
  }

  const usize required = std::min<usize>(2, reports.size());
  const bool pass = passing >= required;

  std::string json;
  json += "{\n";
  json += "  \"schema\": \"reese-avf-v1\",\n";
  json += "  \"kind\": \"validation\",\n";
  json += format("  \"quick\": %s,\n", quick ? "true" : "false");
  json += format("  \"replicas\": %u,\n", spec.replicas);
  json += format("  \"rate\": %.6f,\n", spec.rate);
  json += format("  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(spec.seed));
  json += format("  \"min_rho\": %.3f,\n", min_rho);
  json += "  \"programs\": [\n";
  for (usize i = 0; i < reports.size(); ++i) {
    const ProgramReport& r = reports[i];
    json += "    {\n";
    json += format("      \"name\": \"%s\",\n", json_escape(r.name).c_str());
    json += format("      \"path\": \"%s\",\n", json_escape(r.path).c_str());
    json += format("      \"static_instructions\": %zu,\n",
                   r.static_instructions);
    json += format("      \"joined_pcs\": %zu,\n", r.joined_pcs);
    json += format("      \"injected\": %llu,\n",
                   static_cast<unsigned long long>(r.injected));
    json += format("      \"escapes\": %llu,\n",
                   static_cast<unsigned long long>(r.escapes));
    json += format("      \"rho_window\": %.6f,\n", r.rho_window);
    json += format("      \"rho_escape\": %.6f,\n", r.rho_escape);
    json += format("      \"pass\": %s\n", r.pass ? "true" : "false");
    json += i + 1 < reports.size() ? "    },\n" : "    }\n";
  }
  json += "  ],\n";
  json += format("  \"programs_passing\": %zu,\n", passing);
  json += format("  \"programs_required\": %zu,\n", required);
  json += format("  \"pass\": %s\n", pass ? "true" : "false");
  json += "}\n";

  if (!write_text_file(out_path, json)) {
    std::fprintf(stderr, "avf_validate: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "avf_validate: wrote %s\n", out_path.c_str());

  if (!pass) {
    std::fprintf(stderr,
                 "avf_validate: FAIL — %zu/%zu programs reached rho_window "
                 ">= %.2f\n",
                 passing, reports.size(), min_rho);
    return 1;
  }
  std::printf("avf_validate: PASS — %zu/%zu programs reached rho_window >= "
              "%.2f\n",
              passing, reports.size(), min_rho);
  return 0;
}
