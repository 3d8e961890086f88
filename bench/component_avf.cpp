// Per-component AVF tables: where do soft errors actually land, and what
// does REESE catch there?
//
// The classic campaigns (fault_coverage, A5) flip instruction *results* —
// the paper's §2 error model. This bench widens the lens to the structures
// themselves (DESIGN.md §16): RUU entries, the R-stream Queue (REESE's own
// checker state), LSQ address fields, predictor/BTB bits and D-L1/D-TLB
// lines each get their own campaign variant, and every strike resolves to
// masked/detected/SDC with the static PC that owned the corrupted state.
// Detection and AVF rates carry Wilson-score 95% intervals.
//
// The headline row is reese@rqueue: injections into the checker itself.
// Result flips are ~fully detected (§4.2); R-queue strikes are a mix of
// false-positive detections (corrupt operand copies), silently-lost
// re-executions (coverage_loss) and — for the stored result after its
// comparison window — silent corruption. The bench gates on that gap:
// R-queue detection must sit measurably below result-flip detection.
//
// Cross-validation: a second campaign injects RUU strikes into the
// assembled examples/srv programs and joins measured per-PC SDC counts
// against the static srv-vuln ace_score ranking (Spearman rho, reported
// per program; informational, not gated — RUU slot occupancy decouples
// strike frequency from the static frequency model more than result flips
// do).
//
// Usage: component_avf [--quick] [--jobs N] [--replicas N]
//                      [--instructions N] [--rate R] [--seed S]
//                      [--out PATH] [--skip-xval]
//
//   --quick           CI mode: 1 replica, 20k instructions per cell
//   --jobs N          worker threads (default: auto; REESE_JOBS honoured)
//   --replicas N      seed replicas per cell, in [1, 10^6] (default 8)
//   --instructions N  per-cell budget, in [1, 2^63-1] (default 60k)
//   --rate R          per-cycle strike probability, in (0, 1]
//                     (default 5e-3)
//   --seed S          campaign seed, in [0, 2^63-1] (default 0xCAFC0DE5)
//   --out PATH        report path (default: BENCH_cavf.json in the CWD)
//   --skip-xval       skip the srv-vuln cross-validation campaign
//
// Output: reese-cavf-v1 JSON. Exit 1 when a gate fails or the report
// cannot be written; 2 when a flag is unknown or its value is malformed
// or out of range.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

struct SiteRow {
  std::string label;
  std::string base;
  const char* site = "";
  u64 injected = 0;
  u64 detected = 0;
  u64 masked = 0;
  u64 sdc = 0;
  u64 coverage_loss = 0;
  double detection = 0.0;  ///< detected / injected
  WilsonInterval detection_ci;
  double avf = 0.0;  ///< (detected + sdc) / injected: architecturally visible
  WilsonInterval avf_ci;
  double mean_latency = 0.0;
  /// Root-cause attribution: the static PCs that owned the most strikes.
  struct TopPc {
    Addr pc = 0;
    u64 injected = 0;
    u64 detected = 0;
    u64 sdc = 0;
  };
  std::vector<TopPc> top_pcs;
};

struct Check {
  std::string name;
  bool pass = false;
  std::string detail;
};

struct XvalRow {
  std::string name;
  usize joined_pcs = 0;
  u64 injected = 0;
  u64 sdc = 0;
  double rho_sdc = 0.0;  ///< static ace_score vs measured per-PC SDC count
};

SiteRow make_row(const sim::CampaignResult& result, usize variant_index) {
  const sim::CampaignVariant& variant = result.spec.variants[variant_index];
  const sim::CampaignCell total = result.variant_total(variant_index);
  SiteRow row;
  row.label = variant.label;
  const usize at = variant.label.find('@');
  row.base = at == std::string::npos ? variant.label
                                     : variant.label.substr(0, at);
  row.site = core::fault_site_name(variant.site);
  row.injected = total.injected;
  row.detected = total.detected;
  row.masked = total.masked;
  row.sdc = total.sdc;
  row.coverage_loss = total.coverage_loss;
  row.detection = safe_ratio(total.detected, total.injected);
  row.detection_ci = wilson_interval(total.detected, total.injected);
  row.avf = safe_ratio(total.detected + total.sdc, total.injected);
  row.avf_ci = wilson_interval(total.detected + total.sdc, total.injected);
  row.mean_latency = safe_ratio(total.latency_sum, total.latency_count);

  std::vector<SiteRow::TopPc> pcs;
  for (const auto& [pc, stratum] : total.by_pc) {
    pcs.push_back({pc, stratum.injected, stratum.detected,
                   stratum.undetected});
  }
  std::sort(pcs.begin(), pcs.end(),
            [](const SiteRow::TopPc& a, const SiteRow::TopPc& b) {
              if (a.injected != b.injected) return a.injected > b.injected;
              return a.pc < b.pc;
            });
  if (pcs.size() > 3) pcs.resize(3);
  row.top_pcs = std::move(pcs);
  return row;
}

sim::CampaignVariant variant_or_die(const std::string& label) {
  sim::CampaignVariant variant;
  if (!sim::campaign_variant_by_label(label, &variant)) {
    std::fprintf(stderr, "component_avf: unresolvable variant \"%s\"\n",
                 label.c_str());
    std::exit(1);
  }
  return variant;
}

}  // namespace

int main(int argc, char** argv) {
  sim::CampaignSpec spec;
  spec.rate = 5e-3;
  spec.seed = 0xCAFC0DE5;
  bool quick = false;
  bool skip_xval = false;
  std::string out_path = "BENCH_cavf.json";

  Flags flags("component_avf");
  flags.toggle("--quick", &quick);
  flags.jobs("--jobs", &spec.jobs);
  flags.integer("--replicas", &spec.replicas, 1, 1'000'000);
  flags.integer("--instructions", &spec.instructions, 1);
  flags.number("--rate", &spec.rate, 0.0, 1.0, /*exclude_lo=*/true);
  flags.integer("--seed", &spec.seed);
  flags.text("--out", &out_path);
  flags.toggle("--skip-xval", &skip_xval);
  if (const std::string error = flags.parse(argc, argv); !error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  // This bench resolves its own quick mode: its default replica count
  // differs from CampaignSpec's. --replicas is never 0.
  if (spec.replicas == 0) spec.replicas = quick ? 1 : 8;
  if (spec.instructions == 0) spec.instructions = quick ? 20'000 : 60'000;

  // One reference row (the classic result-flip model, via the same label
  // machinery a service spec uses) + the seven component sites
  // under REESE + the baseline rows that ground-truth the sites REESE
  // cannot see at all.
  const std::vector<std::string> labels = {
      "reese@result",    "reese@ruu",     "reese@rqueue", "reese@lsq",
      "reese@predictor", "reese@btb",     "reese@dcache", "reese@dtlb",
      "baseline@ruu",    "baseline@lsq",  "baseline@dcache",
      "baseline@dtlb"};
  for (const std::string& label : labels) {
    spec.variants.push_back(variant_or_die(label));
  }

  std::printf("Component AVF: %zu variants x 6 workloads x %u replicas "
              "(%llu instr/cell, rate %.0e)\n",
              labels.size(), spec.replicas,
              static_cast<unsigned long long>(spec.instructions), spec.rate);
  const sim::CampaignResult result = sim::run_campaign(spec);
  sim::exit_if_failed(result.error);

  std::vector<SiteRow> rows;
  for (usize v = 0; v < result.spec.variants.size(); ++v) {
    rows.push_back(make_row(result, v));
  }

  std::printf("  %-18s %9s %9s %9s %7s %8s  %9s %-19s %6s\n", "variant",
              "injected", "detected", "masked", "sdc", "cov_loss",
              "detection", "wilson95", "avf");
  for (const SiteRow& row : rows) {
    std::printf("  %-18s %9llu %9llu %9llu %7llu %8llu  %8.3f%% "
                "[%6.3f%%,%7.3f%%] %5.3f\n",
                row.label.c_str(),
                static_cast<unsigned long long>(row.injected),
                static_cast<unsigned long long>(row.detected),
                static_cast<unsigned long long>(row.masked),
                static_cast<unsigned long long>(row.sdc),
                static_cast<unsigned long long>(row.coverage_loss),
                100.0 * row.detection, 100.0 * row.detection_ci.lower,
                100.0 * row.detection_ci.upper, row.avf);
  }

  const auto row_by_label = [&rows](const std::string& label) -> SiteRow& {
    for (SiteRow& row : rows) {
      if (row.label == label) return row;
    }
    std::fprintf(stderr, "component_avf: missing row %s\n", label.c_str());
    std::exit(1);
  };
  const SiteRow& reference = row_by_label("reese@result");
  const SiteRow& rqueue = row_by_label("reese@rqueue");
  const SiteRow& predictor = row_by_label("reese@predictor");
  const SiteRow& btb = row_by_label("reese@btb");
  const SiteRow& baseline_ruu = row_by_label("baseline@ruu");

  std::vector<Check> checks;
  {
    usize covered = 0;
    for (const SiteRow& row : rows) {
      if (row.base == "reese" && std::strcmp(row.site, "result") != 0 &&
          row.injected > 0) {
        ++covered;
      }
    }
    checks.push_back({"sites_covered", covered >= 5,
                      format("%zu/7 component sites saw injections under "
                             "REESE (need >= 5)",
                             covered)});
  }
  checks.push_back(
      {"rqueue_detection_gap",
       rqueue.detection < reference.detection - 0.10,
       format("reese@rqueue detection %.3f vs reese@result %.3f: the "
              "checker does not protect its own state (need a >= 10pp gap)",
              rqueue.detection, reference.detection)});
  checks.push_back(
      {"rqueue_coverage_loss", rqueue.coverage_loss > 0,
       format("%llu re-executions silently killed by R-queue control-state "
              "strikes (need > 0)",
              static_cast<unsigned long long>(rqueue.coverage_loss))});
  checks.push_back(
      {"frontend_masked",
       predictor.detected == 0 && predictor.sdc == 0 && btb.detected == 0 &&
           btb.sdc == 0,
       "predictor/BTB strikes are architecturally masked (AVF 0 controls)"});
  checks.push_back(
      {"baseline_ruu_sdc", baseline_ruu.sdc > 0,
       format("baseline RUU strikes reach architectural state (%llu SDC)",
              static_cast<unsigned long long>(baseline_ruu.sdc))});

  // Cross-validation against the static srv-vuln ranking: strike RUU slots
  // while the assembled examples/srv programs run, and rank-correlate the
  // measured per-PC SDC counts with the static ace_score.
  std::vector<XvalRow> xval;
  if (!skip_xval) {
    sim::CampaignSpec xspec;
    xspec.rate = spec.rate;
    xspec.seed = spec.seed ^ 0x5EED;
    xspec.jobs = spec.jobs;
    xspec.replicas = quick ? 16 : 64;
    xspec.instructions = spec.instructions;
    xspec.variants = {variant_or_die("baseline@ruu")};

    std::vector<analysis::VulnReport> statics;
    std::vector<std::string> paths;
    const fs::path dir = fs::path(REESE_SOURCE_DIR) / "examples" / "srv";
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      if (entry.path().extension() == ".srv") {
        paths.push_back(entry.path().string());
      }
    }
    std::sort(paths.begin(), paths.end());
    for (const std::string& path : paths) {
      std::ifstream file(path);
      std::stringstream buffer;
      buffer << file.rdbuf();
      auto assembled = isa::assemble(buffer.str());
      if (!assembled.ok()) {
        std::fprintf(stderr, "component_avf: %s: %s\n", path.c_str(),
                     assembled.error().to_string().c_str());
        return 1;
      }
      sim::CampaignProgram program;
      program.name = fs::path(path).stem().string();
      program.program = assembled.value();
      statics.push_back(analysis::analyze_vulnerability(program.program));
      xspec.programs.push_back(std::move(program));
    }

    if (!xspec.programs.empty()) {
      const sim::CampaignResult xresult = sim::run_campaign(xspec);
      sim::exit_if_failed(xresult.error);
      for (usize w = 0; w < xresult.spec.workloads.size(); ++w) {
        const sim::CampaignCell measured = xresult.workload_total(0, w);
        std::vector<double> predicted;
        std::vector<double> sdc_count;
        XvalRow row;
        row.name = xresult.spec.workloads[w];
        for (const analysis::InstVuln& inst : statics[w].instructions) {
          if (!inst.reachable) continue;
          const auto it = measured.by_pc.find(inst.pc);
          const sim::PcStratum* stratum =
              it == measured.by_pc.end() ? nullptr : &it->second;
          predicted.push_back(inst.ace_score);
          sdc_count.push_back(stratum == nullptr
                                  ? 0.0
                                  : static_cast<double>(stratum->undetected));
          if (stratum != nullptr) {
            row.injected += stratum->injected;
            row.sdc += stratum->undetected;
          }
        }
        row.joined_pcs = predicted.size();
        row.rho_sdc = spearman_rank_correlation(predicted, sdc_count);
        std::printf("  xval %-12s joined=%3zu injected=%6llu sdc=%6llu "
                    "rho_sdc=%+.3f\n",
                    row.name.c_str(), row.joined_pcs,
                    static_cast<unsigned long long>(row.injected),
                    static_cast<unsigned long long>(row.sdc), row.rho_sdc);
        xval.push_back(std::move(row));
      }
    }
  }

  bool pass = true;
  for (const Check& check : checks) {
    std::printf("  check %-22s %s  (%s)\n", check.name.c_str(),
                check.pass ? "PASS" : "FAIL", check.detail.c_str());
    if (!check.pass) pass = false;
  }

  std::string json;
  json += "{\n";
  json += "  \"schema\": \"reese-cavf-v1\",\n";
  json += format("  \"quick\": %s,\n", quick ? "true" : "false");
  json += format("  \"instructions\": %llu,\n",
                 static_cast<unsigned long long>(spec.instructions));
  json += format("  \"replicas\": %u,\n", spec.replicas);
  json += format("  \"rate\": %g,\n", spec.rate);
  json += format("  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(spec.seed));
  json += "  \"sites\": [\n";
  for (usize i = 0; i < rows.size(); ++i) {
    const SiteRow& r = rows[i];
    json += "    {\n";
    json += format("      \"label\": \"%s\",\n", json_escape(r.label).c_str());
    json += format("      \"base\": \"%s\",\n", json_escape(r.base).c_str());
    json += format("      \"site\": \"%s\",\n", r.site);
    json += format("      \"injected\": %llu,\n",
                   static_cast<unsigned long long>(r.injected));
    json += format("      \"detected\": %llu,\n",
                   static_cast<unsigned long long>(r.detected));
    json += format("      \"masked\": %llu,\n",
                   static_cast<unsigned long long>(r.masked));
    json += format("      \"sdc\": %llu,\n",
                   static_cast<unsigned long long>(r.sdc));
    json += format("      \"coverage_loss\": %llu,\n",
                   static_cast<unsigned long long>(r.coverage_loss));
    json += format("      \"detection\": %.6f,\n", r.detection);
    json += format("      \"detection_lower\": %.6f,\n", r.detection_ci.lower);
    json += format("      \"detection_upper\": %.6f,\n", r.detection_ci.upper);
    json += format("      \"avf\": %.6f,\n", r.avf);
    json += format("      \"avf_lower\": %.6f,\n", r.avf_ci.lower);
    json += format("      \"avf_upper\": %.6f,\n", r.avf_ci.upper);
    json += format("      \"mean_latency\": %.3f,\n", r.mean_latency);
    json += "      \"top_pcs\": [";
    for (usize p = 0; p < r.top_pcs.size(); ++p) {
      json += format("%s{\"pc\": %llu, \"injected\": %llu, "
                     "\"detected\": %llu, \"sdc\": %llu}",
                     p == 0 ? "" : ", ",
                     static_cast<unsigned long long>(r.top_pcs[p].pc),
                     static_cast<unsigned long long>(r.top_pcs[p].injected),
                     static_cast<unsigned long long>(r.top_pcs[p].detected),
                     static_cast<unsigned long long>(r.top_pcs[p].sdc));
    }
    json += "]\n";
    json += i + 1 < rows.size() ? "    },\n" : "    }\n";
  }
  json += "  ],\n";
  json += "  \"cross_validation\": [\n";
  for (usize i = 0; i < xval.size(); ++i) {
    const XvalRow& r = xval[i];
    json += format("    {\"name\": \"%s\", \"joined_pcs\": %zu, "
                   "\"injected\": %llu, \"sdc\": %llu, \"rho_sdc\": %.6f}%s\n",
                   json_escape(r.name).c_str(), r.joined_pcs,
                   static_cast<unsigned long long>(r.injected),
                   static_cast<unsigned long long>(r.sdc), r.rho_sdc,
                   i + 1 < xval.size() ? "," : "");
  }
  json += "  ],\n";
  json += "  \"checks\": [\n";
  for (usize i = 0; i < checks.size(); ++i) {
    json += format("    {\"name\": \"%s\", \"pass\": %s, \"detail\": \"%s\"}%s\n",
                   checks[i].name.c_str(), checks[i].pass ? "true" : "false",
                   json_escape(checks[i].detail).c_str(),
                   i + 1 < checks.size() ? "," : "");
  }
  json += "  ],\n";
  json += format("  \"pass\": %s\n", pass ? "true" : "false");
  json += "}\n";

  if (!write_text_file(out_path, json)) {
    std::fprintf(stderr, "component_avf: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "component_avf: wrote %s\n", out_path.c_str());

  if (!pass) {
    std::fprintf(stderr, "component_avf: FAIL — see checks above\n");
    return 1;
  }
  std::printf("component_avf: PASS\n");
  return 0;
}
