// A5: fault-injection coverage campaign, at statistical scale.
//
// The paper's claim (§4.2): REESE "detects soft errors that affect
// instruction results" — arithmetic, logical, effective address and branch
// resolution. This campaign injects single-bit flips into the stored
// P-stream results or the R-stream recomputations across all six
// benchmarks and verifies, with Wilson 95% confidence bounds:
//  * REESE detects 100% of injected result faults (either copy);
//  * the baseline detects none (no comparator);
//  * detection latency tracks the P->R separation plus queue drain.
//
// The default (full) campaign runs ~10⁵ injections fanned across the
// thread pool: 5 variants x 6 workloads x 12 seed replicas, each cell an
// independent simulation with a derived seed (sim/campaign.h). Results are
// written to BENCH_fault.json for tools/bench_diff.py and CI archiving.
//
// Usage: fault_coverage [--quick] [--jobs N] [--replicas N]
//                       [--instructions N] [--rate R] [--seed S]
//                       [--out PATH] [--checkpoint-dir D] [--resume-from D]
//
//   --quick           CI mode: 1 replica, 20k-instruction cells (≈10³
//                     injections)
//   --jobs N          worker threads (default: auto; REESE_JOBS honoured)
//   --replicas N      seed replicas per cell, in [1, 10^6] (default 12)
//   --instructions N  per-cell budget, in [1, 2^63-1] (default 60k)
//   --rate R          per-instruction injection probability, in (0, 1]
//                     (default 5e-3)
//   --seed S          campaign seed, in [0, 2^63-1] (default 0xFA17C0DE)
//   --out PATH        report path (default: BENCH_fault.json in the CWD)
//   --checkpoint-dir D   write per-cell ".done" records into D
//   --resume-from D      skip cells already recorded in D (implies dir)
//
// Exit status 1 when a coverage expectation fails (a full-re-execution
// REESE variant escaped a fault, or the baseline "detected" one); 2 when a
// flag is unknown or its value is malformed or out of range.
#include <cstdio>
#include <string>

#include "common/flags.h"
#include "sim/campaign.h"

using namespace reese;

int main(int argc, char** argv) {
  sim::CampaignSpec spec;
  std::string out_path = "BENCH_fault.json";
  Flags flags("fault_coverage");
  flags.toggle("--quick", &spec.quick);
  flags.jobs("--jobs", &spec.jobs);
  flags.integer("--replicas", &spec.replicas, 1, 1'000'000);
  flags.integer("--instructions", &spec.instructions, 1);
  flags.number("--rate", &spec.rate, 0.0, 1.0, /*exclude_lo=*/true);
  flags.integer("--seed", &spec.seed);
  flags.text("--out", &out_path);
  flags.text("--checkpoint-dir", &spec.checkpoint.dir);
  flags.text("--resume-from", &spec.checkpoint.dir, &spec.checkpoint.resume);
  if (const std::string error = flags.parse(argc, argv); !error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }

  std::printf("A5: fault-injection coverage (single-bit flips on "
              "instruction results)\n");
  const sim::CampaignResult result = sim::run_campaign(spec);
  sim::exit_if_failed(result.error);
  std::printf("%s", result.table().c_str());

  if (!sim::write_campaign_report(result, out_path)) return 1;
  std::fprintf(stderr, "fault_coverage: wrote %s\n", out_path.c_str());

  // Gate on the paper's claims: full-re-execution REESE catches every
  // resolved fault, the baseline none. (The 1-of-2 partial variant is
  // informational — roughly half its faults escape by construction.)
  bool ok = true;
  for (usize v = 0; v < result.spec.variants.size(); ++v) {
    const sim::CampaignVariant& variant = result.spec.variants[v];
    const sim::CampaignCell total = result.variant_total(v);
    if (total.duplicate_reports != 0) {
      std::fprintf(stderr, "fault_coverage: FAIL %s: %llu duplicate reports\n",
                   variant.label.c_str(),
                   static_cast<unsigned long long>(total.duplicate_reports));
      ok = false;
    }
    if (variant.expect_full_coverage && total.undetected != 0) {
      std::fprintf(stderr, "fault_coverage: FAIL %s: %llu escapes\n",
                   variant.label.c_str(),
                   static_cast<unsigned long long>(total.undetected));
      ok = false;
    }
    if (variant.expect_zero_coverage && total.detected != 0) {
      std::fprintf(stderr,
                   "fault_coverage: FAIL %s: %llu spurious detections\n",
                   variant.label.c_str(),
                   static_cast<unsigned long long>(total.detected));
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
