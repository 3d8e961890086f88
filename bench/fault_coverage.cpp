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
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/flags.h"
#include "common/thread_pool.h"
#include "sim/campaign.h"

using namespace reese;

namespace {
constexpr const char* kTool = "fault_coverage";
}  // namespace

int main(int argc, char** argv) {
  sim::CampaignSpec spec;
  std::string out_path = "BENCH_fault.json";

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fault_coverage: %s needs a value\n", arg);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--quick") == 0) {
      spec.quick = true;
    } else if (std::strcmp(arg, "--jobs") == 0) {
      spec.jobs = sanitize_job_count(int_flag_value(kTool, arg, next_value()));
    } else if (std::strcmp(arg, "--replicas") == 0) {
      spec.replicas =
          static_cast<u32>(int_flag_value(kTool, arg, next_value(), 1,
                                          1'000'000));
    } else if (std::strcmp(arg, "--instructions") == 0) {
      spec.instructions =
          static_cast<u64>(int_flag_value(kTool, arg, next_value(), 1));
    } else if (std::strcmp(arg, "--rate") == 0) {
      spec.rate = double_flag_value(kTool, arg, next_value(), 0.0, 1.0,
                                    /*exclude_lo=*/true);
    } else if (std::strcmp(arg, "--seed") == 0) {
      spec.seed = static_cast<u64>(int_flag_value(kTool, arg, next_value(), 0));
    } else if (std::strcmp(arg, "--out") == 0) {
      out_path = next_value();
    } else if (std::strcmp(arg, "--checkpoint-dir") == 0) {
      spec.checkpoint.dir = next_value();
    } else if (std::strcmp(arg, "--resume-from") == 0) {
      spec.checkpoint.dir = next_value();
      spec.checkpoint.resume = true;
    } else {
      std::fprintf(stderr, "fault_coverage: unknown argument %s\n", arg);
      return 2;
    }
  }

  std::printf("A5: fault-injection coverage (single-bit flips on "
              "instruction results)\n");
  const sim::CampaignResult result = sim::run_campaign(spec);
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
