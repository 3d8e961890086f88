// Injector bookkeeping regressions and the campaign runner.
//
// The 10⁵-injection campaigns depend on two injector invariants: a fault
// resolves exactly once (a duplicate report never double-counts), and
// resolution is O(1) (the fault id indexes its record, so campaign cost
// stays linear). The campaign runner itself must produce a bit-identical
// matrix regardless of worker count.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "common/json.h"
#include "core/pipeline.h"
#include "faults/injector.h"
#include "isa/assembler.h"
#include "sim/campaign.h"
#include "workloads/workload.h"

namespace reese {
namespace {

// --- idempotent resolution ----------------------------------------------------

TEST(Injector, DoubleResolutionIsIdempotent) {
  faults::InjectorConfig config;
  config.rate = 1.0;
  faults::Injector injector(config);
  isa::Instruction nop;
  const u64 id = injector.on_instruction(7, 3, 0x1000, nop).id;
  ASSERT_EQ(id, 1u);

  injector.on_resolved(id, core::FaultOutcome::kDetected, 0x1000, 9);
  // A duplicate detection report, then a conflicting one.
  injector.on_resolved(id, core::FaultOutcome::kDetected, 0x1000, 9);
  injector.on_resolved(id, core::FaultOutcome::kSdc, 0x1000, 12);

  EXPECT_EQ(injector.detected(), 1u);
  EXPECT_EQ(injector.undetected(), 0u);
  EXPECT_EQ(injector.duplicate_reports(), 2u);
  EXPECT_EQ(injector.latency().count(), 1u);
  EXPECT_NEAR(injector.coverage(), 1.0, 1e-12);
  EXPECT_EQ(injector.records()[0].resolved_at, 9u);
}

// --- latency histogram bounds -------------------------------------------------

TEST(Injector, LatencyPastHistogramRangeClampsToOverflow) {
  // The injector's Histogram{4, 64} covers latencies up to 256 cycles; a
  // long flush-drain latency must clamp into the overflow bucket, not
  // vanish from count/mean/max.
  faults::InjectorConfig config;
  config.rate = 1.0;
  faults::Injector injector(config);
  isa::Instruction nop;
  injector.on_instruction(1, 0, 0x1000, nop);
  injector.on_instruction(2, 0, 0x1000, nop);
  injector.on_resolved(1, core::FaultOutcome::kDetected, 0x1000, 12);
  injector.on_resolved(2, core::FaultOutcome::kDetected, 0x1000, 1000);

  const Histogram& latency = injector.latency();
  EXPECT_EQ(latency.count(), 2u);
  EXPECT_EQ(latency.overflow(), 1u);
  EXPECT_EQ(latency.max(), 1000u);
  EXPECT_EQ(latency.min(), 12u);
  EXPECT_DOUBLE_EQ(latency.mean(), 506.0);
  EXPECT_EQ(latency.percentile(0.99), 1000u);
}

// --- resolution cost ----------------------------------------------------------

TEST(Injector, FifoResolutionOfLargeBacklogIsFast) {
  // 20k pending faults resolved oldest-first: the id indexes the record,
  // so the cost is linear in faults, where a scan per report would visit
  // ~2·10⁸ records. The assertions only check the accounting — the speed
  // shows up as this test not timing out.
  constexpr InstSeq kCount = 20'000;
  faults::InjectorConfig config;
  config.rate = 1.0;
  faults::Injector injector(config);
  isa::Instruction nop;
  for (InstSeq seq = 1; seq <= kCount; ++seq) {
    ASSERT_EQ(injector.on_instruction(seq, seq, 0x1000, nop).id, seq);
  }
  for (InstSeq seq = 1; seq <= kCount; ++seq) {
    injector.on_resolved(seq,
                         seq % 2 == 0 ? core::FaultOutcome::kDetected
                                      : core::FaultOutcome::kSdc,
                         0x1000, seq + 8);
  }
  EXPECT_EQ(injector.detected(), kCount / 2);
  EXPECT_EQ(injector.undetected(), kCount / 2);
  EXPECT_EQ(injector.pending(), 0u);
  EXPECT_EQ(injector.duplicate_reports(), 0u);
}

// --- end-to-end bookkeeping through the pipeline ------------------------------

TEST(FaultPipeline, HeavyCampaignBookkeepingStaysConsistent) {
  // Dense faults through the REESE pipeline: every detection charges the
  // recovery fetch freeze, and the accounting must still close — every
  // record resolved at most once, no duplicates, coverage complete.
  workloads::WorkloadOptions options;
  auto made = workloads::make_workload("go", options);
  ASSERT_TRUE(made.ok());
  const workloads::Workload workload = std::move(made).value();

  faults::InjectorConfig config;
  config.rate = 5e-3;
  faults::Injector injector(config);
  core::Pipeline pipeline(workload.program,
                          core::with_reese(core::starting_config()));
  pipeline.set_fault_hook(&injector);
  pipeline.run(50'000, 5'000'000);

  ASSERT_GT(injector.injected(), 100u);
  EXPECT_EQ(injector.duplicate_reports(), 0u);
  EXPECT_EQ(injector.undetected(), 0u);
  EXPECT_EQ(injector.detected() + injector.pending(), injector.injected());

  u64 resolved = 0;
  for (const faults::FaultRecord& record : injector.records()) {
    if (!record.resolved) continue;
    ++resolved;
    EXPECT_TRUE(record.detected());
    EXPECT_GE(record.resolved_at, record.injected_at);
  }
  EXPECT_EQ(resolved, injector.detected());
}

// --- campaign runner ----------------------------------------------------------

sim::CampaignSpec tiny_campaign() {
  sim::CampaignSpec spec;
  spec.workloads = {"li", "go"};
  spec.replicas = 2;
  spec.instructions = 5'000;
  spec.rate = 5e-3;
  return spec;
}

TEST(Campaign, MatrixIsBitIdenticalAcrossJobCounts) {
  sim::CampaignSpec spec = tiny_campaign();
  spec.jobs = 1;
  const sim::CampaignResult sequential = sim::run_campaign(spec);
  spec.jobs = 2;
  const sim::CampaignResult two_jobs = sim::run_campaign(spec);
  spec.jobs = 0;  // auto: hardware concurrency (or $REESE_JOBS)
  const sim::CampaignResult hardware = sim::run_campaign(spec);

  EXPECT_GT(sequential.total_injections(), 0u);
  EXPECT_TRUE(sequential.matrix == two_jobs.matrix);
  EXPECT_TRUE(sequential.matrix == hardware.matrix);
}

TEST(Campaign, DerivedSeedsAreDistinctPerCell) {
  std::set<u64> seeds;
  for (usize v = 0; v < 5; ++v) {
    for (usize w = 0; w < 6; ++w) {
      for (usize r = 0; r < 12; ++r) {
        seeds.insert(sim::derive_cell_seed(0xFA17C0DE, v, w, r));
      }
    }
  }
  EXPECT_EQ(seeds.size(), 5u * 6u * 12u);
  // Stable across PRs: BENCH_fault.json comparability depends on it.
  EXPECT_EQ(sim::derive_cell_seed(0xFA17C0DE, 0, 0, 0),
            sim::derive_cell_seed(0xFA17C0DE, 0, 0, 0));
  EXPECT_NE(sim::derive_cell_seed(1, 0, 0, 0),
            sim::derive_cell_seed(2, 0, 0, 0));
}

TEST(Campaign, StandardVariantsMeetCoverageExpectations) {
  sim::CampaignSpec spec = tiny_campaign();
  const sim::CampaignResult result = sim::run_campaign(spec);
  ASSERT_EQ(result.spec.variants.size(), 5u);
  for (usize v = 0; v < result.spec.variants.size(); ++v) {
    const sim::CampaignVariant& variant = result.spec.variants[v];
    const sim::CampaignCell total = result.variant_total(v);
    EXPECT_GT(total.injected, 0u) << variant.label;
    EXPECT_EQ(total.duplicate_reports, 0u) << variant.label;
    if (variant.expect_full_coverage) {
      EXPECT_EQ(total.undetected, 0u) << variant.label;
    }
    if (variant.expect_zero_coverage) {
      EXPECT_EQ(total.detected, 0u) << variant.label;
    }
  }
}

TEST(Campaign, StrataSumToTotals) {
  const sim::CampaignResult result = sim::run_campaign(tiny_campaign());
  for (usize v = 0; v < result.spec.variants.size(); ++v) {
    const sim::CampaignCell total = result.variant_total(v);
    u64 class_injected = 0, class_detected = 0, class_undetected = 0;
    for (const sim::StratumCount& stratum : total.by_class) {
      class_injected += stratum.injected;
      class_detected += stratum.detected;
      class_undetected += stratum.undetected;
    }
    EXPECT_EQ(class_injected, total.injected);
    EXPECT_EQ(class_detected, total.detected);
    EXPECT_EQ(class_undetected, total.undetected);
    EXPECT_EQ(total.p_side.injected + total.r_side.injected, total.injected);
    EXPECT_EQ(total.p_side.detected + total.r_side.detected, total.detected);
  }
}

TEST(Campaign, ReportSerializesToValidJson) {
  const sim::CampaignResult result = sim::run_campaign(tiny_campaign());
  const std::string json = result.json();
  EXPECT_TRUE(json::parse_json(json).ok()) << json;
  EXPECT_NE(json.find("\"schema\": \"reese-fault-campaign-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"total_injections\""), std::string::npos);
  EXPECT_NE(json.find("\"wilson_lower\""), std::string::npos);
  EXPECT_NE(json.find("\"by_class\""), std::string::npos);

  const std::string path = testing::TempDir() + "/reese_fault_campaign.json";
  ASSERT_TRUE(sim::write_campaign_report(result, path));
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  std::string contents;
  char buffer[4096];
  usize n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(file);
  std::remove(path.c_str());
  EXPECT_EQ(contents, json);
}

// --- dynamic ACE-window measurement -------------------------------------------

TEST(Injector, AceWindowClosesOnRedefinitionAfterReads) {
  faults::InjectorConfig config;
  config.rate = 1.0;
  faults::Injector injector(config);
  const isa::Instruction def{isa::Opcode::kAdd, 5, 1, 2, 0};     // x5 = ...
  const isa::Instruction filler{isa::Opcode::kAdd, 7, 1, 2, 0};  // no x5
  const isa::Instruction use{isa::Opcode::kAdd, 6, 5, 1, 0};     // reads x5
  const isa::Instruction redefine{isa::Opcode::kAddi, 5, 0, 0, 0};

  injector.on_instruction(1, 0, 0x1000, def);       // stream pos 1
  injector.on_instruction(2, 1, 0x1004, filler);    // pos 2
  injector.on_instruction(3, 2, 0x1008, use);       // pos 3: reads x5
  injector.on_instruction(4, 3, 0x100c, redefine);  // pos 4: kills x5

  const std::vector<faults::FaultRecord>& records = injector.records();
  ASSERT_EQ(records.size(), 4u);
  // The faulted x5 value was read at pos 3, redefined at pos 4: ACE with a
  // live window of 3 − 1 = 2 instructions.
  EXPECT_TRUE(records[0].window_closed);
  EXPECT_TRUE(records[0].ace);
  EXPECT_EQ(records[0].live_window, 2u);
  EXPECT_EQ(records[0].pc, Addr{0x1000});

  // The filler's x7 and the use's x6 are never read; still open here.
  EXPECT_FALSE(records[1].window_closed);
  EXPECT_FALSE(records[2].window_closed);

  injector.finalize_windows();
  EXPECT_TRUE(records[1].window_closed);
  EXPECT_FALSE(records[1].ace);  // produced, never consumed: masked
  EXPECT_TRUE(records[2].window_closed);
  EXPECT_FALSE(records[2].ace);
  // finalize_windows is idempotent.
  injector.finalize_windows();
  EXPECT_EQ(records[0].live_window, 2u);
}

TEST(Injector, ImmediateConsumersAndSinksClassifyOnInjection) {
  faults::InjectorConfig config;
  config.rate = 1.0;
  faults::Injector injector(config);
  const isa::Instruction store{isa::Opcode::kSd, 0, 1, 2, 0};
  const isa::Instruction branch{isa::Opcode::kBeq, 0, 1, 2, 4};
  const isa::Instruction x0_write{isa::Opcode::kAddi, 0, 1, 0, 7};

  injector.on_instruction(1, 0, 0x1000, store);
  injector.on_instruction(2, 1, 0x1004, branch);
  injector.on_instruction(3, 2, 0x1008, x0_write);

  const std::vector<faults::FaultRecord>& records = injector.records();
  ASSERT_EQ(records.size(), 3u);
  // Stored data and branch outcomes are consumed by the instruction
  // itself: ACE, window 1, no tracking needed.
  EXPECT_TRUE(records[0].window_closed);
  EXPECT_TRUE(records[0].ace);
  EXPECT_EQ(records[0].live_window, 1u);
  EXPECT_TRUE(records[1].window_closed);
  EXPECT_TRUE(records[1].ace);
  // An x0 write is architecturally dropped: masked immediately.
  EXPECT_TRUE(records[2].window_closed);
  EXPECT_FALSE(records[2].ace);
  EXPECT_EQ(records[2].live_window, 0u);
}

// --- per-PC stratum ------------------------------------------------------------

sim::CampaignSpec program_campaign() {
  auto assembled = isa::assemble(R"(
  .text
main:
  li   t0, 40
loop:
  addi t0, t0, -1
  bnez t0, loop
  out  t0
  halt
)");
  EXPECT_TRUE(assembled.ok());
  sim::CampaignSpec spec;
  spec.programs.push_back({"tiny_loop", std::move(assembled).value()});
  spec.replicas = 4;
  spec.instructions = 5'000;
  spec.rate = 0.05;
  return spec;
}

TEST(Campaign, PcStrataSumToTotalsAndEveryOutcomeIsClassified) {
  const sim::CampaignResult result = sim::run_campaign(program_campaign());
  // The program axis replaces the workload axis and may stop on HALT.
  ASSERT_EQ(result.spec.workloads,
            (std::vector<std::string>{"tiny_loop"}));
  for (usize v = 0; v < result.spec.variants.size(); ++v) {
    const sim::CampaignCell total = result.variant_total(v);
    ASSERT_GT(total.injected, 0u) << result.spec.variants[v].label;
    u64 injected = 0, detected = 0, undetected = 0, outcomes = 0;
    for (const auto& [pc, stratum] : total.by_pc) {
      injected += stratum.injected;
      detected += stratum.detected;
      undetected += stratum.undetected;
      outcomes += stratum.ace + stratum.masked + stratum.window_pending;
      // Every PC is a real static instruction of the 6-instruction image.
      EXPECT_GE(pc, Addr{0x1000});
      EXPECT_LT(pc, Addr{0x1000 + 6 * 4});
    }
    EXPECT_EQ(injected, total.injected);
    EXPECT_EQ(detected, total.detected);
    EXPECT_EQ(undetected, total.undetected);
    // finalize_windows ran: every record has an ACE-or-masked verdict.
    EXPECT_EQ(outcomes, total.injected);
  }
  // The baseline variant measures real windows: the loop-carried addi is
  // read before redefinition, so ACE mass must show up somewhere.
  u64 window_sum = 0;
  for (const auto& [pc, stratum] : result.variant_total(3).by_pc) {
    window_sum += stratum.window_sum;
  }
  EXPECT_GT(window_sum, 0u);
}

TEST(Campaign, PcStrataAreBitIdenticalAcrossJobCounts) {
  sim::CampaignSpec spec = program_campaign();
  spec.jobs = 1;
  const sim::CampaignResult sequential = sim::run_campaign(spec);
  spec.jobs = 4;
  const sim::CampaignResult parallel = sim::run_campaign(spec);
  EXPECT_GT(sequential.total_injections(), 0u);
  // CampaignCell::operator== covers by_pc, so this compares the new
  // stratum byte for byte as well.
  EXPECT_TRUE(sequential.matrix == parallel.matrix);
  const sim::CampaignCell a = sequential.variant_total(0);
  const sim::CampaignCell b = parallel.variant_total(0);
  EXPECT_TRUE(a.by_pc == b.by_pc);
}

TEST(Campaign, QuickModeUsesOneReplicaAndReducedBudget) {
  sim::CampaignSpec spec = tiny_campaign();
  spec.quick = true;
  spec.instructions = 2'000;
  const sim::CampaignResult result = sim::run_campaign(spec);
  EXPECT_EQ(result.spec.replicas, 1u);
  for (const auto& variant_cells : result.matrix.cells) {
    for (const auto& replicas : variant_cells) {
      EXPECT_EQ(replicas.size(), 1u);
    }
  }
}

// --- component-targeted fault sites (DESIGN.md §16) ---------------------------

sim::CampaignSpec site_campaign(std::vector<core::FaultSite> sites) {
  sim::CampaignSpec spec = tiny_campaign();
  spec.sites = std::move(sites);
  return spec;
}

TEST(Campaign, SiteAxisExpandsToLabelResolvableVariants) {
  const sim::CampaignSpec resolved = sim::resolve_campaign_defaults(
      site_campaign({core::FaultSite::kRuu, core::FaultSite::kRQueue}));
  // (reese, baseline) x (ruu, rqueue), labels "base@site".
  ASSERT_EQ(resolved.variants.size(), 4u);
  EXPECT_EQ(resolved.variants[0].label, "reese@ruu");
  EXPECT_EQ(resolved.variants[1].label, "reese@rqueue");
  EXPECT_EQ(resolved.variants[2].label, "baseline@ruu");
  EXPECT_TRUE(resolved.sites.empty());
  for (const sim::CampaignVariant& variant : resolved.variants) {
    // The wire ships labels only: every expanded variant must reconstruct
    // from its label alone, identically.
    sim::CampaignVariant reconstructed;
    ASSERT_TRUE(sim::campaign_variant_by_label(variant.label, &reconstructed))
        << variant.label;
    EXPECT_EQ(reconstructed.site, variant.site);
    EXPECT_EQ(reconstructed.label, variant.label);
  }
  sim::CampaignVariant unused;
  EXPECT_FALSE(sim::campaign_variant_by_label("reese@nosuchsite", &unused));
  EXPECT_FALSE(sim::campaign_variant_by_label("nosuchbase@ruu", &unused));
  EXPECT_FALSE(sim::campaign_variant_by_label("franklin", &unused));
}

TEST(Campaign, SiteMatrixIsBitIdenticalAcrossJobCounts) {
  sim::CampaignSpec spec = site_campaign({core::FaultSite::kRuu,
                                          core::FaultSite::kRQueue,
                                          core::FaultSite::kDCache});
  spec.jobs = 1;
  const sim::CampaignResult sequential = sim::run_campaign(spec);
  spec.jobs = 2;
  const sim::CampaignResult two_jobs = sim::run_campaign(spec);
  spec.jobs = 0;  // auto: hardware concurrency (or $REESE_JOBS)
  const sim::CampaignResult hardware = sim::run_campaign(spec);

  EXPECT_GT(sequential.total_injections(), 0u);
  EXPECT_TRUE(sequential.matrix == two_jobs.matrix);
  EXPECT_TRUE(sequential.matrix == hardware.matrix);
}

TEST(Campaign, EveryComponentStrikeResolvesToExactlyOneOutcome) {
  // The conservation law behind the outcome lattice: masked + detected +
  // sdc == injected for every site, with nothing pending and nothing lost.
  // "go" is branch-heavy, so RUU strikes regularly land on entries that a
  // mispredict later squashes — those must come back as masked, not vanish.
  sim::CampaignSpec spec = site_campaign(
      {core::FaultSite::kRuu, core::FaultSite::kRQueue, core::FaultSite::kLsq,
       core::FaultSite::kPredictor, core::FaultSite::kBtb,
       core::FaultSite::kDCache, core::FaultSite::kDTlb});
  spec.workloads = {"go"};
  const sim::CampaignResult result = sim::run_campaign(spec);
  for (usize v = 0; v < result.spec.variants.size(); ++v) {
    const sim::CampaignVariant& variant = result.spec.variants[v];
    const sim::CampaignCell total = result.variant_total(v);
    EXPECT_GT(total.injected, 0u) << variant.label;
    EXPECT_EQ(total.masked + total.detected + total.sdc, total.injected)
        << variant.label;
    EXPECT_EQ(total.pending, 0u) << variant.label;
    EXPECT_EQ(total.undetected, total.sdc) << variant.label;
    if (variant.site == core::FaultSite::kRuu) {
      EXPECT_GT(total.masked, 0u) << variant.label;
    }
  }
}

TEST(Campaign, RQueueSelfFaultsLowerDetectionThanResultFlips) {
  // The §16 headline: strikes into the checker's own queue must show
  // measurably worse detection than the classic result-flip model, and
  // some of them must silently kill pending re-executions.
  sim::CampaignSpec spec = tiny_campaign();
  sim::CampaignVariant reference;
  sim::CampaignVariant rqueue;
  ASSERT_TRUE(sim::campaign_variant_by_label("reese@result", &reference));
  ASSERT_TRUE(sim::campaign_variant_by_label("reese@rqueue", &rqueue));
  spec.variants = {reference, rqueue};
  const sim::CampaignResult result = sim::run_campaign(spec);

  const sim::CampaignCell ref_total = result.variant_total(0);
  const sim::CampaignCell rq_total = result.variant_total(1);
  ASSERT_GT(ref_total.injected, 0u);
  ASSERT_GT(rq_total.injected, 0u);
  const double ref_detection =
      safe_ratio(ref_total.detected, ref_total.injected);
  const double rq_detection = safe_ratio(rq_total.detected, rq_total.injected);
  EXPECT_LT(rq_detection, ref_detection - 0.10);
  EXPECT_GT(rq_total.coverage_loss, 0u);
  EXPECT_EQ(ref_total.coverage_loss, 0u);
}

TEST(Campaign, PredictorAndBtbSitesAreArchitecturallyMasked) {
  const sim::CampaignResult result = sim::run_campaign(
      site_campaign({core::FaultSite::kPredictor, core::FaultSite::kBtb}));
  for (usize v = 0; v < result.spec.variants.size(); ++v) {
    const sim::CampaignCell total = result.variant_total(v);
    EXPECT_GT(total.injected, 0u) << result.spec.variants[v].label;
    EXPECT_EQ(total.detected, 0u) << result.spec.variants[v].label;
    EXPECT_EQ(total.sdc, 0u) << result.spec.variants[v].label;
    EXPECT_EQ(total.masked, total.injected) << result.spec.variants[v].label;
  }
}

TEST(Campaign, ComponentReportSerializesToValidJson) {
  const sim::CampaignResult result =
      sim::run_campaign(site_campaign({core::FaultSite::kRQueue}));
  const std::string json = result.json();
  EXPECT_TRUE(json::parse_json(json).ok()) << json;
  EXPECT_NE(json.find("\"label\": \"reese@rqueue\""), std::string::npos);
  EXPECT_NE(json.find("\"site\": \"rqueue\""), std::string::npos);
  EXPECT_NE(json.find("\"masked\""), std::string::npos);
  EXPECT_NE(json.find("\"sdc\""), std::string::npos);
  EXPECT_NE(json.find("\"coverage_loss\""), std::string::npos);
  const std::string csv = result.csv();
  EXPECT_NE(csv.find("masked,sdc,coverage_loss"), std::string::npos);
}

}  // namespace
}  // namespace reese
