// Campaign-byte fingerprints: every standard and component campaign
// variant, pinned across commits.
//
// Each row runs one variant on gcc for 2 seed replicas at 20k instructions
// per cell, single-threaded. It pins the injected, detected, undetected,
// masked, SDC and coverage-loss counts summed over the replicas, plus an
// FNV-1a of each cell's checkpoint-record bytes (put_campaign_cell), which
// cover every field of the cell down to the per-PC strata. The five
// standard rows use the fault_coverage defaults (seed 0xFA17C0DE, rate
// 5e-3); the twelve site rows use component_avf's labels, seed 0xCAFC0DE5
// and rate 5e-3.
//
// Five more rows pin fault paths no bench variant reaches: Franklin's
// comparator under P-, R- and either-side flips (seed 0xFA17C0DE), RUU
// strikes on REESE with early release off, whose released entries keep
// their slot, and R-queue strikes on 1-of-2 REESE, whose skipped slots
// commit a struck stored result unchecked (seed 0xCAFC0DE5; the 1-of-2
// row comes first so its cells draw SDC outcomes). Two rows at the same
// seed pin Franklin under D-cache and D-TLB strikes: a duplicate load
// resolves the poison it reads itself, under its own PC, and as masked
// when the duplicate is on the wrong path.
//
// A mismatch prints the actual row in table syntax. An intended change to
// campaign bytes is a reviewed edit of this table, stated in CHANGES.md.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "common/snapshot.h"
#include "common/strutil.h"
#include "sim/campaign.h"

namespace reese {
namespace {

constexpr u32 kReplicas = 2;

struct Row {
  std::string label;
  u64 injected;
  u64 detected;
  u64 undetected;
  u64 masked;
  u64 sdc;
  u64 coverage_loss;
  u64 cell_hash[kReplicas];
};

// Five standard variants, then component_avf's twelve site variants.
const Row kTable[] = {
    {"reese_p_flips", 198, 198, 0, 0, 0, 0, {0x31d7bc73b24711da, 0x25d335bbe348e438}},
    {"reese_r_flips", 216, 216, 0, 0, 0, 0, {0x6fe760b447c9bd5b, 0xa31af0f0add07698}},
    {"reese_either", 181, 181, 0, 0, 0, 0, {0x7061ed0fead05ecc, 0x9da4f73de05c3631}},
    {"baseline", 213, 0, 213, 30, 183, 0, {0xfe1e1e97daacf163, 0x249dc6f440457508}},
    {"reese_1of2", 218, 114, 104, 9, 95, 0, {0xe46d8ec8c0ef79a5, 0x7659d528132690d6}},
    {"reese@result", 192, 192, 0, 0, 0, 0, {0x1a23ec0a5901ad87, 0x265ade3ce7e5aaf1}},
    {"reese@ruu", 385, 99, 76, 210, 76, 0, {0x1e7d7981fd5896a0, 0xb1f374240369aab9}},
    {"reese@rqueue", 383, 14, 4, 365, 4, 6, {0x56890e75f0521781, 0xada408a0990fcc8b}},
    {"reese@lsq", 400, 183, 0, 217, 0, 0, {0xbea1620228b75183, 0xa081d922e2c0c309}},
    {"reese@predictor", 413, 0, 0, 413, 0, 0, {0xe4ba6450a34ad930, 0xd44aec210370802b}},
    {"reese@btb", 395, 0, 0, 395, 0, 0, {0x40b66cd0af8597b6, 0x68e54e3d67dbd044}},
    {"reese@dcache", 376, 0, 138, 238, 138, 0, {0x6cf5d47147ad0b90, 0x3d832969bf3f61ae}},
    {"reese@dtlb", 398, 0, 16, 382, 16, 0, {0x356ba612693aa244, 0xbd0a4d0a55cce6bf}},
    {"baseline@ruu", 404, 0, 159, 245, 159, 0, {0x437a7305af16a22e, 0xcd1444b92a1a8ca5}},
    {"baseline@lsq", 416, 0, 167, 249, 167, 0, {0x0afc6f51d7643cc7, 0x49c6dbc41c69177a}},
    {"baseline@dcache", 363, 0, 110, 253, 110, 0, {0x329c034489b91159, 0x981cceea4872f623}},
    {"baseline@dtlb", 352, 0, 12, 340, 12, 0, {0xcd2f9c34685c251c, 0xcf0b1013dbf041e3}},
    {"franklin_p_flips", 198, 198, 0, 0, 0, 0, {0x647ac13180f96900, 0xef32cef3f3722c1b}},
    {"franklin_r_flips", 216, 216, 0, 0, 0, 0, {0x7a7a10fc3a88c7b0, 0x9e11fd844b0c81fc}},
    {"franklin_either", 181, 181, 0, 0, 0, 0, {0x5795591c0f9967e8, 0x2bd2384cf24a8e4f}},
    {"reese_1of2@rqueue", 362, 3, 4, 355, 4, 1, {0x65c72df049b56bd9, 0x6c22e77a67cd892e}},
    {"reese_no_early_release@ruu", 391, 82, 66, 243, 66, 0, {0xd01a4dc4cc13dd2f, 0x7be6657e91f01b55}},
    {"franklin@dcache", 401, 0, 148, 253, 148, 0, {0x72deda37749d4cd6, 0x739e9f11907c976e}},
    {"franklin@dtlb", 386, 0, 13, 373, 13, 0, {0xdc50fe7a068d0265, 0x6de3d87855f3ebea}},
};

sim::CampaignSpec row_spec(u64 seed) {
  sim::CampaignSpec spec;
  spec.workloads = {"gcc"};
  spec.replicas = kReplicas;
  spec.instructions = 20'000;
  spec.rate = 5e-3;
  spec.seed = seed;
  spec.jobs = 1;
  return spec;
}

/// One row per variant of `result`, in variant order.
void append_rows(const sim::CampaignResult& result, std::vector<Row>* rows) {
  for (usize v = 0; v < result.spec.variants.size(); ++v) {
    const sim::CampaignCell total = result.variant_total(v);
    Row row{result.spec.variants[v].label,
            total.injected,
            total.detected,
            total.undetected,
            total.masked,
            total.sdc,
            total.coverage_loss,
            {}};
    for (u32 r = 0; r < kReplicas; ++r) {
      SnapshotWriter writer;
      sim::put_campaign_cell(&writer, result.matrix.cells[v][0][r]);
      row.cell_hash[r] =
          snapshot_fnv1a(writer.bytes().data(), writer.bytes().size());
    }
    rows->push_back(row);
  }
}

std::string render(const Row& row) {
  return format("{\"%s\", %llu, %llu, %llu, %llu, %llu, %llu, "
                "{0x%016llx, 0x%016llx}},",
                row.label.c_str(),
                static_cast<unsigned long long>(row.injected),
                static_cast<unsigned long long>(row.detected),
                static_cast<unsigned long long>(row.undetected),
                static_cast<unsigned long long>(row.masked),
                static_cast<unsigned long long>(row.sdc),
                static_cast<unsigned long long>(row.coverage_loss),
                static_cast<unsigned long long>(row.cell_hash[0]),
                static_cast<unsigned long long>(row.cell_hash[1]));
}

TEST(CampaignFingerprint, EveryRowMatches) {
  std::vector<Row> rows;

  sim::CampaignSpec standard = row_spec(0xFA17C0DE);
  standard.variants = sim::standard_campaign_variants();
  append_rows(sim::run_campaign(standard), &rows);

  sim::CampaignSpec sites = row_spec(0xCAFC0DE5);
  for (const char* label :
       {"reese@result", "reese@ruu", "reese@rqueue", "reese@lsq",
        "reese@predictor", "reese@btb", "reese@dcache", "reese@dtlb",
        "baseline@ruu", "baseline@lsq", "baseline@dcache", "baseline@dtlb"}) {
    sim::CampaignVariant variant;
    ASSERT_TRUE(sim::campaign_variant_by_label(label, &variant)) << label;
    sites.variants.push_back(std::move(variant));
  }
  append_rows(sim::run_campaign(sites), &rows);

  const core::CoreConfig reese = core::with_reese(core::starting_config());
  sim::CampaignSpec franklin = row_spec(0xFA17C0DE);
  core::CoreConfig franklin_config = reese;
  franklin_config.reese.scheme = core::RedundancyScheme::kFranklin;
  franklin.variants = {
      {"franklin_p_flips", franklin_config, faults::FaultTarget::kPResult},
      {"franklin_r_flips", franklin_config, faults::FaultTarget::kRResult},
      {"franklin_either", franklin_config, faults::FaultTarget::kEither}};
  append_rows(sim::run_campaign(franklin), &rows);

  sim::CampaignSpec strikes = row_spec(0xCAFC0DE5);
  sim::CampaignVariant held{"reese_no_early_release@ruu", reese};
  held.config.reese.early_release = false;
  held.site = core::FaultSite::kRuu;
  sim::CampaignVariant partial;
  ASSERT_TRUE(sim::campaign_variant_by_label("reese_1of2", &partial));
  partial.label = "reese_1of2@rqueue";
  partial.site = core::FaultSite::kRQueue;
  sim::CampaignVariant dcache{"franklin@dcache", franklin_config};
  dcache.site = core::FaultSite::kDCache;
  sim::CampaignVariant dtlb{"franklin@dtlb", franklin_config};
  dtlb.site = core::FaultSite::kDTlb;
  strikes.variants = {partial, held, dcache, dtlb};
  append_rows(sim::run_campaign(strikes), &rows);

  // A row's rendering holds every pinned field, so a mismatch prints the
  // actual row ready to paste into the table.
  ASSERT_EQ(rows.size(), std::size(kTable));
  for (usize i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(render(rows[i]), render(kTable[i]));
  }
}

}  // namespace
}  // namespace reese
