// Cycle-exact fingerprints of the scheduler across window sizes.
//
// Each row runs one workload on the Figure 4 datapath (16-wide, IFQ 32,
// LSQ = RUU / 2) at one RUU size under one model for 20k committed
// instructions, and pins the cycle count, the commit and issue counters,
// and an FNV-1a hash of the serialized CoreStats. RUU sizes 65 and 200
// give the ready list a partial last word and a head that crosses word
// boundaries; the Franklin rows cover the re-arm at first completion.
//
// A mismatch prints the actual row in table syntax. An intended timing
// change is a reviewed edit of this table, stated in CHANGES.md.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/snapshot.h"
#include "common/strutil.h"
#include "core/pipeline.h"
#include "workloads/workload.h"

namespace reese {
namespace {

constexpr u64 kInstructions = 20'000;

enum Scheme : u8 { kBaseline, kReese, kFranklin };

const char* scheme_name(Scheme scheme) {
  switch (scheme) {
    case kBaseline: return "kBaseline";
    case kReese: return "kReese";
    case kFranklin: return "kFranklin";
  }
  return "?";
}

struct Row {
  const char* workload;
  u32 ruu;
  Scheme scheme;
  u64 cycles;
  u64 committed;
  u64 issued_p;
  u64 issued_r;
  u64 stats_hash;
};

core::CoreConfig row_config(u32 ruu, Scheme scheme) {
  core::CoreConfig config = core::starting_config();
  config.fetch_width = config.decode_width = 16;
  config.issue_width = config.commit_width = 16;
  config.ifq_size = 32;
  config.ruu_size = ruu;
  config.lsq_size = ruu / 2;
  if (scheme != kBaseline) config = core::with_reese(config);
  if (scheme == kFranklin) {
    config.reese.scheme = core::RedundancyScheme::kFranklin;
  }
  return config;
}

Row run_row(const Row& spec, const workloads::Workload& workload) {
  core::Pipeline pipeline(workload.program, row_config(spec.ruu, spec.scheme));
  pipeline.run(kInstructions, 64 * kInstructions);
  const core::CoreStats& stats = pipeline.stats();
  SnapshotWriter writer;
  stats.save(&writer);
  return Row{spec.workload,
             spec.ruu,
             spec.scheme,
             stats.cycles,
             stats.committed,
             stats.issued_p,
             stats.issued_r,
             snapshot_fnv1a(writer.bytes().data(), writer.bytes().size())};
}

std::string render(const Row& row) {
  return format("{\"%s\", %u, %s, %llu, %llu, %llu, %llu, 0x%016llx},",
                row.workload, row.ruu, scheme_name(row.scheme),
                static_cast<unsigned long long>(row.cycles),
                static_cast<unsigned long long>(row.committed),
                static_cast<unsigned long long>(row.issued_p),
                static_cast<unsigned long long>(row.issued_r),
                static_cast<unsigned long long>(row.stats_hash));
}

// gcc/li/go x RUU 16/64/65/128/200/256 x baseline/REESE/Franklin.
const Row kTable[] = {
    {"gcc", 16, kBaseline, 38452, 20001, 30069, 0, 0xfe9542eec558a75f},
    {"gcc", 16, kReese, 38286, 20001, 29851, 20004, 0x02e7194ed693ed68},
    {"gcc", 16, kFranklin, 40798, 20004, 28226, 25821, 0x30542f36a47b9934},
    {"gcc", 64, kBaseline, 27755, 20001, 46882, 0, 0xb762a5062841e0ac},
    {"gcc", 64, kReese, 28591, 20001, 47218, 20003, 0x615bda0bcd865f3e},
    {"gcc", 64, kFranklin, 31382, 20001, 41543, 37275, 0xa5649701dfce72af},
    {"gcc", 65, kBaseline, 27793, 20001, 47383, 0, 0xb6b1632c924f7f92},
    {"gcc", 65, kReese, 28785, 20001, 47301, 20003, 0x81aede8ce3fb886d},
    {"gcc", 65, kFranklin, 31404, 20001, 41630, 37337, 0x7bb4d1c9061cc19c},
    {"gcc", 128, kBaseline, 26151, 20001, 56685, 0, 0x7c0e5787b3817751},
    {"gcc", 128, kReese, 27041, 20001, 56916, 20003, 0x1c97e575525a8448},
    {"gcc", 128, kFranklin, 29976, 20004, 48975, 44600, 0x1dca0e4923ba0b03},
    {"gcc", 200, kBaseline, 26103, 20001, 64160, 0, 0x3a5ae6f0f9fb3e41},
    {"gcc", 200, kReese, 26954, 20001, 64708, 20004, 0x2f663e71d88377ac},
    {"gcc", 200, kFranklin, 29383, 20001, 52741, 48103, 0x9aefd2f6860b5121},
    {"gcc", 256, kBaseline, 25630, 20001, 68394, 0, 0xea2349acd80b4d15},
    {"gcc", 256, kReese, 26932, 20001, 69993, 20003, 0x33fb09cbe86d9efa},
    {"gcc", 256, kFranklin, 29204, 20001, 52573, 47938, 0xc56f28978fb3ec09},
    {"li", 16, kBaseline, 8466, 20001, 20440, 0, 0x23e102ed4a3a7b49},
    {"li", 16, kReese, 12077, 20001, 20403, 20004, 0xe5e4e6876942aa19},
    {"li", 16, kFranklin, 12021, 20002, 20192, 20099, 0x765fbfdee74ba6c5},
    {"li", 64, kBaseline, 7607, 20001, 20648, 0, 0xea2ee9e5bd72ff29},
    {"li", 64, kReese, 12023, 20002, 20805, 20005, 0xb4d330e3d42f7e57},
    {"li", 64, kFranklin, 11933, 20002, 20311, 20200, 0x4fc6a5c2d4dd6977},
    {"li", 65, kBaseline, 7607, 20001, 20658, 0, 0x619848d7a9c6aa55},
    {"li", 65, kReese, 12081, 20003, 20924, 20005, 0xcb51d3d4eda70b55},
    {"li", 65, kFranklin, 11933, 20002, 20311, 20200, 0xf33be0e2ca94e059},
    {"li", 128, kBaseline, 7607, 20001, 20888, 0, 0x54b917a2665b2b06},
    {"li", 128, kReese, 12121, 20003, 21198, 20005, 0x7d4fb74861398cb6},
    {"li", 128, kFranklin, 11933, 20002, 20431, 20320, 0x26b3e14b05dec158},
    {"li", 200, kBaseline, 7607, 20001, 21148, 0, 0xb041bf632567e03d},
    {"li", 200, kReese, 12156, 20003, 21459, 20005, 0x7e256bb73cb0a89f},
    {"li", 200, kFranklin, 11933, 20002, 20581, 20470, 0xa34e06015bcd12d2},
    {"li", 256, kBaseline, 7607, 20001, 21348, 0, 0x68469c5ecef5db96},
    {"li", 256, kReese, 12188, 20003, 21669, 20005, 0x2256ac5635825191},
    {"li", 256, kFranklin, 11933, 20002, 20691, 20580, 0xffb2be82ba4b2703},
    {"go", 16, kBaseline, 18203, 20000, 30212, 0, 0x94b2e8d44ffbdce8},
    {"go", 16, kReese, 19173, 20000, 29993, 20002, 0xf839306da1853ce4},
    {"go", 16, kFranklin, 21853, 20000, 25617, 23100, 0x30509ce3b5dd0900},
    {"go", 64, kBaseline, 17376, 20000, 35989, 0, 0x02418d2e0cee9e7a},
    {"go", 64, kReese, 19179, 20002, 35358, 20008, 0x39bc876159eec87a},
    {"go", 64, kFranklin, 21851, 20000, 26027, 23316, 0x5d7c578ca0f46146},
    {"go", 65, kBaseline, 17376, 20000, 35993, 0, 0x1f656af96dbb494e},
    {"go", 65, kReese, 19179, 20002, 35362, 20008, 0x5e18f10ab5fb0f31},
    {"go", 65, kFranklin, 21850, 20000, 26030, 23319, 0xa7953f7b9e0af92b},
    {"go", 128, kBaseline, 17376, 20000, 36192, 0, 0x01c7295c93e0de76},
    {"go", 128, kReese, 19179, 20002, 35560, 20008, 0xa90ca1843dd097a1},
    {"go", 128, kFranklin, 21844, 20000, 26197, 23481, 0x51886b9aba5da5ef},
    {"go", 200, kBaseline, 17376, 20000, 36408, 0, 0x89b59a76aab32ac3},
    {"go", 200, kReese, 19179, 20002, 35776, 20008, 0x73fc4fdcd3331d30},
    {"go", 200, kFranklin, 21844, 20000, 26197, 23481, 0xde5b0788c924fba3},
    {"go", 256, kBaseline, 17376, 20000, 36576, 0, 0x8690232924cf3a54},
    {"go", 256, kReese, 19179, 20002, 35944, 20008, 0xde527af9442f5dbf},
    {"go", 256, kFranklin, 21844, 20000, 26197, 23481, 0xc169eb70cd6624b1},
};

TEST(WindowFingerprint, EveryRowMatches) {
  std::map<std::string, workloads::Workload> images;
  for (const Row& expected : kTable) {
    auto it = images.find(expected.workload);
    if (it == images.end()) {
      auto made = workloads::make_workload(expected.workload);
      ASSERT_TRUE(made.ok()) << expected.workload;
      it = images.emplace(expected.workload, std::move(made).value()).first;
    }
    // A row's rendering holds every pinned field, so a mismatch prints the
    // actual row ready to paste into the table.
    EXPECT_EQ(render(run_row(expected, it->second)), render(expected));
  }
}

}  // namespace
}  // namespace reese
