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
    {"gcc", 16, kBaseline, 38452, 20001, 30069, 0, 0x0defc59df9363f73},
    {"gcc", 16, kReese, 38286, 20001, 29851, 20004, 0x0b4d0b5351d79444},
    {"gcc", 16, kFranklin, 40798, 20004, 28226, 25821, 0xa3ab725c5ed37fa0},
    {"gcc", 64, kBaseline, 27755, 20001, 46882, 0, 0xfd797d842d97fc40},
    {"gcc", 64, kReese, 28591, 20001, 47218, 20003, 0xa33c19385a58b3aa},
    {"gcc", 64, kFranklin, 31382, 20001, 41543, 37275, 0xf7c490d4cb87c403},
    {"gcc", 65, kBaseline, 27793, 20001, 47383, 0, 0xc7369c54d704a7a6},
    {"gcc", 65, kReese, 28785, 20001, 47301, 20003, 0x165fcd8e6f0fb711},
    {"gcc", 65, kFranklin, 31404, 20001, 41630, 37337, 0x9e6f94b0d8edaa10},
    {"gcc", 128, kBaseline, 26151, 20001, 56685, 0, 0x793abd64c27c54a5},
    {"gcc", 128, kReese, 27041, 20001, 56916, 20003, 0xcfffa873ffcba124},
    {"gcc", 128, kFranklin, 29976, 20004, 48975, 44600, 0xf788794a11b00817},
    {"gcc", 200, kBaseline, 26103, 20001, 64160, 0, 0x6eedd0f4f3f94585},
    {"gcc", 200, kReese, 26954, 20001, 64708, 20004, 0xdecfd66dca391038},
    {"gcc", 200, kFranklin, 29383, 20001, 52741, 48103, 0xcfab4c16fdaf5345},
    {"gcc", 256, kBaseline, 25630, 20001, 68394, 0, 0x016e857ed3214a29},
    {"gcc", 256, kReese, 26932, 20001, 69993, 20003, 0xa6eb0f4315a9cf56},
    {"gcc", 256, kFranklin, 29204, 20001, 52573, 47938, 0x52199cf746a29ee5},
    {"li", 16, kBaseline, 8466, 20001, 20440, 0, 0x2e9884a934652d65},
    {"li", 16, kReese, 12077, 20001, 20403, 20004, 0xa5c57b2f34f04ad5},
    {"li", 16, kFranklin, 12021, 20002, 20192, 20099, 0xd31e08691cec2839},
    {"li", 64, kBaseline, 7607, 20001, 20648, 0, 0x2098f30bdf83483d},
    {"li", 64, kReese, 12023, 20002, 20805, 20005, 0xe354b94af3933d53},
    {"li", 64, kFranklin, 11933, 20002, 20311, 20200, 0xf2548e01b81c36d3},
    {"li", 65, kBaseline, 7607, 20001, 20658, 0, 0xd742fea5b3dc2341},
    {"li", 65, kReese, 12081, 20003, 20924, 20005, 0xa7c28d884d79a651},
    {"li", 65, kFranklin, 11933, 20002, 20311, 20200, 0x6b8976c033624465},
    {"li", 128, kBaseline, 7607, 20001, 20888, 0, 0x6a97c454ca334902},
    {"li", 128, kReese, 12121, 20003, 21198, 20005, 0x399eaf9e2ce3f3b2},
    {"li", 128, kFranklin, 11933, 20002, 20431, 20320, 0xf516aabc386aa13c},
    {"li", 200, kBaseline, 7607, 20001, 21148, 0, 0xe734900dd78d2f11},
    {"li", 200, kReese, 12156, 20003, 21459, 20005, 0xdfd31adf0353cfab},
    {"li", 200, kFranklin, 11933, 20002, 20581, 20470, 0x3760e72ae46dfe96},
    {"li", 256, kBaseline, 7607, 20001, 21348, 0, 0x971232ce5d754d92},
    {"li", 256, kReese, 12188, 20003, 21669, 20005, 0x49bedf3e9c013fe5},
    {"li", 256, kFranklin, 11933, 20002, 20691, 20580, 0x94be75793c62c51f},
    {"go", 16, kBaseline, 18203, 20000, 30212, 0, 0x1845b28e11259bcc},
    {"go", 16, kReese, 19173, 20000, 29993, 20002, 0x80b75087d61d0728},
    {"go", 16, kFranklin, 21853, 20000, 25617, 23100, 0x07e0ad9777dd505c},
    {"go", 64, kBaseline, 17376, 20000, 35989, 0, 0x45d30b9e215acc8e},
    {"go", 64, kReese, 19179, 20002, 35358, 20008, 0x3877ddd7a643ffa6},
    {"go", 64, kFranklin, 21851, 20000, 26027, 23316, 0x164d2a8767a9c2b2},
    {"go", 65, kBaseline, 17376, 20000, 35993, 0, 0x6709840a5854a0d2},
    {"go", 65, kReese, 19179, 20002, 35362, 20008, 0x5f8383790fb3dce5},
    {"go", 65, kFranklin, 21850, 20000, 26030, 23319, 0x41b352da99b9436f},
    {"go", 128, kBaseline, 17376, 20000, 36192, 0, 0x4f4a39a477da255a},
    {"go", 128, kReese, 19179, 20002, 35560, 20008, 0x7714780fc9717f6d},
    {"go", 128, kFranklin, 21844, 20000, 26197, 23481, 0xc3223f89d148f183},
    {"go", 200, kBaseline, 17376, 20000, 36408, 0, 0x674998efa0bb7c2f},
    {"go", 200, kReese, 19179, 20002, 35776, 20008, 0x39f17ef6c723cdac},
    {"go", 200, kFranklin, 21844, 20000, 26197, 23481, 0x88f85986c391ecb7},
    {"go", 256, kBaseline, 17376, 20000, 36576, 0, 0x8fc15e5dd4420380},
    {"go", 256, kReese, 19179, 20002, 35944, 20008, 0xbf2fd3083434d113},
    {"go", 256, kFranklin, 21844, 20000, 26197, 23481, 0x790369b850dead35},
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
