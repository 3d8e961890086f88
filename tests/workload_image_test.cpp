// Byte-exact fingerprints of every registered workload image.
//
// Each row builds one workload at one seed and iteration count and pins
// its text length, its data length, and an FNV-1a hash over the encoded
// words, the data image, every symbol (name and address), the code and
// data bases and the entry point. A change to a generator or to the way
// an image is put together that moves a single byte fails its row.
//
// A mismatch prints the actual row in table syntax. An intended image
// change is a reviewed edit of this table, stated in CHANGES.md.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/snapshot.h"
#include "common/strutil.h"
#include "workloads/builder.h"
#include "workloads/workload.h"

namespace reese {
namespace {

struct Row {
  std::string workload;
  u64 seed;
  u64 iterations;
  usize words;
  usize data_bytes;
  u64 image_hash;
};

u64 image_hash(const isa::Program& program) {
  SnapshotWriter writer;
  writer.field(program.words.size());
  for (const u32 word : program.words) writer.field(word);
  writer.field(program.data.size());
  writer.put_bytes(program.data.data(), program.data.size());
  writer.field(program.symbols.size());
  for (const auto& [name, address] : program.symbols) {
    writer.put_string(name);
    writer.field(address);
  }
  writer.field(program.code_base);
  writer.field(program.data_base);
  writer.field(program.entry);
  return snapshot_fnv1a(writer.bytes().data(), writer.bytes().size());
}

std::string render(const Row& row) {
  return format("{\"%s\", 0x%llx, %llu, %zu, %zu, 0x%016llx},",
                row.workload.c_str(), static_cast<unsigned long long>(row.seed),
                static_cast<unsigned long long>(row.iterations), row.words,
                row.data_bytes, static_cast<unsigned long long>(row.image_hash));
}

// Every registered workload x seed {0x5EED5EED, 1} x iterations {0, 8}.
const Row kTable[] = {
    {"branch_torture", 0x5eed5eed, 0, 21, 4096, 0x8b6fa851cf4dd04d},
    {"branch_torture", 0x5eed5eed, 8, 24, 4096, 0xd70caeedb44f70e4},
    {"branch_torture", 0x1, 0, 21, 4096, 0xa4f77d662d289f0a},
    {"branch_torture", 0x1, 8, 24, 4096, 0x911837421c2d1cef},
    {"compress", 0x5eed5eed, 0, 36, 5120, 0x779f82db8f974bfd},
    {"compress", 0x5eed5eed, 8, 39, 5120, 0xbe7198d2f4fbf722},
    {"compress", 0x1, 0, 36, 5120, 0xb3c44da6dbb1f38c},
    {"compress", 0x1, 8, 39, 5120, 0x1517af6497fe100f},
    {"dep_chain", 0x5eed5eed, 0, 15, 0, 0xd4bdd38182739d26},
    {"dep_chain", 0x5eed5eed, 8, 18, 0, 0x26b443aec472fb15},
    {"dep_chain", 0x1, 0, 15, 0, 0xd4bdd38182739d26},
    {"dep_chain", 0x1, 8, 18, 0, 0x26b443aec472fb15},
    {"div_heavy", 0x5eed5eed, 0, 27, 0, 0x941928fea344772a},
    {"div_heavy", 0x5eed5eed, 8, 30, 0, 0xe9a13f300559aeab},
    {"div_heavy", 0x1, 0, 27, 0, 0x941928fea344772a},
    {"div_heavy", 0x1, 8, 30, 0, 0xe9a13f300559aeab},
    {"fp_daxpy", 0x5eed5eed, 0, 26, 8192, 0xc690f98408292b66},
    {"fp_daxpy", 0x5eed5eed, 8, 29, 8192, 0xea00f56c94141dfd},
    {"fp_daxpy", 0x1, 0, 26, 8192, 0xbc5c9ce9a8a2b0b8},
    {"fp_daxpy", 0x1, 8, 29, 8192, 0xf060dadde1125957},
    {"gcc", 0x5eed5eed, 0, 62, 24728, 0x9cc403301694232c},
    {"gcc", 0x5eed5eed, 8, 65, 24728, 0xb50d9f0fb933eb3d},
    {"gcc", 0x1, 0, 62, 24768, 0xfa3b67b1fb8f869e},
    {"gcc", 0x1, 8, 65, 24768, 0x855d9c35a5be4a77},
    {"go", 0x5eed5eed, 0, 62, 1024, 0xa37b0af3d20fc68e},
    {"go", 0x5eed5eed, 8, 65, 1024, 0x3bcc8ef9b0837e09},
    {"go", 0x1, 0, 62, 1024, 0x63a7fc446582475d},
    {"go", 0x1, 8, 65, 1024, 0xdb203cd14c7e6d42},
    {"ijpeg", 0x5eed5eed, 0, 75, 4224, 0x615bafa14abaaac3},
    {"ijpeg", 0x5eed5eed, 8, 78, 4224, 0xfe4488e5ee900dac},
    {"ijpeg", 0x1, 0, 75, 4224, 0x5a670155e5fb5d11},
    {"ijpeg", 0x1, 8, 78, 4224, 0xe22086bc1f7e9d1e},
    {"ilp_chain", 0x5eed5eed, 0, 34, 0, 0x1e5917187ad12734},
    {"ilp_chain", 0x5eed5eed, 8, 37, 0, 0x1769836b8bb5778d},
    {"ilp_chain", 0x1, 0, 34, 0, 0x1e5917187ad12734},
    {"ilp_chain", 0x1, 8, 37, 0, 0x1769836b8bb5778d},
    {"li", 0x5eed5eed, 0, 62, 32776, 0x5c5ddb771471fa08},
    {"li", 0x5eed5eed, 8, 65, 32776, 0xc4693879ef244c81},
    {"li", 0x1, 0, 62, 32776, 0x5c5ddb771471fa08},
    {"li", 0x1, 8, 65, 32776, 0xc4693879ef244c81},
    {"m88ksim", 0x5eed5eed, 0, 65, 880, 0x50d95f241507f5ef},
    {"m88ksim", 0x5eed5eed, 8, 68, 880, 0xafdde4cbcbd231ba},
    {"m88ksim", 0x1, 0, 65, 880, 0x5eb274a3f006d52b},
    {"m88ksim", 0x1, 8, 68, 880, 0x0c153ba83543e8e6},
    {"mem_stream", 0x5eed5eed, 0, 25, 262144, 0x6684648df92472b4},
    {"mem_stream", 0x5eed5eed, 8, 28, 262144, 0x3d0e7e4cbcb7b879},
    {"mem_stream", 0x1, 0, 25, 262144, 0x6684648df92472b4},
    {"mem_stream", 0x1, 8, 28, 262144, 0x3d0e7e4cbcb7b879},
    {"perl", 0x5eed5eed, 0, 53, 10240, 0xb237989e9ef2a07b},
    {"perl", 0x5eed5eed, 8, 56, 10240, 0x1f5ba12f5cc41e6e},
    {"perl", 0x1, 0, 53, 10240, 0xf9cbbe7fb12ab467},
    {"perl", 0x1, 8, 56, 10240, 0x615c8d8794ffbdb2},
    {"pointer_chase", 0x5eed5eed, 0, 14, 65536, 0x82a51203555d41da},
    {"pointer_chase", 0x5eed5eed, 8, 17, 65536, 0xe3d45cc8a237a0c9},
    {"pointer_chase", 0x1, 0, 14, 65536, 0xed46041415c8684a},
    {"pointer_chase", 0x1, 8, 17, 65536, 0x3507dd92a53a8e69},
    {"swim", 0x5eed5eed, 0, 57, 16384, 0x53e1a739f5842baf},
    {"swim", 0x5eed5eed, 8, 60, 16384, 0x2aeb35c702b8892c},
    {"swim", 0x1, 0, 57, 16384, 0xae2a6ca18f6db83c},
    {"swim", 0x1, 8, 60, 16384, 0x36f8a8348baa83e7},
    {"tomcatv", 0x5eed5eed, 0, 39, 8192, 0xea4864200301a953},
    {"tomcatv", 0x5eed5eed, 8, 42, 8192, 0xbeb1a026501f6c46},
    {"tomcatv", 0x1, 0, 39, 8192, 0x90a32a8bff9a56a1},
    {"tomcatv", 0x1, 8, 42, 8192, 0x7b07e4f3b06a1528},
    {"vortex", 0x5eed5eed, 0, 73, 24640, 0x30cc7acdb312b0d0},
    {"vortex", 0x5eed5eed, 8, 76, 24640, 0x6d39b9b20ee156c7},
    {"vortex", 0x1, 0, 73, 24640, 0x30cc7acdb312b0d0},
    {"vortex", 0x1, 8, 76, 24640, 0x6d39b9b20ee156c7},
};

TEST(WorkloadImage, EveryRowMatches) {
  std::vector<Row> rows;
  for (const std::string& name : workloads::all_workload_names()) {
    for (const u64 seed : {u64{0x5EED5EED}, u64{1}}) {
      for (const u64 iterations : {u64{0}, u64{8}}) {
        workloads::WorkloadOptions options;
        options.seed = seed;
        options.iterations = iterations;
        auto made = workloads::make_workload(name, options);
        ASSERT_TRUE(made.ok()) << name;
        const isa::Program& program = made.value().program;
        rows.push_back(Row{name, seed, iterations, program.words.size(),
                           program.data.size(), image_hash(program)});
      }
    }
  }
  // A row's rendering holds every pinned field, so a mismatch prints the
  // actual row ready to paste into the table.
  ASSERT_EQ(rows.size(), std::size(kTable));
  for (usize i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(render(rows[i]), render(kTable[i]));
  }
}

TEST(WorkloadImage, TablesLandAtTheirLabels) {
  workloads::DataTables tables;
  std::string source = "main:\n  halt\n  .data\n";
  source += tables.byte_table("bytes", std::vector<u8>{1, 2, 3});
  source += tables.dword_table("words", std::vector<u64>{0x1122334455667788});
  const isa::Program program =
      workloads::assemble_or_die(source, "tables", tables);
  EXPECT_EQ(program.symbol("bytes"), program.data_base);
  EXPECT_EQ(program.symbol("words"), program.data_base + 8);
  EXPECT_EQ(program.data, (std::vector<u8>{1, 2, 3, 0, 0, 0, 0, 0, 0x88, 0x77,
                                           0x66, 0x55, 0x44, 0x33, 0x22,
                                           0x11}));
}

TEST(WorkloadImageDeathTest, TableWithoutReservationAborts) {
  workloads::DataTables tables;
  tables.byte_table("bits", std::vector<u8>{1});
  EXPECT_DEATH(workloads::assemble_or_die("main:\n  halt\n", "nolabel", tables),
               "workload 'nolabel' has no reservation for table 'bits'");
}

}  // namespace
}  // namespace reese
