// Assembler tests: syntax, directives, pseudo-instruction expansion
// (including the li constant-materialization property test), label
// resolution and error reporting.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitutil.h"
#include "common/diag.h"
#include "common/rng.h"
#include "isa/assembler.h"
#include "isa/encoding.h"
#include "isa/iss.h"
#include "workloads/fuzz.h"

namespace reese::isa {
namespace {

Program ok(const std::string& source) {
  auto result = assemble(source);
  EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.error().to_string());
  return result.ok() ? std::move(result).value() : Program{};
}

std::string err(const std::string& source) {
  auto result = assemble(source);
  EXPECT_FALSE(result.ok()) << "expected assembly failure";
  return result.ok() ? "" : result.error().to_string();
}

TEST(Assembler, EmptyProgram) {
  const Program p = ok("");
  EXPECT_TRUE(p.code.empty());
  EXPECT_EQ(p.entry, kDefaultCodeBase);
}

TEST(Assembler, SingleInstruction) {
  const Program p = ok("add t0, t1, t2\n");
  ASSERT_EQ(p.code.size(), 1u);
  EXPECT_EQ(p.code[0].op, Opcode::kAdd);
  EXPECT_EQ(p.code[0].rd, 5);
  EXPECT_EQ(p.words.size(), 1u);
}

TEST(Assembler, CommentsEverywhere) {
  const Program p = ok(R"(
# full line comment
add t0, t1, t2   # trailing
// slashes too
sub t0, t1, t2   ; semicolon
)");
  EXPECT_EQ(p.code.size(), 2u);
}

TEST(Assembler, EntryIsMainIfPresent) {
  const Program p = ok(R"(
helper:
  nop
main:
  halt
)");
  EXPECT_EQ(p.entry, kDefaultCodeBase + 4);
}

TEST(Assembler, LabelsAndBranches) {
  const Program p = ok(R"(
start:
  addi t0, zero, 3
loop:
  addi t0, t0, -1
  bnez t0, loop
  j start
  halt
)");
  // bnez expands to bne with offset -1 instruction.
  const Instruction& bne = p.code[2];
  EXPECT_EQ(bne.op, Opcode::kBne);
  EXPECT_EQ(bne.imm, -1);
  const Instruction& jump = p.code[3];
  EXPECT_EQ(jump.op, Opcode::kJal);
  EXPECT_EQ(jump.imm, -3);
}

TEST(Assembler, ForwardReferences) {
  const Program p = ok(R"(
  beq zero, zero, end
  nop
end:
  halt
)");
  EXPECT_EQ(p.code[0].imm, 2);
}

TEST(Assembler, MultipleLabelsOneAddress) {
  const Program p = ok("a: b: c: halt\n");
  EXPECT_EQ(p.symbol("a"), p.symbol("c"));
}

TEST(Assembler, MemOperands) {
  const Program p = ok(R"(
  ld  t0, 8(sp)
  sd  t0, -16(s0)
  lbu t1, 0(a0)
)");
  EXPECT_EQ(p.code[0].op, Opcode::kLd);
  EXPECT_EQ(p.code[0].imm, 8);
  EXPECT_EQ(p.code[0].rs1, 2);
  EXPECT_EQ(p.code[1].imm, -16);
  EXPECT_EQ(p.code[1].rs2, 5);  // value register t0
}

TEST(Assembler, DataDirectives) {
  const Program p = ok(R"(
  .data
bytes: .byte 1, 2, 255
halfs: .half 0x1234
words: .word -1
dwords: .dword 0x1122334455667788
)");
  ASSERT_GE(p.data.size(), 3u + 2u + 4u + 8u);
  EXPECT_EQ(p.data[0], 1);
  EXPECT_EQ(p.data[2], 255);
  EXPECT_EQ(p.data[3], 0x34);  // little-endian half
  EXPECT_EQ(p.data[4], 0x12);
  EXPECT_EQ(p.data[5], 0xFF);  // -1 word
  EXPECT_EQ(p.symbol("halfs"), kDefaultDataBase + 3);
}

TEST(Assembler, DataAlignment) {
  const Program p = ok(R"(
  .data
a: .byte 1
  .align 8
b: .dword 2
)");
  EXPECT_EQ(p.symbol("b") % 8, 0u);
  EXPECT_EQ(p.symbol("b"), kDefaultDataBase + 8);
}

TEST(Assembler, DataSpace) {
  const Program p = ok(R"(
  .data
buf: .space 100
after: .byte 9
)");
  EXPECT_EQ(p.symbol("after"), p.symbol("buf") + 100);
  EXPECT_EQ(p.data[100], 9);
}

TEST(Assembler, Strings) {
  const Program p = ok(R"(
  .data
s1: .asciiz "hi\n"
s2: .ascii "ab"
)");
  EXPECT_EQ(p.data[0], 'h');
  EXPECT_EQ(p.data[1], 'i');
  EXPECT_EQ(p.data[2], '\n');
  EXPECT_EQ(p.data[3], 0);  // asciiz NUL
  EXPECT_EQ(p.data[4], 'a');
  EXPECT_EQ(p.symbol("s2"), p.symbol("s1") + 4);
}

TEST(Assembler, DataLabelReferences) {
  const Program p = ok(R"(
  .data
a: .dword 7
table: .dword a, a+8, a-8
)");
  const Addr a = p.symbol("a");
  u64 v0 = 0, v1 = 0, v2 = 0;
  for (int i = 0; i < 8; ++i) {
    v0 |= static_cast<u64>(p.data[8 + i]) << (8 * i);
    v1 |= static_cast<u64>(p.data[16 + i]) << (8 * i);
    v2 |= static_cast<u64>(p.data[24 + i]) << (8 * i);
  }
  EXPECT_EQ(v0, a);
  EXPECT_EQ(v1, a + 8);
  EXPECT_EQ(v2, a - 8);
}

TEST(Assembler, LaLoadsAddress) {
  const Program p = ok(R"(
main:
  la t0, target
  halt
  .data
  .space 12345
target: .byte 1
)");
  // Execute and check t0.
  Iss iss(p);
  iss.run(10);
  EXPECT_EQ(iss.state().x(5), p.symbol("target"));
}

TEST(Assembler, PseudoOps) {
  const Program p = ok(R"(
  mv   t0, t1
  not  t0, t1
  neg  t0, t1
  seqz t0, t1
  snez t0, t1
  subi t0, t1, 5
  jr   t0
  ret
  nop
)");
  EXPECT_EQ(p.code[0].op, Opcode::kAddi);
  EXPECT_EQ(p.code[1].op, Opcode::kXori);
  EXPECT_EQ(p.code[1].imm, -1);
  EXPECT_EQ(p.code[2].op, Opcode::kSub);
  EXPECT_EQ(p.code[3].op, Opcode::kSltiu);
  EXPECT_EQ(p.code[4].op, Opcode::kSltu);
  EXPECT_EQ(p.code[5].op, Opcode::kAddi);
  EXPECT_EQ(p.code[5].imm, -5);
  EXPECT_EQ(p.code[6].op, Opcode::kJalr);
  EXPECT_EQ(p.code[7].op, Opcode::kJalr);
  EXPECT_EQ(p.code[7].rs1, kRaReg);
  EXPECT_EQ(p.code[8].op, Opcode::kNop);
}

TEST(Assembler, BranchPseudoSwaps) {
  const Program p = ok(R"(
x:
  ble  t0, t1, x
  bgt  t0, t1, x
  bleu t0, t1, x
  bgtu t0, t1, x
  blez t0, x
  bgtz t0, x
)");
  EXPECT_EQ(p.code[0].op, Opcode::kBge);   // t1 >= t0
  EXPECT_EQ(p.code[0].rs1, 6);
  EXPECT_EQ(p.code[0].rs2, 5);
  EXPECT_EQ(p.code[1].op, Opcode::kBlt);
  EXPECT_EQ(p.code[2].op, Opcode::kBgeu);
  EXPECT_EQ(p.code[3].op, Opcode::kBltu);
  EXPECT_EQ(p.code[4].op, Opcode::kBge);   // zero >= t0
  EXPECT_EQ(p.code[4].rs1, 0);
  EXPECT_EQ(p.code[5].op, Opcode::kBlt);
}

// Property: `li rd, V` then OUT must reproduce V for arbitrary 64-bit V.
TEST(Assembler, PropertyLiMaterializesAnyConstant) {
  SplitMix64 rng(0x11CAFE);
  std::vector<i64> values = {0,       1,      -1,     8191,   -8192,
                             8192,    -8193,  1 << 20, INT64_MAX,
                             INT64_MIN, 0x7FFFFFFF, -0x80000000LL};
  for (int i = 0; i < 200; ++i) values.push_back(static_cast<i64>(rng.next()));

  for (i64 value : values) {
    const std::string source =
        "main:\n  li t0, " + std::to_string(value) + "\n  out t0\n  halt\n";
    auto assembled = assemble(source);
    ASSERT_TRUE(assembled.ok()) << value;
    Iss iss(assembled.value());
    const IssResult result = iss.run(50);
    ASSERT_TRUE(result.halted) << value;
    EXPECT_EQ(iss.state().x(5), static_cast<u64>(value)) << "li " << value;
  }
}

TEST(Assembler, ErrorDuplicateLabel) {
  const std::string message = err("a: nop\na: nop\n");
  EXPECT_NE(message.find("duplicate"), std::string::npos);
}

TEST(Assembler, ErrorUnknownMnemonic) {
  EXPECT_NE(err("frobnicate t0\n").find("unknown mnemonic"),
            std::string::npos);
}

TEST(Assembler, ErrorUnknownSymbol) {
  EXPECT_NE(err("j nowhere\n").find("unknown symbol"), std::string::npos);
}

TEST(Assembler, ErrorBadRegister) {
  EXPECT_NE(err("add q1, t0, t1\n").find("bad register"), std::string::npos);
}

TEST(Assembler, ErrorImmediateRange) {
  EXPECT_FALSE(assemble("addi t0, t0, 100000\n").ok());
}

TEST(Assembler, ErrorReportsLineNumber) {
  const std::string message = err("nop\nnop\nbogus t0\n");
  EXPECT_NE(message.find("line 3"), std::string::npos);
}

TEST(Assembler, ErrorInstructionInData) {
  EXPECT_FALSE(assemble(".data\nadd t0, t1, t2\n").ok());
}

TEST(Assembler, ErrorDirectiveInText) {
  EXPECT_FALSE(assemble(".byte 1\n").ok());
}

TEST(Assembler, ErrorBadAlign) {
  EXPECT_FALSE(assemble(".data\n.align 3\n").ok());
}

TEST(Assembler, ErrorBadString) {
  EXPECT_FALSE(assemble(".data\n.asciiz \"unterminated\n").ok());
}

TEST(Assembler, ErrorDataPastStackTop) {
  // The data segment starts at 0x100000 and must end by the stack top,
  // 0x8000000: one byte more is an error on the line that asks for it,
  // found before anything is allocated.
  EXPECT_NE(err(".data\nx: .space 0x7F00001\n").find("line 2: .space: data "
                                                     "segment would run past "
                                                     "the stack top"),
            std::string::npos);
  EXPECT_NE(err(".data\n.byte 1\n.align 0x4000000000000000\n")
                .find("line 3: .align"),
            std::string::npos);
  EXPECT_NE(err(".data\n.space 0x7EFFFFF\n.word 1\n").find("line 3"),
            std::string::npos);
}

TEST(Assembler, CustomBases) {
  AsmOptions options;
  options.code_base = 0x4000;
  options.data_base = 0x200000;
  auto result = assemble("main: halt\n.data\nx: .byte 1\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().entry, 0x4000u);
  EXPECT_EQ(result.value().symbol("x"), 0x200000u);
}

TEST(Assembler, WordsMatchDecodedCode) {
  const Program p = ok("add t0, t1, t2\nld a0, 4(sp)\nhalt\n");
  ASSERT_EQ(p.words.size(), p.code.size());
  for (usize i = 0; i < p.words.size(); ++i) {
    auto decoded = decode(p.words[i]);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), p.code[i]);
  }
}

std::string read_source(const std::filesystem::path& path) {
  std::ifstream file(path);
  std::stringstream text;
  text << file.rdbuf();
  return text.str();
}

/// The mutation log and the mutant's first 120 bytes, for a failure message.
std::string describe(const std::string& ops, const std::string& source) {
  return ops + ": " + json_escape(source.substr(0, 120));
}

TEST(Assembler, SurvivesSeededHostileSource) {
  // The shipped example programs and a few generated ones, cut into
  // whitespace-separated tokens (a newline is a token of its own) and
  // mutated by dropping, duplicating and swapping tokens and by splicing in
  // hostile ones: data directives that run past the stack top, out-of-range
  // literals, unterminated strings and stray labels. Every mutant assembles
  // or returns a line-numbered error.
  const std::filesystem::path examples =
      std::filesystem::path(REESE_SOURCE_DIR) / "examples";
  std::vector<std::string> sources;
  for (const char* name : {"asm/fib.s", "asm/hello_sum.s", "srv/gcd.srv",
                           "srv/sieve.srv", "srv/sum_array.srv"}) {
    sources.push_back(read_source(examples / name));
    ASSERT_FALSE(sources.back().empty()) << name;
  }
  for (u64 seed = 1; seed <= 3; ++seed) {
    workloads::FuzzOptions options;
    options.seed = seed;
    options.segments = 12;
    sources.push_back(workloads::generate_fuzz_source(options));
  }
  std::vector<std::vector<std::string>> seeds;
  for (const std::string& source : sources) {
    std::vector<std::string> tokens;
    std::string token;
    for (const char c : source + "\n") {
      if (c == ' ' || c == '\t' || c == '\n') {
        if (!token.empty()) tokens.push_back(token);
        token.clear();
        if (c == '\n') tokens.emplace_back("\n");
      } else {
        token.push_back(c);
      }
    }
    seeds.push_back(tokens);
  }
  const std::vector<std::string> hostile = {
      "\n.data\n", "\n.text\n", "\n", ",", ":", "label:", "main:",
      "fib:", "x: y: z:", "\"unterminated", ".asciiz \"abc\\",
      "\n.space 4611686018427387904\n", "\n.space 9223372036854775807\n",
      "\n.space 134217728\n", "\n.space -1\n",
      "\n.align 4611686018427387904\n", "\n.align 3\n", "\n.align 0\n",
      "\n.dword 18446744073709551616, label+9223372036854775807\n",
      "\nli t0, 0x7fffffffffffffff\n", "\nli t0, -9223372036854775808\n",
      "\nli t0, 99999999999999999999999\n", "\nla t0, nowhere+1\n",
      "\nla t0, 0x7fffffffffffffff\n",
      "\nld a0, 9223372036854775807(sp)\n", "\nbeq t0, t0, 0x7ffffffc\n",
      "\nj -4611686018427387904\n", std::string(4096, 'x'), "\xff\xfe\x80",
      "0x", "-", "+", "(sp)", "t0,", "%hi(x)"};
  SplitMix64 rng(0xA55E5EED);
  usize assembled = 0;
  usize refused = 0;
  for (int round = 0; round < 4'000; ++round) {
    std::vector<std::string> tokens = seeds[rng.next_below(seeds.size())];
    std::string ops;
    const u64 mutations = rng.next_range(1, 4);
    for (u64 m = 0; m < mutations; ++m) {
      const usize at = rng.next_below(tokens.size() + 1);
      ops += " @" + std::to_string(at);
      switch (rng.next_below(4)) {
        case 0:  // drop
          if (at < tokens.size()) tokens.erase(tokens.begin() + at);
          ops += " drop";
          break;
        case 1:  // duplicate
          if (at < tokens.size()) {
            tokens.insert(tokens.begin() + at, tokens[at]);
          }
          ops += " duplicate";
          break;
        case 2:  // swap
          if (at < tokens.size()) {
            const usize with = rng.next_below(tokens.size());
            std::swap(tokens[at], tokens[with]);
            ops += " swap with " + std::to_string(with);
          }
          break;
        default: {  // splice
          const usize pick = rng.next_below(hostile.size());
          tokens.insert(tokens.begin() + at, hostile[pick]);
          ops += " splice " + std::to_string(pick);
        }
      }
    }
    std::string source;
    for (const std::string& token : tokens) {
      source += token == "\n" ? token : token + " ";
    }
    const Result<Program> result = assemble(source);
    if (result.ok()) {
      ++assembled;
      const Program& program = result.value();
      EXPECT_EQ(program.words.size(), program.code.size())
          << describe(ops, source);
      EXPECT_LE(program.data_base + program.data.size(), kDefaultStackTop)
          << describe(ops, source);
    } else {
      ++refused;
      EXPECT_GT(result.error().line, 0) << describe(ops, source);
      EXPECT_FALSE(result.error().message.empty()) << describe(ops, source);
    }
    if (::testing::Test::HasFailure()) break;
  }
  // Both outcomes occur often, so neither path goes untested.
  EXPECT_GT(assembled, 250u);
  EXPECT_GT(refused, 2'000u);
}

}  // namespace
}  // namespace reese::isa
