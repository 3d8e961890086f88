#include "isa/instruction.h"

#include <cassert>

#include "common/strutil.h"

namespace reese::isa {
namespace {

constexpr std::string_view kIntNames[kIntRegCount] = {
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
    "s0",   "s1", "a0", "a1", "a2", "a3", "a4", "a5",
    "a6",   "a7", "s2", "s3", "s4", "s5", "s6", "s7",
    "s8",   "s9", "s10", "s11", "t3", "t4", "t5", "t6"};

constexpr std::string_view kFpNames[kFpRegCount] = {
    "ft0", "ft1", "ft2",  "ft3",  "ft4", "ft5", "ft6",  "ft7",
    "fs0", "fs1", "fa0",  "fa1",  "fa2", "fa3", "fa4",  "fa5",
    "fa6", "fa7", "fs2",  "fs3",  "fs4", "fs5", "fs6",  "fs7",
    "fs8", "fs9", "fs10", "fs11", "ft8", "ft9", "ft10", "ft11"};

}  // namespace

std::string_view int_reg_name(u8 index) {
  assert(index < kIntRegCount);
  return kIntNames[index];
}

std::string_view fp_reg_name(u8 index) {
  assert(index < kFpRegCount);
  return kFpNames[index];
}

int parse_register(std::string_view name, bool fp) {
  if (!fp) {
    // "xN" raw names.
    if (name.size() >= 2 && name[0] == 'x') {
      i64 n = 0;
      if (parse_int(name.substr(1), &n) && n >= 0 &&
          n < static_cast<i64>(kIntRegCount)) {
        return static_cast<int>(n);
      }
    }
    for (usize i = 0; i < kIntRegCount; ++i) {
      if (name == kIntNames[i]) return static_cast<int>(i);
    }
    // "fp" as alias for s0 (frame pointer).
    if (name == "fp") return 8;
    return -1;
  }
  if (name.size() >= 2 && name[0] == 'f') {
    i64 n = 0;
    if (parse_int(name.substr(1), &n) && n >= 0 &&
        n < static_cast<i64>(kFpRegCount)) {
      return static_cast<int>(n);
    }
  }
  for (usize i = 0; i < kFpRegCount; ++i) {
    if (name == kFpNames[i]) return static_cast<int>(i);
  }
  return -1;
}

std::string disassemble(const Instruction& inst) {
  const OpInfo& info = inst.info();
  const std::string m(info.mnemonic);
  auto rd = [&] {
    return std::string(info.is_fp_rd ? fp_reg_name(inst.rd)
                                     : int_reg_name(inst.rd));
  };
  auto rs1 = [&] {
    return std::string(info.is_fp_rs1 ? fp_reg_name(inst.rs1)
                                      : int_reg_name(inst.rs1));
  };
  auto rs2 = [&] {
    return std::string(info.is_fp_rs2 ? fp_reg_name(inst.rs2)
                                      : int_reg_name(inst.rs2));
  };
  switch (info.format) {
    case Format::kR:
      if (!info.reads_rs2) return m + " " + rd() + ", " + rs1();
      return m + " " + rd() + ", " + rs1() + ", " + rs2();
    case Format::kI:
      return m + " " + rd() + ", " + rs1() + ", " + std::to_string(inst.imm);
    case Format::kU:
      return m + " " + rd() + ", " + std::to_string(inst.imm);
    case Format::kL:
      return m + " " + rd() + ", " + std::to_string(inst.imm) + "(" + rs1() +
             ")";
    case Format::kS:
      return m + " " + rs2() + ", " + std::to_string(inst.imm) + "(" + rs1() +
             ")";
    case Format::kB:
      return m + " " + rs1() + ", " + rs2() + ", " + std::to_string(inst.imm);
    case Format::kJ:
      return m + " " + rd() + ", " + std::to_string(inst.imm);
    case Format::kJr:
      return m + " " + rd() + ", " + rs1() + ", " + std::to_string(inst.imm);
    case Format::kO:
      return m + " " + rs1();
    case Format::kN:
      return m;
  }
  return m;
}

DefUse def_use(const Instruction& inst) {
  const OpInfo& info = inst.info();
  DefUse du;
  if (info.reads_rs1) du.uses[du.use_count++] = RegRef{inst.rs1, info.is_fp_rs1};
  if (info.reads_rs2) du.uses[du.use_count++] = RegRef{inst.rs2, info.is_fp_rs2};
  if (info.writes_rd) du.defs[du.def_count++] = RegRef{inst.rd, info.is_fp_rd};
  return du;
}

std::optional<Addr> static_target(const Instruction& inst, Addr pc) {
  if (is_cond_branch(inst.op) || inst.op == Opcode::kJal) {
    // Branch/JAL immediates are in instruction words (see Instruction docs).
    return static_cast<Addr>(static_cast<i64>(pc) + 4 * inst.imm);
  }
  return std::nullopt;
}

bool falls_through(Opcode op) {
  return op != Opcode::kJal && op != Opcode::kJalr && op != Opcode::kHalt;
}

}  // namespace reese::isa
