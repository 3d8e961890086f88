// Decoded instruction representation, register names, and static
// instruction metadata (def/use sets, control-transfer targets) consumed by
// the program-analysis layer (src/analysis).
#pragma once

#include <optional>
#include <string>

#include "common/types.h"
#include "isa/opcode.h"

namespace reese::isa {

constexpr usize kIntRegCount = 32;
constexpr usize kFpRegCount = 32;
/// x0 reads as zero and ignores writes.
constexpr u8 kZeroReg = 0;
/// ABI register aliases (RISC-V naming, used by the assembler).
constexpr u8 kRaReg = 1;   // return address
constexpr u8 kSpReg = 2;   // stack pointer
constexpr u8 kGpReg = 3;   // global pointer

/// One decoded instruction. `imm` is fully sign-extended at decode; branch
/// and JAL immediates are in units of instruction words (target = pc +
/// 4*imm).
struct Instruction {
  Opcode op = Opcode::kNop;
  u8 rd = 0;
  u8 rs1 = 0;
  u8 rs2 = 0;
  i64 imm = 0;

  const OpInfo& info() const { return op_info(op); }

  bool operator==(const Instruction&) const = default;
};

/// "add x5, x6, x7" style disassembly (ABI register names).
std::string disassemble(const Instruction& inst);

// --- static instruction metadata (src/analysis consumes these) --------------

/// A register operand: index within its file, plus which file. Int x0 is a
/// real RegRef here; callers that care about its hardwired-zero semantics
/// (def/use analyses) filter it themselves.
struct RegRef {
  u8 index = 0;
  bool fp = false;

  bool operator==(const RegRef&) const = default;
  /// Dense index over both files: int regs 0..31, FP regs 32..63.
  u8 flat() const { return static_cast<u8>(index + (fp ? kIntRegCount : 0)); }
};

constexpr usize kFlatRegCount = kIntRegCount + kFpRegCount;

/// Registers statically read and written by one instruction, derived from
/// its OpInfo row. At most two uses (rs1, rs2) and one def (rd).
struct DefUse {
  RegRef uses[2];
  u8 use_count = 0;
  RegRef defs[1];
  u8 def_count = 0;
};

DefUse def_use(const Instruction& inst);

/// Statically-known control-transfer target of the instruction at `pc`:
/// branches and JAL are PC-relative (target = pc + 4*imm); JALR is dynamic
/// (rs1 + imm) and non-control ops transfer nowhere — both yield nullopt.
std::optional<Addr> static_target(const Instruction& inst, Addr pc);

/// Whether execution can continue at pc+4 after this instruction:
/// false for unconditional transfers (JAL, JALR) and HALT.
bool falls_through(Opcode op);

/// Register name ("x7"/ABI alias) -> index; returns -1 if unknown.
/// `fp` selects the FP register namespace (f0..f31, fa0.., ft0.., fs0..).
int parse_register(std::string_view name, bool fp);

/// Canonical ABI name of integer register `index`.
std::string_view int_reg_name(u8 index);
/// Canonical name of FP register `index`.
std::string_view fp_reg_name(u8 index);

}  // namespace reese::isa
