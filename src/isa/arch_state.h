// Architectural machine state (registers + PC + output hash) and the
// data-memory access interface the executor runs against.
#pragma once

#include <array>

#include "common/types.h"
#include "isa/instruction.h"
#include "mem/main_memory.h"

namespace reese::isa {

/// Abstract data-memory view. The golden ISS and the pipeline's in-order
/// front end run against MainMemory directly; wrong-path (speculative)
/// execution runs against a copy-on-write overlay (core/spec_overlay.h).
class DataSpace {
 public:
  virtual ~DataSpace() = default;
  virtual u64 load(Addr addr, unsigned bytes) = 0;
  virtual void store(Addr addr, unsigned bytes, u64 value) = 0;
};

/// DataSpace backed directly by MainMemory.
class DirectDataSpace final : public DataSpace {
 public:
  explicit DirectDataSpace(mem::MainMemory* memory) : memory_(memory) {}
  u64 load(Addr addr, unsigned bytes) override {
    return memory_->load(addr, bytes);
  }
  void store(Addr addr, unsigned bytes, u64 value) override {
    memory_->store(addr, bytes, value);
  }

 private:
  mem::MainMemory* memory_;
};

/// Registers + PC + halt flag + OUT accumulator. FP registers hold raw
/// IEEE-754 bit patterns so all values (and fault flips) are uniform u64s.
struct ArchState {
  std::array<u64, kIntRegCount> xregs{};
  std::array<u64, kFpRegCount> fregs{};
  Addr pc = 0;
  bool halted = false;

  /// Rolling FNV-style hash of every OUT-ed value; programs use OUT to
  /// publish checksums that equivalence tests compare across simulators.
  u64 out_hash = 0xcbf29ce484222325ULL;
  u64 out_count = 0;

  u64 x(u8 index) const { return index == kZeroReg ? 0 : xregs[index]; }
  void set_x(u8 index, u64 value) {
    if (index != kZeroReg) xregs[index] = value;
  }
  u64 f(u8 index) const { return fregs[index]; }
  void set_f(u8 index, u64 value) { fregs[index] = value; }

  void emit_out(u64 value) {
    for (int i = 0; i < 8; ++i) {
      out_hash ^= (value >> (8 * i)) & 0xFF;
      out_hash *= 0x100000001b3ULL;
    }
    ++out_count;
  }

  /// Snapshot layout (common/snapshot.h): every register, the PC, the halt
  /// flag and the OUT accumulator.
  template <class Self, class Io>
  static void layout(Self& self, Io& io) {
    for (auto& reg : self.xregs) io.field(reg);
    for (auto& reg : self.fregs) io.field(reg);
    io.field(self.pc);
    io.field(self.halted);
    io.field(self.out_hash);
    io.field(self.out_count);
  }
};

}  // namespace reese::isa
