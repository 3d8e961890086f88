// Branch prediction: the gshare direction predictor, BTB, and
// return-address stack.
//
// The paper's configuration uses gshare (McFarling, "Combining Branch
// Predictors", DEC WRL TN-36), and it is the one learning direction
// predictor here. Fetch can instead predict every conditional branch one
// fixed direction (PredictorKind), which tests use to force or forbid
// mispredictions.
//
// Interface contract: predict() speculatively updates the global history;
// the returned `meta` word must be passed back to update() when the branch
// resolves (it carries the history the prediction used), and to repair()
// when the branch mispredicted.
#pragma once

#include <cassert>
#include <vector>

#include "common/types.h"

namespace reese {
class SnapshotReader;
class SnapshotWriter;
}  // namespace reese

namespace reese::branch {

struct BranchPrediction {
  bool taken = false;
  u64 meta = 0;  ///< the global history the prediction used
};

/// 2-bit saturating counters; they start weakly not-taken (1).
inline constexpr u8 kWeakNotTaken = 1;

inline u8 bump_counter(u8 counter, bool taken) {
  if (taken) return counter < 3 ? counter + 1 : 3;
  return counter > 0 ? counter - 1 : 0;
}

inline bool counter_taken(u8 counter) { return counter >= 2; }

/// gshare: global history XOR PC indexes a 2-bit counter table. Global
/// history is updated speculatively at predict time.
///
/// predict()/update()/repair() are header-inline: the pipeline owns the
/// predictor by value and calls them per branch from the fetch and commit
/// stages.
class GsharePredictor {
 public:
  /// `history_bits` is also log2(table size).
  explicit GsharePredictor(unsigned history_bits);
  BranchPrediction predict(Addr pc) {
    const u64 used_history = ghr_;
    const bool taken = counter_taken(table_[index_of(pc, used_history)]);
    // Speculative history update with the *predicted* outcome.
    ghr_ = ((ghr_ << 1) | (taken ? 1 : 0)) & ((u64{1} << history_bits_) - 1);
    return {taken, used_history};
  }
  /// Called in program order when the branch resolves.
  void update(Addr pc, bool taken, u64 meta) {
    u8& counter = table_[index_of(pc, meta)];
    counter = bump_counter(counter, taken);
  }
  /// Misprediction repair: rewind speculative global history to the state
  /// this branch predicted with (`meta`) and shift in the actual outcome.
  void repair(u64 meta, bool taken) {
    // Everything shifted in since `meta` is wrong-path speculation.
    ghr_ = ((meta << 1) | (taken ? 1 : 0)) & ((u64{1} << history_bits_) - 1);
  }
  /// The current (speculative) global history.
  u64 history() const { return ghr_; }

  /// Checkpoint serialization: the counter table and the global history.
  void save(SnapshotWriter* writer) const;
  void load(SnapshotReader* reader);

  /// Component-site fault campaigns: flip one bit of a 2-bit pattern
  /// counter. Always lands (the table has no valid bits).
  void flip_counter_bit(u64 cell, unsigned bit) {
    table_[static_cast<usize>(cell % table_.size())] ^=
        static_cast<u8>(u8{1} << (bit & 1));
  }

 private:
  template <class Self, class Io>
  static void layout(Self& self, Io& io);

  usize index_of(Addr pc, u64 history) const {
    return static_cast<usize>(((pc >> 2) ^ history) & (table_.size() - 1));
  }
  std::vector<u8> table_;
  unsigned history_bits_;
  u64 ghr_ = 0;
};

/// How fetch predicts a conditional branch: with gshare, or always one
/// fixed direction. The values keep the numbering of the longer predictor
/// list this enum once held, so a kind's value (and any name printed from
/// it) stays what it was.
enum class PredictorKind : u8 {
  kNotTaken = 0,
  kTaken = 1,
  kGshare = 4,
};

const char* predictor_kind_name(PredictorKind kind);

// ---------------------------------------------------------------------------

/// Branch target buffer: tagged, set-associative, LRU.
class Btb {
 public:
  Btb(usize entries, u32 associativity);

  /// Target for `pc` if present; a hit refreshes the entry's LRU stamp.
  bool lookup(Addr pc, Addr* target) const;
  void update(Addr pc, Addr target);

  u64 lookups() const { return lookups_; }
  u64 hits() const { return hits_; }

  void save(SnapshotWriter* writer) const;
  void load(SnapshotReader* reader);

  /// Component-site fault campaigns: flip one bit of a BTB entry's stored
  /// target. Returns false when the struck entry is invalid (no stored
  /// state to corrupt — the strike is trivially masked).
  bool flip_target_bit(u64 cell, unsigned bit) {
    Entry& entry = entries_[static_cast<usize>(cell % entries_.size())];
    if (!entry.valid) return false;
    entry.target ^= Addr{1} << (bit & 63);
    return true;
  }

 private:
  struct Entry {
    Addr pc = 0;
    Addr target = 0;
    bool valid = false;
    u64 stamp = 0;
  };

  template <class Self, class Io>
  static void layout(Self& self, Io& io);

  mutable std::vector<Entry> entries_;
  usize set_count_;
  u32 associativity_;
  mutable u64 tick_ = 0;
  mutable u64 lookups_ = 0;
  mutable u64 hits_ = 0;
};

/// Return-address stack with single-entry repair (standard TOS checkpoint).
///
/// Header-inline with compare-subtract wraparound: push/pop run per
/// call/return and checkpoint() runs per fetched control transfer, and
/// `depth` is a config value (not necessarily a power of two), so a `%`
/// here was an integer divide on the fetch path.
class ReturnAddressStack {
 public:
  explicit ReturnAddressStack(usize depth) : stack_(depth, 0),
                                                  depth_(depth) {
    assert(depth >= 1);
  }

  void push(Addr return_address) {
    stack_[top_] = return_address;
    ++top_;
    if (top_ == depth_) top_ = 0;
  }
  /// Pops and returns the predicted return target; 0 if empty.
  Addr pop() {
    top_ = (top_ == 0 ? depth_ : top_) - 1;
    return stack_[top_];
  }

  struct Checkpoint {
    usize top;
    Addr top_value;
  };
  Checkpoint checkpoint() const {
    const usize newest = (top_ == 0 ? depth_ : top_) - 1;
    return {top_, stack_[newest]};
  }
  void restore(const Checkpoint& checkpoint) {
    top_ = checkpoint.top;
    const usize newest = (top_ == 0 ? depth_ : top_) - 1;
    stack_[newest] = checkpoint.top_value;
  }

  void save(SnapshotWriter* writer) const;
  void load(SnapshotReader* reader);

 private:
  template <class Self, class Io>
  static void layout(Self& self, Io& io);

  std::vector<Addr> stack_;
  usize top_ = 0;  ///< index one past the newest entry, wraps
  usize depth_;
};

}  // namespace reese::branch
