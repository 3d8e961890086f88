// The R-stream Queue — REESE's central structure (§4.3 of the paper).
//
// A FIFO sitting between writeback and commit. Each entry is a completed
// P-stream instruction carrying its operand values and result, so its
// R-stream re-execution has no data or control dependencies. Entries issue
// to spare functional-unit capacity in FIFO order, are compared against
// their stored P result when the re-execution completes, and finally
// commit (architecturally) from the head in program order.
#pragma once

#include <algorithm>
#include <vector>

#include "common/types.h"
#include "isa/instruction.h"

namespace reese {
class SnapshotReader;
class SnapshotWriter;
}  // namespace reese

namespace reese::core {

struct REntry {
  u64 id = 0;  ///< stable handle for the writeback event queue
  isa::Instruction inst;
  Addr pc = 0;
  InstSeq seq = 0;

  // Captured P-stream execution context.
  u64 rs1_value = 0;
  u64 rs2_value = 0;
  u64 p_result = 0;     ///< P result (stored copy the comparator reads);
                        ///< fault injection may flip a bit of this copy
  u64 r_base_value = 0; ///< loads: the value the R-stream reload returns
                        ///< (see DESIGN.md on timing/function decoupling)
  Addr mem_addr = 0;    ///< P effective address for loads/stores
  Addr p_next = 0;      ///< P next-PC
  Cycle p_issue_cycle = 0;
  Cycle p_complete_cycle = 0;

  // Fault injection (DESIGN.md §10, §16): the id of the fault this entry
  // carries (0 = none), reported once at commit. `r_flip` is XORed into
  // the R result (a result flip on the R side).
  u64 fault = 0;
  u64 r_flip = 0;

  // R-stream progress, grouped so the flags share one word.
  bool needs_reexec = true;  ///< false for 1-of-k skipped instructions
  bool issued = false;
  bool completed = false;    ///< re-executed and compared
  bool mismatch = false;
  /// True while the P instruction still occupies its RUU slot (early
  /// release disabled); the final commit must free that slot too.
  bool holds_ruu_slot = false;
  /// The fault corrupted the checker's own redundant state (operand
  /// copies, the reexec flag): the architectural value is still correct,
  /// so an escape is masked (possibly with coverage loss) rather than SDC,
  /// and a mismatch is a false-positive detection.
  bool fault_checker_only = false;
};

/// Fixed-capacity ring: the capacity is a hardware parameter known at
/// construction, so the previous std::deque (a chunked allocator paying a
/// heap block every few pushes) is replaced by one flat REntry array that
/// never allocates after construction.
class RStreamQueue {
 public:
  explicit RStreamQueue(u32 capacity)
      : entries_(std::max<u32>(capacity, 1)),
        capacity_(capacity),
        ring_size_(std::max<u32>(capacity, 1)) {}

  bool full() const { return count_ >= capacity_; }
  bool empty() const { return count_ == 0; }
  usize size() const { return count_; }
  u32 capacity() const { return capacity_; }

  /// Enqueue at the tail: returns a recycled slot for the caller to fill in
  /// place. The id is assigned and the R-stream progress/fault flags are
  /// reset here; the caller owns every field it reads later. Caller must
  /// check full() first.
  REntry& push_slot();

  REntry& front() { return entries_[head_]; }
  void pop_front() {
    if (++head_ == ring_size_) head_ = 0;
    --count_;
  }

  /// Entry by stable id; must still be in the queue. Ids are assigned
  /// consecutively at push and the queue is FIFO, so the id's distance from
  /// the head id is its ring offset — O(1), no search.
  REntry& by_id(u64 id);

  /// Program-order access for the in-order R issue scan (0 = head).
  /// The ring size is a config value, not a power of two, so `%` compiles
  /// to a hardware divide; index < count_ <= ring_size_ bounds the sum
  /// under 2*ring_size_, so one compare-subtract wraps it.
  REntry& at(usize index) { return entries_[position_of(index)]; }
  const REntry& at(usize index) const { return entries_[position_of(index)]; }

  /// Checkpoint serialization. Only called on a drained (empty) queue —
  /// what persists across a snapshot is the id counter, which keeps the
  /// FIFO-consecutive id contract intact across a restore.
  void save(SnapshotWriter* writer) const;
  void load(SnapshotReader* reader);

 private:
  u32 position_of(usize index) const {
    u32 position = head_ + static_cast<u32>(index);
    if (position >= ring_size_) position -= ring_size_;
    return position;
  }

  std::vector<REntry> entries_;
  u32 head_ = 0;
  u32 count_ = 0;
  u32 capacity_;
  u32 ring_size_;
  u64 next_id_ = 1;
};

}  // namespace reese::core
