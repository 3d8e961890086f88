// Calendar (ring-buffer) event queue for the pipeline's writeback events.
//
// The pipeline schedules every event a bounded number of cycles into the
// future, and drains events for exactly one cycle value per call, in
// strictly increasing cycle order. The bound is fixed by the Table 1
// machine's constants (core/config.h): its longest event, a D-TLB walk
// plus an L1, L2 and DRAM miss, is 104 cycles, under the 256-cycle
// horizon. A `std::map<Cycle, vector>` models that fine but pays a
// red-black-tree allocation + rebalance per simulated event; this queue
// instead indexes a fixed power-of-two array of slots by `cycle & mask`,
// so schedule/drain are O(1) with no per-event allocation once the slot
// vectors have warmed up.
#pragma once

#include <cassert>
#include <utility>
#include <vector>

#include "common/types.h"

namespace reese::core {

template <typename T>
class CalendarQueue {
 public:
  /// `horizon` must be a power of two and exceed the longest schedule
  /// distance the caller ever uses (asserted in debug builds).
  explicit CalendarQueue(usize horizon = 256) : mask_(horizon - 1) {
    assert((horizon & mask_) == 0 && horizon >= 2);
    slots_.resize(horizon);
  }

  bool empty() const { return pending_ == 0; }

  /// Schedule `value` for cycle `when`. The caller drains cycle `now`
  /// before scheduling (the pipeline evaluates writeback before issue), so
  /// events must land strictly in the future or they would never drain,
  /// and within the horizon.
  void schedule(Cycle when, [[maybe_unused]] Cycle now, T value) {
    assert(when > now && when - now <= mask_);
    Slot& slot = slots_[when & mask_];
    if (slot.when != when) {
      // A stale tag always comes with a drained (empty) item list: the
      // caller drains every cycle, so a slot is reused only after its
      // previous occupant's cycle has passed.
      assert(slot.items.empty());
      slot.when = when;
    }
    slot.items.push_back(std::move(value));
    ++pending_;
  }

  /// Move out everything scheduled for exactly `now`. Must be called for
  /// every cycle value in increasing order (the pipeline's main loop does).
  /// Returns an empty vector when nothing is due.
  std::vector<T> take(Cycle now) {
    std::vector<T> due;
    Slot& slot = slots_[now & mask_];
    if (slot.when == now && !slot.items.empty()) {
      pending_ -= slot.items.size();
      due.swap(slot.items);
      slot.items = std::move(spare_);  // hand the slot a warm vector back
      slot.items.clear();
    }
    return due;
  }

  /// Return a drained vector so its capacity is reused by the next take().
  void recycle(std::vector<T>&& used) {
    used.clear();
    spare_ = std::move(used);
  }

 private:
  struct Slot {
    Cycle when = ~Cycle{0};
    std::vector<T> items;
  };

  std::vector<Slot> slots_;
  std::vector<T> spare_;
  usize mask_;
  usize pending_ = 0;
};

}  // namespace reese::core
