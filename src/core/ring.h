// The one fixed-capacity FIFO of the core: the fetch queue, the RUU, the
// LSQ and the R-stream Queue are each a Ring.
//
// The capacity is a hardware parameter fixed at construction, so the
// element array never reallocates and a push hands out a recycled slot for
// the caller to fill in place. Slot indices are physical: a slot names the
// same element from its push to its pop, which is what RUU refs, LSQ
// entries and writeback events carry. Capacities are configuration values,
// not powers of two, so positions wrap by one compare-and-subtract rather
// than `%`, an integer divide on paths run several times per simulated
// instruction.
#pragma once

#include <cassert>
#include <vector>

#include "common/types.h"

namespace reese::core {

template <typename T>
class Ring {
 public:
  explicit Ring(u32 capacity) : slots_(capacity), capacity_(capacity) {}

  u32 capacity() const { return capacity_; }
  u32 size() const { return count_; }
  bool empty() const { return count_ == 0; }
  bool full() const { return count_ >= capacity_; }

  /// Physical slot of the oldest element.
  u32 head() const { return head_; }
  /// Physical slot of the element `position` places behind the oldest.
  /// position <= size() <= capacity bounds the sum under twice the
  /// capacity, so one subtraction wraps it.
  u32 slot_at(u32 position) const {
    u32 slot = head_ + position;
    if (slot >= capacity_) slot -= capacity_;
    return slot;
  }

  /// Element by physical slot.
  T& operator[](u32 slot) { return slots_[slot]; }
  const T& operator[](u32 slot) const { return slots_[slot]; }
  /// Element by program-order position (0 = oldest).
  T& at(u32 position) { return slots_[slot_at(position)]; }
  const T& at(u32 position) const { return slots_[slot_at(position)]; }
  T& front() { return slots_[head_]; }

  /// Claim the tail slot. It holds whatever its last occupant left, so the
  /// caller writes every field it reads later.
  T& push_back() {
    assert(!full());
    return slots_[slot_at(count_++)];
  }
  void pop_front() {
    assert(!empty());
    if (++head_ == capacity_) head_ = 0;
    --count_;
  }
  void pop_back() {
    assert(!empty());
    --count_;
  }
  void clear() {
    head_ = 0;
    count_ = 0;
  }

 private:
  std::vector<T> slots_;
  u32 head_ = 0;
  u32 count_ = 0;
  u32 capacity_;
};

}  // namespace reese::core
