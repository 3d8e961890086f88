#include "core/rstream.h"

#include <cassert>

#include "common/snapshot.h"

namespace reese::core {

REntry& RStreamQueue::push_slot() {
  assert(!full());
  u32 tail = head_ + count_;
  if (tail >= ring_size_) tail -= ring_size_;
  REntry& slot = entries_[tail];
  slot.id = next_id_++;
  slot.needs_reexec = true;
  slot.issued = false;
  slot.completed = false;
  slot.mismatch = false;
  slot.holds_ruu_slot = false;
  slot.fault = 0;
  slot.r_flip = 0;
  slot.fault_checker_only = false;
  ++count_;
  return slot;
}

REntry& RStreamQueue::by_id(u64 id) {
  assert(count_ > 0);
  const u64 front_id = front().id;
  assert(id >= front_id);
  const usize index = static_cast<usize>(id - front_id);
  assert(index < count_);
  REntry& entry = at(index);
  assert(entry.id == id);
  return entry;
}

void RStreamQueue::save(SnapshotWriter* writer) const {
  assert(count_ == 0 && "R-stream queue must be drained before snapshot");
  writer->put_u64(next_id_);
}

void RStreamQueue::load(SnapshotReader* reader) {
  next_id_ = reader->get_u64();
  head_ = 0;
  count_ = 0;
}

}  // namespace reese::core
