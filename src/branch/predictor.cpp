#include "branch/predictor.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "common/bitutil.h"
#include "common/snapshot.h"

namespace reese::branch {
namespace {

usize require_pow2(usize n, const char* what) {
  if (!is_pow2(n)) {
    std::fprintf(stderr, "branch predictor: %s must be a power of two\n", what);
    std::abort();
  }
  return n;
}

}  // namespace

// --- gshare ----------------------------------------------------------------

GsharePredictor::GsharePredictor(unsigned history_bits)
    : table_(usize{1} << history_bits, kWeakNotTaken),
      history_bits_(history_bits) {
  assert(history_bits >= 2 && history_bits <= 24);
}

void GsharePredictor::save_state(SnapshotWriter* writer) const {
  writer->put_u64(table_.size());
  for (u8 counter : table_) writer->put_u64(counter);
  writer->put_u64(ghr_);
}

void GsharePredictor::load_state(SnapshotReader* reader) {
  const u64 size = reader->get_u64();
  if (!reader->ok()) return;
  if (size != table_.size()) {
    reader->fail("gshare table size mismatch (snapshot built with a "
                 "different predictor configuration)");
    return;
  }
  for (u8& counter : table_) counter = static_cast<u8>(reader->get_u64());
  ghr_ = reader->get_u64();
}

const char* predictor_kind_name(PredictorKind kind) {
  switch (kind) {
    case PredictorKind::kNotTaken: return "nottaken";
    case PredictorKind::kTaken: return "taken";
    case PredictorKind::kGshare: return "gshare";
  }
  return "?";
}

// --- BTB ---------------------------------------------------------------------

Btb::Btb(usize entries, u32 associativity) : associativity_(associativity) {
  if (associativity == 0 || entries % associativity != 0) {
    std::fprintf(stderr, "btb: bad geometry\n");
    std::abort();
  }
  set_count_ = require_pow2(entries / associativity, "btb set count");
  entries_.resize(entries);
}

bool Btb::lookup(Addr pc, Addr* target) const {
  ++lookups_;
  ++tick_;
  const usize set_base = ((pc >> 2) & (set_count_ - 1)) * associativity_;
  for (u32 way = 0; way < associativity_; ++way) {
    Entry& entry = entries_[set_base + way];
    if (entry.valid && entry.pc == pc) {
      ++hits_;
      entry.stamp = tick_;
      *target = entry.target;
      return true;
    }
  }
  return false;
}

void Btb::update(Addr pc, Addr target) {
  ++tick_;
  const usize set_base = ((pc >> 2) & (set_count_ - 1)) * associativity_;
  usize victim = 0;
  u64 oldest = ~u64{0};
  for (u32 way = 0; way < associativity_; ++way) {
    Entry& entry = entries_[set_base + way];
    if (entry.valid && entry.pc == pc) {
      entry.target = target;
      entry.stamp = tick_;
      return;
    }
    if (!entry.valid) {
      victim = way;
      oldest = 0;
    } else if (entry.stamp < oldest) {
      oldest = entry.stamp;
      victim = way;
    }
  }
  entries_[set_base + victim] = Entry{pc, target, true, tick_};
}

void Btb::save(SnapshotWriter* writer) const {
  writer->put_u64(entries_.size());
  for (const Entry& entry : entries_) {
    writer->put_u64(entry.pc);
    writer->put_u64(entry.target);
    writer->put_bool(entry.valid);
    writer->put_u64(entry.stamp);
  }
  writer->put_u64(tick_);
  writer->put_u64(lookups_);
  writer->put_u64(hits_);
}

void Btb::load(SnapshotReader* reader) {
  const u64 entry_count = reader->get_u64();
  if (!reader->ok()) return;
  if (entry_count != entries_.size()) {
    reader->fail("btb geometry mismatch (snapshot built with a different "
                 "configuration)");
    return;
  }
  for (Entry& entry : entries_) {
    entry.pc = reader->get_u64();
    entry.target = reader->get_u64();
    entry.valid = reader->get_bool();
    entry.stamp = reader->get_u64();
  }
  tick_ = reader->get_u64();
  lookups_ = reader->get_u64();
  hits_ = reader->get_u64();
}

void ReturnAddressStack::save(SnapshotWriter* writer) const {
  writer->put_u64(stack_.size());
  for (Addr entry : stack_) writer->put_u64(entry);
  writer->put_u64(top_);
}

void ReturnAddressStack::load(SnapshotReader* reader) {
  const u64 depth = reader->get_u64();
  if (!reader->ok()) return;
  if (depth != stack_.size()) {
    reader->fail("return-address stack depth mismatch (snapshot built with "
                 "a different configuration)");
    return;
  }
  for (Addr& entry : stack_) entry = reader->get_u64();
  top_ = static_cast<usize>(reader->get_u64());
}

}  // namespace reese::branch
