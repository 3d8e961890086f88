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

template <class Self, class Io>
void GsharePredictor::layout(Self& self, Io& io) {
  io.geometry(self.table_.size(),
              "gshare table size mismatch (snapshot built with a different "
              "predictor configuration)");
  for (auto& counter : self.table_) io.template field_as<u64>(counter);
  io.field(self.ghr_);
}

void GsharePredictor::save(SnapshotWriter* writer) const {
  layout(*this, *writer);
}
void GsharePredictor::load(SnapshotReader* reader) { layout(*this, *reader); }

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

template <class Self, class Io>
void Btb::layout(Self& self, Io& io) {
  io.geometry(self.entries_.size(),
              "btb geometry mismatch (snapshot built with a different "
              "configuration)");
  for (auto& entry : self.entries_) {
    io.field(entry.pc);
    io.field(entry.target);
    io.field(entry.valid);
    io.field(entry.stamp);
  }
  io.field(self.tick_);
  io.field(self.lookups_);
  io.field(self.hits_);
}

void Btb::save(SnapshotWriter* writer) const { layout(*this, *writer); }
void Btb::load(SnapshotReader* reader) { layout(*this, *reader); }

template <class Self, class Io>
void ReturnAddressStack::layout(Self& self, Io& io) {
  io.geometry(self.stack_.size(),
              "return-address stack depth mismatch (snapshot built with a "
              "different configuration)");
  for (auto& entry : self.stack_) io.field(entry);
  io.field(self.top_);
}

void ReturnAddressStack::save(SnapshotWriter* writer) const {
  layout(*this, *writer);
}
void ReturnAddressStack::load(SnapshotReader* reader) {
  layout(*this, *reader);
}

}  // namespace reese::branch
