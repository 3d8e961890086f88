// Pipeline tracing: one lifecycle per dispatched instruction, two views.
//
// A Tracer installed on a Pipeline receives one event per pipeline stage
// (dispatch, issue, writeback, release, R-stream issue/compare, commit,
// squash, comparator error) and folds them into one Lifecycle per
// dispatched instruction. Two views read that store (DESIGN.md §12):
//
//  * rows() / to_string(): the last `keep` lifecycles as a SimpleScalar
//    "pipeview" table, for debugging and teaching:
//
//      seq      pc  instruction            DS IS WB RL RI RC CT
//      17   0x1040  addi t0, t0, -1        12 13 14 16 18 19 21
//
//  * Chrome trace_event JSON, which Perfetto and chrome://tracing load,
//    streamed to a FILE* as each lifecycle retires (commits or is
//    squashed), so memory stays bounded by `keep` plus the in-flight
//    window. One simulated cycle is one microsecond of trace time. The
//    P-stream and R-stream are two tracks (tid 0 / 1) of one "reese-sim"
//    process; each lifecycle is a complete ("X") slice from dispatch to
//    writeback on the P track and, when re-executed, one from R-issue to
//    R-compare on the R track, joined by a flow arrow (the paper's P->R
//    separation). Squashes and comparator errors are instant ("i")
//    events. tools/trace_check.py validates the document.
//
// A true-path lifecycle is keyed by its seq. Wrong-path entries carry the
// next true-path seq, so several share one; each is keyed by the RUU slot
// it occupies instead.
#pragma once

#include <cstdio>
#include <deque>
#include <string>
#include <unordered_map>

#include "common/types.h"
#include "isa/instruction.h"

namespace reese::core {

enum class TraceKind : u8 {
  kDispatch,   ///< entered the RUU (functionally executed)
  kIssue,      ///< P-stream issue to a functional unit
  kComplete,   ///< P-stream writeback
  kRelease,    ///< moved into the R-stream Queue
  kRIssue,     ///< R-stream (or duplicate) execution issued
  kRComplete,  ///< R-stream execution compared
  kCommit,     ///< architecturally committed
  kSquash,     ///< wrong-path entry squashed
  kError,      ///< comparator mismatch detected
};

struct TraceEvent {
  TraceKind kind;
  Cycle cycle;
  InstSeq seq;
  u32 slot;  ///< RUU slot; keys a wrong-path lifecycle
  Addr pc;
  isa::Instruction inst;
  bool spec;  ///< event belongs to a wrong-path instruction
};

/// One dispatched instruction: the cycle of each stage (0 = not reached).
struct Lifecycle {
  InstSeq seq = 0;
  u32 slot = 0;  ///< RUU slot at dispatch
  Addr pc = 0;
  isa::Instruction inst;
  bool spec = false;
  bool squashed = false;
  bool error = false;
  Cycle dispatch = 0;
  Cycle issue = 0;
  Cycle complete = 0;
  Cycle release = 0;
  Cycle r_issue = 0;
  Cycle r_complete = 0;
  Cycle commit = 0;

  bool retired() const { return squashed || commit != 0; }
};

class Tracer {
 public:
  /// Keep the last `keep` lifecycles for rows(). With a non-null `chrome`
  /// (not owned; must stay open until finish()), also write the Chrome
  /// trace to it, starting with the JSON prologue now. Only dispatches
  /// with `seq % every_n == 0` open a lifecycle (0 or 1: all), so a
  /// sampled trace holds whole lifecycles.
  explicit Tracer(usize keep, std::FILE* chrome = nullptr, u64 every_n = 1);

  void record(const TraceEvent& event);

  /// Chrome view: write the lifecycles still in flight, in dispatch order,
  /// and close the JSON document. Idempotent; events after it are dropped.
  void finish();

  /// Chrome trace events written so far (metadata included).
  u64 events_emitted() const { return events_emitted_; }

  /// Pipeview: the kept lifecycles, oldest first.
  const std::deque<Lifecycle>& rows() const { return rows_; }

  /// Render rows() as a table; each column is the cycle of one stage
  /// (`.` if it never happened).
  std::string to_string() const;

 private:
  static u64 key(InstSeq seq, u32 slot, bool spec) {
    return spec ? (u64{slot} << 1) | 1 : u64{seq} << 1;
  }

  /// Drop the oldest rows beyond `keep_`; while a Chrome trace is open,
  /// only rows that have retired (and so been written).
  void evict();

  void emit(const std::string& event_json);
  void emit_instant(const char* name, Cycle cycle, InstSeq seq, u32 tid);
  /// Write the slices and flow of one lifecycle that ended at `end`.
  /// `number` is its dispatch ordinal, which makes a wrong-path flow id
  /// unique.
  void emit_lifecycle(const Lifecycle& row, u64 number, Cycle end);

  usize keep_;
  u64 every_n_;
  std::FILE* chrome_;
  bool finished_ = false;
  u64 events_emitted_ = 0;

  std::deque<Lifecycle> rows_;
  /// key -> dispatch ordinal of its most recent row; the row sits at
  /// deque position ordinal - evicted_.
  std::unordered_map<u64, u64> index_;
  u64 evicted_ = 0;  ///< rows dropped off the front so far
};

}  // namespace reese::core
