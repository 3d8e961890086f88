#include "core/trace.h"

#include <algorithm>

#include "common/diag.h"
#include "common/strutil.h"

namespace reese::core {

namespace {

constexpr u32 kPid = 1;
constexpr u32 kPStreamTid = 0;
constexpr u32 kRStreamTid = 1;

std::string metadata_event(const char* name, u32 tid, const char* value) {
  return format(
      "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%u,\"tid\":%u,"
      "\"args\":{\"name\":\"%s\"}}",
      name, kPid, tid, value);
}

}  // namespace

Tracer::Tracer(usize keep, std::FILE* chrome, u64 every_n)
    : keep_(keep), every_n_(every_n == 0 ? 1 : every_n), chrome_(chrome) {
  if (chrome_ == nullptr) return;
  std::fputs("{\"traceEvents\":[\n", chrome_);
  emit(metadata_event("process_name", kPStreamTid, "reese-sim"));
  emit(metadata_event("thread_name", kPStreamTid, "P-stream"));
  emit(metadata_event("thread_name", kRStreamTid, "R-stream"));
}

void Tracer::record(const TraceEvent& event) {
  if (finished_) return;
  const u64 k = key(event.seq, event.slot, event.spec);
  if (event.kind == TraceKind::kDispatch) {
    if (event.seq % every_n_ != 0) {
      // The slot's previous occupant has left: its row must not collect
      // this unselected entry's events.
      index_.erase(k);
      return;
    }
    Lifecycle row;
    row.seq = event.seq;
    row.slot = event.slot;
    row.pc = event.pc;
    row.inst = event.inst;
    row.spec = event.spec;
    row.dispatch = event.cycle;
    // Most recent row wins the index slot (wrong-path slots recur).
    index_[k] = evicted_ + rows_.size();
    rows_.push_back(row);
    evict();
    return;
  }
  const auto it = index_.find(k);
  if (it == index_.end()) return;  // not sampled, or scrolled out
  const u64 number = it->second;
  Lifecycle& row = rows_[number - evicted_];
  switch (event.kind) {
    case TraceKind::kIssue: row.issue = event.cycle; return;
    case TraceKind::kComplete: row.complete = event.cycle; return;
    case TraceKind::kRelease: row.release = event.cycle; return;
    case TraceKind::kRIssue: row.r_issue = event.cycle; return;
    case TraceKind::kRComplete: row.r_complete = event.cycle; return;
    case TraceKind::kError:
      row.error = true;
      // Errors are detected at comparison time, on the R track.
      if (chrome_ != nullptr) {
        emit_instant("error-detected", event.cycle, row.seq, kRStreamTid);
      }
      return;
    case TraceKind::kCommit: row.commit = event.cycle; break;
    case TraceKind::kSquash: row.squashed = true; break;
    case TraceKind::kDispatch: return;
  }
  if (chrome_ == nullptr) return;
  emit_lifecycle(row, number, event.cycle);
  if (row.squashed) emit_instant("squash", event.cycle, row.seq, kPStreamTid);
  evict();
}

void Tracer::evict() {
  while (rows_.size() > keep_ &&
         (chrome_ == nullptr || rows_.front().retired())) {
    const Lifecycle& oldest = rows_.front();
    const auto it = index_.find(key(oldest.seq, oldest.slot, oldest.spec));
    // Drop the index entry only if it still points at the evicted row: a
    // newer row with the same key must keep its mapping.
    if (it != index_.end() && it->second == evicted_) index_.erase(it);
    rows_.pop_front();
    ++evicted_;
  }
}

void Tracer::finish() {
  if (finished_) return;
  finished_ = true;
  if (chrome_ == nullptr) return;
  // The run ended mid-pipeline: write what is still in flight.
  for (usize i = 0; i < rows_.size(); ++i) {
    if (!rows_[i].retired()) {
      emit_lifecycle(rows_[i], evicted_ + i, rows_[i].dispatch);
    }
  }
  std::fputs("\n]}\n", chrome_);
}

void Tracer::emit(const std::string& event_json) {
  if (events_emitted_ != 0) std::fputs(",\n", chrome_);
  std::fputs(event_json.c_str(), chrome_);
  ++events_emitted_;
}

void Tracer::emit_instant(const char* name, Cycle cycle, InstSeq seq,
                          u32 tid) {
  emit(format(
      "{\"name\":\"%s\",\"ph\":\"i\",\"ts\":%llu,\"pid\":%u,\"tid\":%u,"
      "\"s\":\"t\",\"args\":{\"seq\":%llu}}",
      name, static_cast<unsigned long long>(cycle), kPid, tid,
      static_cast<unsigned long long>(seq)));
}

void Tracer::emit_lifecycle(const Lifecycle& row, u64 number, Cycle end) {
  const std::string name = json_escape(isa::disassemble(row.inst));
  const std::string args =
      format("{\"seq\":%llu,\"pc\":\"0x%llx\",\"spec\":%s}",
             static_cast<unsigned long long>(row.seq),
             static_cast<unsigned long long>(row.pc),
             row.spec ? "true" : "false");

  // P-stream slice: dispatch -> writeback, or to where the lifecycle
  // stopped. Perfetto wants dur >= 0; same-cycle stages get dur 0.
  const Cycle p_end =
      row.complete != 0 ? row.complete : std::max(end, row.dispatch);
  emit(format(
      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%llu,"
      "\"dur\":%llu,\"pid\":%u,\"tid\":%u,\"args\":%s}",
      name.c_str(), row.squashed ? "squashed" : "p-stream",
      static_cast<unsigned long long>(row.dispatch),
      static_cast<unsigned long long>(p_end - row.dispatch), kPid,
      kPStreamTid, args.c_str()));

  // R-stream slice + flow arrow, only if the instruction was re-executed.
  if (row.r_issue == 0) return;
  const Cycle r_end = row.r_complete != 0 ? row.r_complete : row.r_issue;
  emit(format(
      "{\"name\":\"%s\",\"cat\":\"r-stream\",\"ph\":\"X\",\"ts\":%llu,"
      "\"dur\":%llu,\"pid\":%u,\"tid\":%u,\"args\":%s}",
      name.c_str(), static_cast<unsigned long long>(row.r_issue),
      static_cast<unsigned long long>(r_end - row.r_issue), kPid,
      kRStreamTid, args.c_str()));
  // Flow arrow from the P-stream writeback to the R-stream comparison: its
  // length in the UI is the paper's P->R separation. Ids must be unique
  // per arrow: seq << 1 on the true path, odd ids from the dispatch
  // ordinal on the wrong path (whose entries share their seq).
  const Cycle flow_start = row.complete != 0 ? row.complete : row.dispatch;
  const u64 flow_id = row.spec ? (number << 1) | 1 : u64{row.seq} << 1;
  emit(format(
      "{\"name\":\"p-to-r\",\"cat\":\"flow\",\"ph\":\"s\",\"ts\":%llu,"
      "\"pid\":%u,\"tid\":%u,\"id\":%llu}",
      static_cast<unsigned long long>(flow_start), kPid, kPStreamTid,
      static_cast<unsigned long long>(flow_id)));
  emit(format(
      "{\"name\":\"p-to-r\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\","
      "\"ts\":%llu,\"pid\":%u,\"tid\":%u,\"id\":%llu}",
      static_cast<unsigned long long>(r_end), kPid, kRStreamTid,
      static_cast<unsigned long long>(flow_id)));
}

std::string Tracer::to_string() const {
  std::string out = format("  %6s %-9s %-26s %7s %7s %7s %7s %7s %7s %7s\n",
                           "seq", "pc", "instruction", "DS", "IS", "WB", "RL",
                           "RI", "RC", "CT");
  auto cell = [](Cycle cycle) {
    return cycle == 0 ? std::string("      .") : format("%7llu",
        static_cast<unsigned long long>(cycle));
  };
  for (const Lifecycle& row : rows_) {
    std::string line = format(
        "  %5llu%c 0x%-7llx %-26s", static_cast<unsigned long long>(row.seq),
        row.spec ? '*' : ' ', static_cast<unsigned long long>(row.pc),
        isa::disassemble(row.inst).c_str());
    line += cell(row.dispatch) + cell(row.issue) + cell(row.complete) +
            cell(row.release) + cell(row.r_issue) + cell(row.r_complete) +
            cell(row.commit);
    if (row.squashed) line += "  SQUASHED";
    if (row.error) line += "  ERROR-DETECTED";
    out += line + "\n";
  }
  return out;
}

}  // namespace reese::core
