// The out-of-order superscalar core, SimpleScalar sim-outorder style, with
// the REESE extensions.
//
// Pipeline (Figure 1 of the paper):
//
//   Fetch -> Dispatch -> Sched -> Exec/Mem -> Writeback -> [R-Queue] -> Commit
//
// Modelling approach (execution-driven, like sim-outorder):
//  * Instructions execute *functionally, in program order, at dispatch*
//    against the front-end architectural state. The RUU then tracks only
//    timing: register dependencies via a create-vector, structural hazards
//    via the FU pool, memory ordering via the LSQ.
//  * When a branch dispatches and its predicted next-PC differs from the
//    just-computed actual next-PC, the core enters "spec mode": younger
//    instructions keep dispatching down the wrong path against a
//    copy-on-write register/memory overlay (realistic wrong-path cache
//    pollution) until the branch reaches writeback, which squashes them.
//  * REESE: completed P instructions are released from the RUU head into
//    the R-stream Queue carrying operands + result; leftover issue slots
//    and functional units re-execute them in FIFO order; results are
//    compared, then the instruction commits. A full R-queue back-pressures
//    the RUU (the paper's overflow discussion in §4.3).
//
// Stage evaluation order within one cycle is commit, writeback, issue,
// dispatch, fetch (same as sim-outorder's main loop) so results written
// back in cycle N can feed a dependent issue in cycle N.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "branch/predictor.h"
#include "core/config.h"
#include "core/event_queue.h"
#include "core/fault_hook.h"
#include "core/fu_pool.h"
#include "core/ring.h"
#include "core/spec_overlay.h"
#include "core/stats.h"
#include "core/trace.h"
#include "isa/executor.h"
#include "isa/program.h"
#include "mem/hierarchy.h"

namespace reese::core {

/// Why run() returned.
enum class StopReason : u8 {
  kCommitTarget,  ///< reached the requested committed-instruction count
  kHalted,        ///< the program executed HALT
  kBadPc,         ///< the true path left the text segment (program bug)
  kCycleLimit,    ///< safety limit hit (likely a modelling deadlock)
};

const char* stop_reason_name(StopReason reason);

class Pipeline {
 public:
  /// `program` must outlive the pipeline. A fresh memory image is created
  /// and the program's data is loaded into it.
  Pipeline(const isa::Program& program, const CoreConfig& config);
  ~Pipeline();

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Simulate until `commit_target` instructions have committed (or HALT /
  /// bad PC / `cycle_limit` cycles). Callable repeatedly; state persists.
  StopReason run(u64 commit_target, Cycle cycle_limit = ~Cycle{0});

  /// Advance exactly one cycle.
  void cycle();

  /// Assert the five structural invariants that every cycle must leave
  /// intact: the RUU ring's size counts the valid RUU entries, the ready
  /// list holds exactly the valid, unissued, incomplete, operand-ready
  /// slots, LSQ tickets run contiguously from the head's, every R-queue
  /// entry before the issue cursor is issued or skipped, and the cycle
  /// classes sum to the cycle count.
  /// cycle() runs it after every cycle when NDEBUG is unset; with NDEBUG
  /// set it checks nothing.
  void check_invariants() const;

  // --- checkpoint/restore (checkpoint.cpp) --------------------------------

  /// True when no in-flight microarchitectural state remains: fetch queue,
  /// RUU, LSQ, event queues and R-stream queue empty, no wrong-path
  /// speculation, no outstanding R executions.
  bool quiescent() const;

  /// Suppress fetch and keep cycling until quiescent() — the drain barrier
  /// snapshots land on. Drain cycles are part of simulated execution (they
  /// advance the clock and the per-cycle stats deterministically), so two
  /// runs that drain at the same commit counts stay bit-identical whether
  /// or not either was killed and resumed in between. Returns false if the
  /// pipeline fails to quiesce within `limit` cycles (a modelling bug).
  bool drain_to_barrier(Cycle limit = 1'000'000);

  /// Serialize the complete simulation state (architectural state, memory
  /// image, predictor/BTB/RAS, cache/TLB tags, FU pool, the 1-of-k
  /// re-execution counter, stats). Requires quiescent().
  void save_state(SnapshotWriter* writer) const;

  /// Restore save_state() output into this pipeline. The pipeline must be
  /// freshly constructed from the same program and configuration; errors
  /// (truncation, geometry mismatches) latch on the reader.
  void load_state(SnapshotReader* reader);

  const CoreStats& stats() const { return stats_; }
  const CoreConfig& config() const { return config_; }
  mem::Hierarchy& hierarchy() { return *hierarchy_; }
  FuPool& fu_pool() { return fu_pool_; }

  /// Front-end architectural state (the in-order functional machine). After
  /// draining, this is the golden final state for equivalence checks.
  const isa::ArchState& arch_state() const { return front_state_; }
  mem::MainMemory& memory() { return memory_; }

  bool halted() const { return halted_; }

  /// Install a fault-injection hook (may be nullptr). Not owned. The
  /// hook's site() is cached here: a non-kResult site arms the per-cycle
  /// component-strike poll (site_faults.cpp).
  void set_fault_hook(FaultHook* hook) {
    fault_hook_ = hook;
    fault_site_ = hook != nullptr ? hook->site() : FaultSite::kResult;
  }

  /// Install a pipeline tracer (may be nullptr). Not owned.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Multi-line stats report.
  std::string report() const;

 private:
  /// The snapshot layout behind save_state/load_state (core/checkpoint.cpp).
  template <class Self, class Io>
  static void layout(Self& self, Io& io);

  // --- internal structures ----------------------------------------------

  /// A fetched instruction waiting in the fetch queue.
  struct FetchedInst {
    isa::Instruction inst;
    Addr pc = 0;
    Addr predicted_next = 0;
    bool predicted_taken = false;
    u64 pred_meta = 0;
    branch::ReturnAddressStack::Checkpoint ras_checkpoint{};
  };

  /// Handle to an RUU slot that survives slot reuse.
  struct RuuRef {
    u32 slot = 0;
    u32 gen = 0;
  };

  struct Consumer {
    RuuRef ref;
    u8 operand = 0;  ///< 0 = rs1 dependency, 1 = rs2 dependency
  };

  struct RuuEntry {
    bool valid = false;
    u32 gen = 0;
    isa::Instruction inst;
    Addr pc = 0;
    InstSeq seq = 0;
    bool spec = false;

    // Values captured by dispatch-time functional execution.
    u64 rs1_value = 0;
    u64 rs2_value = 0;
    u64 result = 0;
    Addr mem_addr = 0;
    bool taken = false;
    Addr actual_next = 0;

    // Prediction bookkeeping (control instructions).
    bool is_control = false;
    Addr predicted_next = 0;
    bool mispredicted = false;
    u64 pred_meta = 0;
    branch::ReturnAddressStack::Checkpoint ras_checkpoint{};

    // Scheduling state.
    bool dep_ready[2] = {true, true};
    bool issued = false;
    bool completed = false;
    bool released = false;  ///< copied into the R-queue (early release off)
    /// Franklin ([24]): the first of the entry's two executions completed
    /// and forwarded its result; the entry commits after the second.
    /// Never set under the other schemes.
    bool first_done = false;

    /// Id of the unresolved fault this entry carries (0 = none): a strike
    /// into its stored result (kRuu) or effective address (kLsq), or a
    /// Franklin result flip.
    u64 fault = 0;

    Cycle issue_cycle = 0;
    Cycle complete_cycle = 0;
    std::vector<Consumer> consumers;

    bool deps_ready() const { return dep_ready[0] && dep_ready[1]; }
    bool is_load() const { return isa::is_load(inst.op); }
    bool is_store() const { return isa::is_store(inst.op); }

    /// Absolute LSQ ticket (memory ops only): position in the LSQ equals
    /// `lsq_ticket - lsq_ticket_head_`, so plan_load never scans to locate
    /// itself.
    u64 lsq_ticket = 0;

    /// Re-arm a recycled slot for a new dispatch. Only the fields dispatch
    /// does not overwrite are reset — a whole-struct `*this = RuuEntry{}`
    /// copied ~200 bytes per dispatched instruction and dominated the
    /// profile. The consumers vector keeps its capacity (the one heap
    /// block in the entry).
    void reset_for_dispatch(u32 new_gen) {
      consumers.clear();
      valid = true;
      gen = new_gen;
      mispredicted = false;
      dep_ready[0] = dep_ready[1] = true;
      issued = false;
      completed = false;
      released = false;
      fault = 0;
      first_done = false;
      issue_cycle = 0;
      complete_cycle = 0;
    }
  };

  /// An R-stream Queue entry (§4.3 of the paper): a completed P-stream
  /// instruction carrying its operand values and result, so its R-stream
  /// re-execution has no data or control dependencies. Entries issue to
  /// spare functional-unit capacity in FIFO order, are compared against
  /// their stored P result when the re-execution completes, and commit
  /// from the head in program order.
  struct REntry {
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
    /// The fault corrupted the checker's own redundant state (operand
    /// copies, the reexec flag): the architectural value is still correct,
    /// so an escape is masked (possibly with coverage loss) rather than
    /// SDC, and a mismatch is a false-positive detection.
    bool fault_checker_only = false;
  };

  // --- per-stage helpers (pipeline.cpp) -----------------------------------

  void stage_fetch();
  void stage_dispatch();
  void stage_issue();
  void stage_writeback();
  void stage_commit();

  /// Predict the next fetch PC for a just-fetched control instruction and
  /// fill the prediction fields of `fetched`.
  void predict_control(FetchedInst* fetched);
  /// True when gshare predicted `inst` at fetch: the configured predictor
  /// is gshare and `inst` is a conditional branch (jumps use the BTB and
  /// the return-address stack).
  bool gshare_predicts(const isa::Instruction& inst) const {
    return config_.predictor == branch::PredictorKind::kGshare &&
           isa::is_cond_branch(inst.op);
  }

  /// Dispatch-time functional execution of one instruction.
  void execute_at_dispatch(RuuEntry* entry);

  /// Register-dependency linking through the create-vector.
  void link_dependencies(RuuEntry* entry, u32 slot);

  /// Issue plan for a load under LSQ ordering rules: blocked (unknown or
  /// unready older store), forwarded from an older store (1 cycle, no
  /// memory port), or a D-cache access (port + cache latency).
  enum class LoadPlan : u8 { kBlocked, kForward, kCache };
  LoadPlan plan_load(u32 ruu_slot);

  /// An execution of `slot` finished (under Franklin, its first): wake
  /// consumers and resolve branches, then mark it complete, or under
  /// Franklin arm its duplicate execution.
  void complete_entry(u32 slot);

  /// Squash all RUU/LSQ/IFQ entries younger than `branch_slot` and redirect
  /// fetch to the branch's actual target.
  void recover_from_mispredict(u32 branch_slot);

  /// Baseline commit of the RUU head entry (stores write the cache).
  /// Returns false if the head cannot commit this cycle.
  bool commit_head_baseline();

  /// How a corrupted instruction that commits unchecked ends: SDC when the
  /// corrupted state is architecturally consumed — a written destination
  /// register, store data/address, a branch outcome or an OUT operand (the
  /// liveness rule the result-flip injector applies) — and masked
  /// otherwise (x0 writes, HALT/NOP).
  static FaultOutcome escape_outcome(const isa::Instruction& inst);

  // --- REESE (reese.cpp) ---------------------------------------------------

  /// Move completed RUU-head instructions into the R-stream Queue.
  void reese_release();

  /// Issue R-stream instructions into leftover capacity; strict FIFO order.
  /// `budget` is the remaining issue bandwidth this cycle.
  void reese_issue(u32* budget);

  /// The R-stream execution of R-queue slot `slot_index` finished: re-run
  /// the computation, compare with the stored P result, flag mismatches.
  void reese_complete(u32 slot_index);

  /// Final in-order commit from the R-queue head.
  void reese_commit();

  /// True when R-stream should get issue priority this cycle (§4.3's
  /// occupancy counters).
  bool reese_priority() const;

  /// Claim this cycle's functional unit for a redundant execution — an
  /// R-stream instruction or a Franklin duplicate. Loads take a memory port
  /// and re-access the D-cache at `mem_addr` (a poisoned line read there
  /// resolves under `pc`, as SDC only when `architectural`); stores take a
  /// memory port; single-cycle ALU classes hold their unit for
  /// kRFuOccupancy cycles. Returns the completion cycle, or 0 when the
  /// unit is busy.
  Cycle acquire_redundant_unit(const isa::Instruction& inst, Addr pc,
                               Addr mem_addr, bool architectural);

  /// Re-run an instruction from stored operands and compare against the
  /// stored primary result — the comparator shared by the REESE R-stream
  /// and the Franklin dual-execution scheme. `r_flip` is XORed into the
  /// recomputed value (a result flip on the R side). True on a mismatch.
  bool recompute_and_compare(const isa::Instruction& inst, Addr pc,
                             u64 rs1_value, u64 rs2_value, Addr mem_addr,
                             Addr p_next, u64 p_result, u64 load_value,
                             u64 r_flip) const;

  // --- component fault sites (site_faults.cpp) -----------------------------

  /// Poll the hook for a strike and deliver it to the targeted structure.
  /// Called once per cycle (before the stages) when fault_site_ != kResult.
  void poll_site_fault();
  void strike_ruu(const Strike& strike);
  void strike_rqueue(const Strike& strike);
  void strike_lsq(const Strike& strike);
  void strike_predictor(const Strike& strike);
  void strike_btb(const Strike& strike);
  /// Poison a line of struck_cache() (kDCache, kDTlb).
  void strike_cache(const Strike& strike);
  /// The one place a fault ends: report fault `id` to the hook.
  void resolve_fault(u64 id, FaultOutcome outcome, Addr pc) {
    fault_hook_->on_resolved(id, outcome, pc, now_);
  }
  /// After a data_access(), resolve the poison strikes whose lines
  /// struck_cache() saw read (attributed to `pc`) or cleared.
  /// `architectural` is false for wrong-path accesses (a squashed consumer
  /// masks the upset).
  void drain_mem_site_events(Addr pc, bool architectural);
  /// True when the active site poisons memory structures — gates the
  /// drain calls after the four data-access points.
  bool mem_site_armed() const {
    return fault_site_ == FaultSite::kDCache ||
           fault_site_ == FaultSite::kDTlb;
  }
  /// The cache a memory-site campaign poisons: the D-L1, or the D-TLB,
  /// which is a cache of page translations.
  mem::Cache& struck_cache() {
    return fault_site_ == FaultSite::kDCache ? hierarchy_->dl1()
                                             : hierarchy_->dtlb();
  }

  // --- Franklin scheme (franklin.cpp) --------------------------------------

  bool franklin_mode() const {
    return config_.reese.scheme == RedundancyScheme::kFranklin;
  }
  /// The tail of complete_entry for a first execution: store the
  /// comparator's copy and re-arm the entry for its duplicate execution.
  void franklin_arm_duplicate(u32 slot_index);
  /// Second-execution completion: compare and mark committable.
  void franklin_second_completion(u32 slot_index);
  /// Issue the duplicate execution of `entry` (R-stream resource rules).
  /// Returns false if resources are unavailable this cycle.
  bool franklin_issue_second(u32 slot_index);

  // --- small utilities -----------------------------------------------------

  bool ref_alive(const RuuRef& ref) const {
    return ruu_[ref.slot].valid && ruu_[ref.slot].gen == ref.gen;
  }
  void mark_ready(u32 slot_index) {
    ready_[slot_index / 64] |= u64{1} << (slot_index % 64);
  }
  void clear_ready(u32 slot_index) {
    ready_[slot_index / 64] &= ~(u64{1} << (slot_index % 64));
  }
  /// Attempt P-stream issue of one ready RUU slot; decrements `*budget`
  /// on success.
  void try_issue_slot(u32 slot_index, u32* budget);
  /// Free the RUU head slot (entry must be at the head).
  void free_ruu_head();

  void schedule_p_event(Cycle when, RuuRef ref);
  void schedule_r_event(Cycle when, u32 slot_index);

  void enter_spec_mode();

  // --- members -------------------------------------------------------------

  const isa::Program& program_;
  CoreConfig config_;

  mem::MainMemory memory_;
  isa::DirectDataSpace direct_space_{&memory_};
  std::unique_ptr<mem::Hierarchy> hierarchy_;
  FuPool fu_pool_;

  /// Predicts conditional branches unless config_.predictor fixes their
  /// direction.
  branch::GsharePredictor gshare_;
  branch::Btb btb_;
  branch::ReturnAddressStack ras_;

  // Front-end functional state.
  isa::ArchState front_state_;
  bool spec_mode_ = false;
  isa::ArchState spec_state_;  ///< wrong-path register state
  SpecOverlay spec_overlay_{&memory_};
  u32 spec_branch_slot_ = 0;   ///< RUU slot of the mispredicted branch

  // Fetch.
  Addr fetch_pc_;
  Cycle fetch_stall_until_ = 0;
  bool drain_fetch_stall_ = false;  ///< drain_to_barrier() suppresses fetch
  Ring<FetchedInst> ifq_;

  // Decoded-text fast path: the program's instructions are pre-decoded at
  // load; fetch reads them through this cached pointer/bounds pair instead
  // of re-walking Program::contains_pc + Program::at per instruction.
  const isa::Instruction* code_ = nullptr;
  Addr code_base_ = 0;
  usize code_count_ = 0;

  /// contains_pc + at() in one bounds check against the cached text span.
  const isa::Instruction* decoded_at(Addr pc) const {
    const Addr offset = pc - code_base_;
    if ((offset & 3) != 0 || (offset >> 2) >= code_count_) return nullptr;
    return code_ + (offset >> 2);
  }

  /// The RUU. Its size counts the valid entries; RuuRef, the ready list,
  /// the LSQ and the P events name entries by physical slot.
  Ring<RuuEntry> ruu_;

  /// Franklin's comparator copy of an RUU slot's first execution. It lives
  /// beside the RUU, one per slot, and only a Franklin pipeline allocates
  /// it, so no other scheme's entries carry or reset it.
  struct FranklinCopy {
    u64 p_result = 0;  ///< stored first-execution result (the comparator's
                       ///< reference; P flips land here)
    u64 r_flip = 0;    ///< XOR mask for the duplicate's result
  };
  std::vector<FranklinCopy> franklin_copies_;

  /// The LSQ: the RUU slots of the in-flight memory operations, in
  /// program order.
  Ring<u32> lsq_;
  /// Absolute ticket of the LSQ head entry; RuuEntry::lsq_ticket minus this
  /// is the entry's current LSQ position (see plan_load).
  u64 lsq_ticket_head_ = 0;

  /// Ready list: one bit per RUU slot that is valid, unissued, and
  /// operand-ready (`valid && !issued && !completed && deps_ready()`), in
  /// ceil(ruu_size / 64) words — at least one, so the scan never indexes an
  /// empty array if a Release build is handed ruu_size 0 (the constructor's
  /// assert is compiled out there). stage_issue scans these bits in ring
  /// program order instead of walking the multi-cache-line entries of a
  /// mostly in-flight or dependency-blocked window. Maintained at dispatch
  /// (set when ready), consumer wakeup (set when the last operand arrives),
  /// issue (clear), squash/free (clear), and Franklin first completion (set
  /// again — the duplicate execution re-enters the scan).
  std::vector<u64> ready_;

  // Create-vectors: architectural register -> in-flight producer. cv_ is
  // the true-path map; spec_cv_ is its wrong-path shadow (copied on spec
  // entry, discarded at recovery).
  std::vector<RuuRef> cv_;
  std::vector<RuuRef> spec_cv_;

  // Writeback event queues (calendar queues indexed by cycle delta; see
  // event_queue.h for why these are not std::map).
  CalendarQueue<RuuRef> p_events_;
  CalendarQueue<u32> r_events_;  ///< R-queue slots

  // REESE.
  Ring<REntry> rqueue_;
  u64 reexec_counter_ = 0;  ///< rotates over reexec_interval
  /// Position of the first R-queue entry not yet issued or skipped; the
  /// settled prefix before it is never rescanned. Each commit pop moves
  /// every position down by one.
  u32 r_issue_cursor_ = 0;
  u32 rpriority_min_count_ = 0;  ///< kPriorityWatermarkPct as an entry
                                 ///< count (one compare per cycle)

  // Run control.
  Cycle now_ = 0;
  InstSeq next_seq_ = 1;
  bool halted_ = false;
  bool bad_pc_ = false;
  bool fetch_done_ = false;  ///< HALT dispatched on the true path

  FaultHook* fault_hook_ = nullptr;
  /// Cached fault_hook_->site(); kResult keeps the component poll disabled
  /// so legacy campaigns and plain runs pay one branch per cycle.
  FaultSite fault_site_ = FaultSite::kResult;
  /// Fault ids of outstanding D-L1/D-TLB poisons, oldest first: a poison
  /// event resolves the oldest (site_faults.cpp).
  std::vector<u64> mem_poison_pending_;
  Tracer* tracer_ = nullptr;

  /// Emit a trace event for an RUU or R-queue entry if a tracer is
  /// installed. An RUU entry passes its slot, which keys a wrong-path
  /// lifecycle (wrong-path entries share their seq).
  void trace(TraceKind kind, const RuuEntry& entry) {
    if (tracer_ == nullptr) return;
    tracer_->record(TraceEvent{kind, now_, entry.seq,
                               static_cast<u32>(&entry - &ruu_[0]),
                               entry.pc, entry.inst, entry.spec});
  }
  void trace(TraceKind kind, const REntry& entry) {
    if (tracer_ == nullptr) return;
    tracer_->record(
        TraceEvent{kind, now_, entry.seq, 0, entry.pc, entry.inst, false});
  }

  CoreStats stats_;
};

}  // namespace reese::core
