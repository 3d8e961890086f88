// Simulation-level checkpoint/restore (DESIGN.md §14).
//
// A snapshot file (common/snapshot.h format) carries a META section — the
// identity of the cell it was taken from (cell_identity of the workload,
// configuration, workload seed and checkpoint interval), so a snapshot is
// only restored into the same cell — followed by the pipeline's complete
// drained state (core/checkpoint.cpp).
//
// run_with_checkpoints() is the resumable replacement for Simulator::run:
// it cuts the instruction budget into `interval`-sized chunks, drains to
// the snapshot barrier after each full chunk, and rewrites the snapshot
// atomically. Draining is deterministic simulated execution, so two runs
// with the same interval commit the same boundaries and produce
// bit-identical results whether or not one of them was killed and resumed
// from the snapshot in between. (A checkpointed run is NOT bit-identical
// to an interval-0 run of the same cell — the drains add cycles — which is
// why the interval is part of the experiment spec, not a transparent knob,
// and part of a finished cell's done-record identity.)
//
// These mid-cell ".snap" files are one of two checkpoint layers. The other,
// one ".done" record per finished grid cell, lives with the cell loop in
// sim/grid.h.
#pragma once

#include <initializer_list>
#include <string>

#include "sim/simulator.h"

namespace reese::sim {

/// Bumped whenever the snapshot payload layout changes; readers reject
/// files with any other version.
inline constexpr u32 kSnapshotFormatVersion = 2;

/// A cell's identity: a hash of the workload name and the configuration
/// summary, chained with `values`, every other value that decides the
/// cell's result. A mid-cell snapshot binds {workload seed, interval}
/// (run_with_checkpoints); a grid runner's done-record binds more
/// (sim/grid.h).
u64 cell_identity(const std::string& workload, const core::CoreConfig& config,
                  std::initializer_list<u64> values);

/// Drain the pipeline to the snapshot barrier and write its state to
/// `path` (atomic temp+rename), bound to `identity`. Returns false with a
/// message in `*error` on drain or I/O failure.
bool save_snapshot(Simulator* simulator, const std::string& path,
                   u64 identity, std::string* error);

/// What load_snapshot found at its path.
enum class SnapshotLoad : u8 {
  kRestored,   ///< the simulator now holds the snapshot's state
  kOtherCell,  ///< an intact snapshot of another identity; nothing restored
  kFailed,     ///< missing, corrupt, truncated or another format version
};

/// Restore `path` into a freshly constructed simulator for the cell whose
/// identity is `identity`. Sets `*error` only on kFailed.
SnapshotLoad load_snapshot(Simulator* simulator, const std::string& path,
                           u64 identity, std::string* error);

/// Checkpoint policy shared by the experiment and campaign runners.
struct CheckpointOptions {
  std::string dir;    ///< directory for snapshot/done files; empty = off
  u64 interval = 0;   ///< committed instructions between snapshots; 0 = only
                      ///< per-cell done records (campaign granularity)
  bool resume = false;  ///< pick up existing snapshots/done records in dir
};

/// Scan argv for "--checkpoint-dir PATH", "--checkpoint-interval N" and
/// "--resume-from PATH" ("--flag=value" also accepted) and return the
/// policy for GridSpec::checkpoint. --resume-from implies the directory and
/// resume=true. A missing value or an interval that is not a non-negative
/// integer prints a message and exits 2. Unrelated arguments are left for
/// the caller.
CheckpointOptions parse_checkpoint_flags(int argc, char** argv);

/// Resumable Simulator::run of a workload built from `seed`. When `resume`
/// and `path` holds this cell's snapshot (same workload, configuration,
/// `seed` and `interval`; the budget may grow), restores it first. A
/// snapshot of another cell is ignored; an unreadable one sets `*error` and
/// returns a zeroed result (the caller must not treat that as a simulation
/// outcome). Then runs to `instructions` total committed, snapshotting to
/// `path` every `interval` committed instructions. `interval == 0` or an
/// empty `path` degrades to a plain run.
SimResult run_with_checkpoints(Simulator* simulator, u64 instructions,
                               u64 seed, u64 interval,
                               const std::string& path, bool resume,
                               std::string* error);

}  // namespace reese::sim
