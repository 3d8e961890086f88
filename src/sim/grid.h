// One grid runner (DESIGN.md §9, §14). Every figure and every fault
// campaign is a grid of independent simulations; run_experiment
// (sim/experiment.h) and run_campaign (sim/campaign.h) both run theirs
// through run_cells and keep only what differs between them: how a cell is
// built and simulated, and the bytes of its result.
//
// A finished cell can leave a done-record, a ".done" file in the
// checkpoint directory, so that a resumed grid skips the cell. A record is
// one DONE section holding the cell's identity (cell_identity in
// sim/checkpoint.h) and then the runner's payload. The identity binds every
// value that decides the cell's result, budget included, so a record
// answers only for the cell that wrote it.
#pragma once

#include <functional>
#include <string>

#include "common/metrics.h"
#include "sim/checkpoint.h"

namespace reese {
class Flags;
class SnapshotReader;
class SnapshotWriter;
}  // namespace reese

namespace reese::sim {

struct ProgressUpdate {
  u64 cells_done = 0;    ///< grid cells finished so far
  u64 cells_total = 0;   ///< cells in the whole grid
  u64 committed = 0;     ///< committed instructions across finished cells
};

/// Invoked from whichever worker thread finished the cell, so with
/// `jobs > 1` calls arrive concurrently and possibly out of order (a
/// worker that finished cell 7 may report after the one that finished
/// cell 8). Implementations must be thread-safe and should merge updates
/// as monotonic maxima. Keep it cheap: the worker blocks until it returns.
using ProgressFn = std::function<void(const ProgressUpdate&)>;

/// What every grid spec (ExperimentSpec, CampaignSpec) carries besides the
/// grid itself. Of all this, only the checkpoint interval changes a cell's
/// result.
struct GridSpec {
  /// Worker threads, the calling thread included. 0 = $REESE_JOBS, else
  /// hardware concurrency. Never more workers run than there are cells,
  /// and one runs every cell inline.
  u32 jobs = 0;
  /// Optional cooperative cancellation, polled before each cell starts
  /// (cells are sub-second at service budgets, so this is the natural
  /// preemption granularity). Once it returns true no further cell starts
  /// and the result carries `cancelled = true`, the unstarted cells
  /// zero-filled. Used by the service's per-job wall-clock timeout and
  /// SIGTERM drain.
  std::function<bool()> cancel;
  /// Optional per-finished-cell callback. Observes only: results are
  /// bit-identical with or without a listener.
  ProgressFn progress;
  /// Optional metrics registry: each finished cell bumps the
  /// reese_grid_cells_completed_total and
  /// reese_grid_committed_instructions_total counters, labelled
  /// kind="experiment" or kind="campaign". Must outlive the run.
  metrics::Registry* metrics = nullptr;
  /// Checkpoint policy (DESIGN.md §14). When `dir` is set, every finished
  /// cell writes a done-record there, and with `resume` a cell whose record
  /// matches is replayed instead of simulated. Experiment cells also
  /// snapshot mid-cell every `interval` committed instructions, so a killed
  /// grid continues bit-identically (the interval is part of the result's
  /// identity; see sim/checkpoint.h). Campaign cells are recorded whole and
  /// ignore `interval`: the injector's in-flight fault windows are not part
  /// of the snapshot surface, and campaign cells are short.
  CheckpointOptions checkpoint;
};

/// How a grid run ended, besides the cells it filled in.
struct GridOutcome {
  bool cancelled = false;  ///< GridSpec::cancel fired
  /// Why the grid could not finish, as a one- or two-line message; empty
  /// when nothing failed.
  std::string error;
};

/// A grid cell: fills its own result slot and returns the instructions it
/// committed, or sets `*error` when it cannot finish (its workload cannot
/// be built, its snapshot cannot be restored, or it stopped before its
/// commit target).
using CellFn = std::function<u64(usize index, std::string* error)>;

/// Run cell(0) .. cell(count - 1) across min(workers, count) workers
/// (GridSpec::jobs). A cell must write only its own result slot, so the
/// results do not depend on the worker count or on the order cells
/// finish. Creates the checkpoint directory first, and reports each
/// finished cell to `spec.progress` and the reese_grid_*{kind=`kind`}
/// counters. Once `spec.cancel` fires or a cell fails, no further cell
/// starts and the cells kept from starting are left untouched; the
/// outcome then carries `cancelled`, or the failure of the lowest-indexed
/// cell that failed (or of the checkpoint directory).
GridOutcome run_cells(const char* kind, const GridSpec& spec, usize count,
                      const CellFn& cell);

/// Declare the flags a figure bench's grids share: --jobs N (GridSpec::jobs)
/// and the checkpoint policy, --checkpoint-dir D, --checkpoint-interval N
/// and --resume-from D (which sets the directory and resumes).
void declare_grid_flags(Flags* flags, GridSpec* spec);

/// Write the done-record `path` (atomic temp+rename): one DONE section
/// holding `identity`, then what `put_payload` appends. A failed write
/// warns on stderr; it costs the cell's resumability, not its result.
void save_done_record(const std::string& path, u64 identity,
                      const std::function<void(SnapshotWriter*)>& put_payload);

/// Read the done-record `path`. True only when the file is intact, holds a
/// DONE section written for `identity`, and `get_payload` reads the rest
/// without a reader error and consumes it exactly; `get_payload` should
/// therefore read into a temporary. Any other file (missing, corrupt,
/// written for another cell or in an older record format) returns false,
/// and the caller runs the cell again.
bool load_done_record(const std::string& path, u64 identity,
                      const std::function<void(SnapshotReader*)>& get_payload);

}  // namespace reese::sim
