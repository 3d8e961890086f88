// Cooperative progress reporting for the grid runners (DESIGN.md §12).
//
// run_experiment / run_campaign invoke an optional ProgressFn once per
// finished grid cell. The callback only observes — it cannot perturb the
// simulation, so reported matrices stay bit-identical with or without a
// listener installed. The service (sim/service.h) uses this to drive
// GET /v1/jobs/<id>/progress while a job is running.
#pragma once

#include <functional>

#include "common/types.h"

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

}  // namespace reese::sim
