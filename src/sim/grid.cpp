#include "sim/grid.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <mutex>

#include "common/flags.h"
#include "common/snapshot.h"
#include "common/strutil.h"
#include "common/thread_pool.h"

namespace reese::sim {

namespace {

constexpr u32 kDoneRecordTag = 0x444F4E45;  // "DONE"

}  // namespace

GridOutcome run_cells(const char* kind, const GridSpec& spec, usize count,
                      const CellFn& cell) {
  GridOutcome outcome;
  if (!spec.checkpoint.dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(spec.checkpoint.dir, ec);
    if (ec) {
      outcome.error = format("%s: cannot create checkpoint dir %s: %s", kind,
                             spec.checkpoint.dir.c_str(),
                             ec.message().c_str());
      return outcome;
    }
  }

  // The grid counters live in the caller's registry, so a long-lived
  // service accumulates them across jobs.
  metrics::Counter* cells_counter = nullptr;
  metrics::Counter* committed_counter = nullptr;
  if (spec.metrics != nullptr) {
    cells_counter = spec.metrics->counter("reese_grid_cells_completed_total",
                                          {{"kind", kind}},
                                          "Grid cells finished");
    committed_counter = spec.metrics->counter(
        "reese_grid_committed_instructions_total", {{"kind", kind}},
        "Instructions committed across grid cells");
  }

  std::atomic<u64> cells_done{0};
  std::atomic<u64> committed_total{0};
  std::atomic<bool> cancelled{false};
  std::atomic<bool> failed{false};
  std::mutex failure_mutex;
  usize failed_index = std::numeric_limits<usize>::max();
  const auto run_one = [&](usize index) {
    if (failed.load(std::memory_order_relaxed)) return;
    if (spec.cancel &&
        (cancelled.load(std::memory_order_relaxed) || spec.cancel())) {
      cancelled.store(true, std::memory_order_relaxed);
      return;
    }
    std::string error;
    const u64 committed = cell(index, &error);
    if (!error.empty()) {
      // Keep the lowest-indexed failure, so the message does not depend on
      // which worker failed first.
      std::lock_guard<std::mutex> lock(failure_mutex);
      if (index < failed_index) {
        failed_index = index;
        outcome.error = std::move(error);
      }
      failed.store(true, std::memory_order_relaxed);
      return;
    }
    const u64 done = cells_done.fetch_add(1, std::memory_order_relaxed) + 1;
    const u64 committed_now =
        committed_total.fetch_add(committed, std::memory_order_relaxed) +
        committed;
    if (cells_counter != nullptr) cells_counter->inc();
    if (committed_counter != nullptr) committed_counter->inc(committed);
    if (spec.progress) {
      spec.progress({done, static_cast<u64>(count), committed_now});
    }
  };

  parallel_for(resolve_job_count(spec.jobs), count, run_one);
  outcome.cancelled = cancelled.load(std::memory_order_relaxed);
  return outcome;
}

void declare_grid_flags(Flags* flags, GridSpec* spec) {
  flags->jobs("--jobs", &spec->jobs);
  flags->text("--checkpoint-dir", &spec->checkpoint.dir);
  flags->integer("--checkpoint-interval", &spec->checkpoint.interval);
  flags->text("--resume-from", &spec->checkpoint.dir,
              &spec->checkpoint.resume);
}

void save_done_record(const std::string& path, u64 identity,
                      const std::function<void(SnapshotWriter*)>& put_payload) {
  SnapshotWriter writer;
  writer.section(kDoneRecordTag);
  writer.field(identity);
  put_payload(&writer);
  std::string error;
  if (!writer.write_file(path, kSnapshotFormatVersion, &error)) {
    std::fprintf(stderr, "reese: done-record not saved: %s\n", error.c_str());
  }
}

bool load_done_record(
    const std::string& path, u64 identity,
    const std::function<void(SnapshotReader*)>& get_payload) {
  SnapshotReader reader;
  if (!reader.open_file(path, kSnapshotFormatVersion)) return false;
  if (!reader.section(kDoneRecordTag)) return false;
  if (reader.get_u64() != identity) return false;
  get_payload(&reader);
  return reader.ok() && reader.at_end();
}

}  // namespace reese::sim
