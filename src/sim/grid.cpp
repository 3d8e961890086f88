#include "sim/grid.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "common/snapshot.h"
#include "common/thread_pool.h"

namespace reese::sim {

namespace {

constexpr u32 kDoneRecordTag = 0x444F4E45;  // "DONE"

}  // namespace

bool run_cells(const char* kind, const GridSpec& spec, usize count,
               const std::function<u64(usize)>& cell) {
  if (!spec.checkpoint.dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(spec.checkpoint.dir, ec);
    if (ec) {
      std::fprintf(stderr, "%s: cannot create checkpoint dir %s: %s\n", kind,
                   spec.checkpoint.dir.c_str(), ec.message().c_str());
      std::exit(1);
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
  const auto run_one = [&](usize index) {
    if (spec.cancel &&
        (cancelled.load(std::memory_order_relaxed) || spec.cancel())) {
      cancelled.store(true, std::memory_order_relaxed);
      return;
    }
    const u64 committed = cell(index);
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

  const usize workers = std::min<usize>(resolve_job_count(spec.jobs),
                                        std::max<usize>(count, 1));
  ThreadPool pool(static_cast<u32>(workers));
  pool.parallel_for(count, run_one);
  return cancelled.load(std::memory_order_relaxed);
}

void save_done_record(const std::string& path, u64 identity,
                      const std::function<void(SnapshotWriter*)>& put_payload) {
  SnapshotWriter writer;
  writer.put_section(kDoneRecordTag);
  writer.put_u64(identity);
  put_payload(&writer);
  std::string error;
  if (!writer.write_file(path, kSnapshotFormatVersion, &error)) {
    std::fprintf(stderr, "reese: done-record not saved: %s\n", error.c_str());
  }
}

bool load_done_record(
    const std::string& path, u64 identity,
    const std::function<bool(SnapshotReader*)>& get_payload) {
  SnapshotReader reader;
  if (!reader.open_file(path, kSnapshotFormatVersion)) return false;
  if (!reader.expect_section(kDoneRecordTag)) return false;
  if (reader.get_u64() != identity) return false;
  return get_payload(&reader) && reader.ok() && reader.at_end();
}

}  // namespace reese::sim
