// Determinism tests for the parallel experiment grid runner: the result
// matrix (per-cell IPC, cycles, committed counts, stop reasons) must be
// bit-identical no matter how many workers ran it, and a grid whose cells
// stop early fails with the same message at any worker count.
#include "sim/experiment.h"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace reese::sim {
namespace {

ExperimentSpec small_grid(u32 jobs) {
  ExperimentSpec spec;
  spec.title = "parallel determinism grid";
  spec.base = core::starting_config();
  spec.models = {Model::kBaseline, Model::kReese};
  spec.workloads = {"gcc", "li"};
  spec.instructions = 5'000;
  spec.extra_seeds = {0xAB12, 0xCD34};
  spec.jobs = jobs;
  return spec;
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (usize w = 0; w < a.cells.size(); ++w) {
    ASSERT_EQ(a.cells[w].size(), b.cells[w].size());
    for (usize m = 0; m < a.cells[w].size(); ++m) {
      ASSERT_EQ(a.cells[w][m].size(), b.cells[w][m].size());
      for (usize s = 0; s < a.cells[w][m].size(); ++s) {
        const ExperimentCell& lhs = a.cells[w][m][s];
        const ExperimentCell& rhs = b.cells[w][m][s];
        EXPECT_EQ(lhs.ipc, rhs.ipc) << "w=" << w << " m=" << m << " s=" << s;
        EXPECT_EQ(lhs.cycles, rhs.cycles);
        EXPECT_EQ(lhs.committed, rhs.committed);
        EXPECT_EQ(lhs.stop, rhs.stop);
      }
    }
  }
  // The derived matrices must match exactly too (same summation order).
  EXPECT_EQ(a.ipc, b.ipc);
  EXPECT_EQ(a.ipc_stdev, b.ipc_stdev);
}

TEST(ExperimentParallelTest, TwoJobsMatchesSequential) {
  const ExperimentResult seq = run_experiment(small_grid(1));
  const ExperimentResult par = run_experiment(small_grid(2));
  expect_identical(seq, par);
  EXPECT_EQ(seq.cells, par.cells);  // the operator== the perf harness uses
}

TEST(ExperimentParallelTest, HardwareConcurrencyMatchesSequential) {
  const u32 hardware = std::max(1u, std::thread::hardware_concurrency());
  const ExperimentResult seq = run_experiment(small_grid(1));
  const ExperimentResult par = run_experiment(small_grid(hardware));
  expect_identical(seq, par);
}

TEST(ExperimentParallelTest, RepeatedParallelRunsAreStable) {
  const ExperimentResult first = run_experiment(small_grid(4));
  const ExperimentResult second = run_experiment(small_grid(4));
  expect_identical(first, second);
}

TEST(ExperimentParallelTest, CellsRecordPlausibleOutcomes) {
  const ExperimentResult result = run_experiment(small_grid(2));
  for (const auto& per_model : result.cells) {
    for (const auto& per_seed : per_model) {
      for (const ExperimentCell& cell : per_seed) {
        EXPECT_GT(cell.ipc, 0.0);
        EXPECT_GT(cell.cycles, 0u);
        EXPECT_GE(cell.committed, 5'000u);
        EXPECT_EQ(cell.stop, core::StopReason::kCommitTarget);
      }
    }
  }
}

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  for (auto& hit : hits) hit = 0;
  std::mutex mutex;
  std::set<std::thread::id> threads;
  parallel_for(4, hits.size(), [&](usize i) {
    ++hits[i];
    std::lock_guard<std::mutex> lock(mutex);
    threads.insert(std::this_thread::get_id());
  });
  for (usize i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_LE(threads.size(), 4u);
}

TEST(ParallelForTest, SingleWorkerRunsInline) {
  const auto caller = std::this_thread::get_id();
  std::vector<usize> order;
  std::vector<std::thread::id> seen;
  parallel_for(1, 8, [&](usize i) {
    order.push_back(i);
    seen.push_back(std::this_thread::get_id());
  });
  EXPECT_EQ(order, (std::vector<usize>{0, 1, 2, 3, 4, 5, 6, 7}));
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ParallelForTest, ZeroCountIsANoop) {
  parallel_for(2, 0, [](usize) { FAIL() << "must not be called"; });
}

TEST(ResolveJobCountTest, PositiveRequestWins) {
  EXPECT_EQ(resolve_job_count(3), 3u);
  EXPECT_EQ(resolve_job_count(1), 1u);
}

TEST(ResolveJobCountTest, AutoIsAtLeastOne) {
  EXPECT_GE(resolve_job_count(0), 1u);
}

TEST(ExperimentParallelTest, AStoppedCellFailsTheGridAtAnyWorkerCount) {
  // A 500-cycle limit stops every cell long before its commit target.
  setenv("REESE_SIM_CYCLE_LIMIT", "500", 1);
  for (u32 jobs : {1u, 4u}) {
    ExperimentSpec spec = small_grid(jobs);
    // cancel is polled once before each cell starts.
    std::atomic<u32> started{0};
    spec.cancel = [&started] {
      ++started;
      return false;
    };
    const ExperimentResult result = run_experiment(spec);
    EXPECT_FALSE(result.cancelled);
    // The lowest-indexed failure wins, whichever worker finished first.
    EXPECT_EQ(result.error.rfind(
                  "experiment: gcc/Baseline stopped early (cycle-limit) "
                  "after ",
                  0),
              0u)
        << result.error;
    if (jobs == 1) {
      EXPECT_EQ(started.load(), 1u) << "a cell started after a failure";
    }
  }
  unsetenv("REESE_SIM_CYCLE_LIMIT");
}

}  // namespace
}  // namespace reese::sim
