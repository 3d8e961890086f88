// Ablation A2 (§4.3): R-stream Queue sizing.
//
// "Since a full R-stream Queue blocks the execution of P instructions, it
// is critical to set the buffer to an appropriate length." This bench
// sweeps the queue size and reports IPC plus the fraction of cycles the
// release stage was blocked by a full queue.
#include <cstdio>

#include "common/stats.h"
#include "sim/simulator.h"
#include "workloads/workload.h"

using namespace reese;

int main() {
  const u64 budget = sim::default_instruction_budget();
  std::printf("A2: R-stream Queue size sweep (starting config + REESE)\n");
  std::printf("  %8s %10s %18s %18s\n", "rq size", "avg IPC",
              "full-stall cycles%", "avg occupancy");
  for (u32 size : {4u, 8u, 16u, 32u, 64u, 128u}) {
    double ipc_sum = 0.0;
    double stall_sum = 0.0;
    double occupancy_sum = 0.0;
    for (const std::string& name : workloads::spec_like_names()) {
      auto workload = workloads::make_workload(name, {});
      core::CoreConfig config = core::with_reese(core::starting_config());
      config.reese.rqueue_size = size;
      sim::Simulator simulator(std::move(workload).value(), config);
      sim::exit_if_stopped_early("abl_rqueue_size", name,
                                 simulator.run(budget / 2));
      const core::CoreStats& stats = simulator.pipeline().stats();
      ipc_sum += stats.ipc();
      stall_sum += safe_ratio(stats.rqueue_full_stall_cycles, stats.cycles);
      occupancy_sum += stats.rqueue_occupancy.mean();
    }
    const double n = static_cast<double>(workloads::spec_like_names().size());
    std::printf("  %8u %10.3f %17.1f%% %18.1f\n", size, ipc_sum / n,
                100.0 * stall_sum / n, occupancy_sum / n);
  }
  return 0;
}
