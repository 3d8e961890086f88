// Table 1: "Simulator options" — prints the starting configuration and
// verifies the paper's idle-capacity premise (§4.1): 30-40% of execution
// resources unused, average throughput around 2 IPC against an 8-wide
// machine.
#include <cstdio>

#include "common/strutil.h"
#include "core/fu_pool.h"
#include "core/pipeline.h"
#include "sim/simulator.h"
#include "workloads/workload.h"

using namespace reese;

int main() {
  const core::CoreConfig config = core::starting_config();
  std::printf("Table 1: starting configuration\n");
  std::printf("  %-28s %u\n", "Fetch Queue Size", config.ifq_size);
  std::printf("  %-28s %u\n", "Max IPC for pipeline stages", config.issue_width);
  std::printf("  %-28s %u entries\n", "RUU size", config.ruu_size);
  std::printf("  %-28s %u entries\n", "LSQ size", config.lsq_size);
  std::printf("  %-28s %u IntAdd, %u IntM/D, %u FPAdd, %u FPM/D\n",
              "Functional units", config.int_alu_count, config.int_mult_count,
              config.fp_alu_count, config.fp_mult_count);
  std::printf("  %-28s %u\n", "Memory ports", config.mem_port_count);
  std::printf("  %-28s %llu KB, %u-way, %u-cycle hit\n", "L1 data cache",
              static_cast<unsigned long long>(config.memory.dl1.size_bytes / 1024),
              config.memory.dl1.associativity, config.memory.dl1.hit_latency);
  std::printf("  %-28s %llu KB, %u-way, %u-cycle hit\n", "L2 cache (shared I/D)",
              static_cast<unsigned long long>(config.memory.ul2.size_bytes / 1024),
              config.memory.ul2.associativity, config.memory.ul2.hit_latency);
  std::printf("  %-28s %llu KB, %u-way, %u-cycle hit\n", "L1 inst cache",
              static_cast<unsigned long long>(config.memory.il1.size_bytes / 1024),
              config.memory.il1.associativity, config.memory.il1.hit_latency);
  std::printf("  %-28s %s (McFarling [26])\n", "Branch predictor",
              branch::predictor_kind_name(config.predictor));
  std::printf("  %-28s 32 GP, 32 FP\n", "Registers");

  std::printf("\nIdle-capacity check on the baseline (paper: ~30-40%% of "
              "hardware idle, ~2 IPC):\n");
  const u64 budget = sim::default_instruction_budget();
  double ipc_sum = 0.0;
  double issue_util_sum = 0.0;
  for (const std::string& name : workloads::spec_like_names()) {
    auto workload = workloads::make_workload(name, {});
    sim::Simulator simulator(std::move(workload).value(), config);
    sim::exit_if_stopped_early("table1_config", name, simulator.run(budget));
    const core::Pipeline& pipeline = simulator.pipeline();
    const core::CoreStats& stats = pipeline.stats();
    const double issue_slots_used =
        stats.issue_per_cycle.mean() / config.issue_width;
    const double alu_util = simulator.pipeline().fu_pool().utilization(
        core::FuKind::kIntAlu, stats.cycles);
    std::printf("  %-8s IPC %.3f | issue slots used %.1f%% | IntALU "
                "utilization %.1f%% (idle %.1f%%)\n",
                name.c_str(), stats.ipc(), 100.0 * issue_slots_used,
                100.0 * alu_util, 100.0 * (1.0 - alu_util));
    ipc_sum += stats.ipc();
    issue_util_sum += issue_slots_used;
  }
  const double n = static_cast<double>(workloads::spec_like_names().size());
  std::printf("  average: IPC %.3f of %u-wide; issue bandwidth idle %.1f%%\n",
              ipc_sum / n, config.issue_width,
              100.0 * (1.0 - issue_util_sum / n));
  return 0;
}
