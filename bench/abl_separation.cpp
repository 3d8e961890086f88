// Ablation A1 (§2 of the paper): P->R separation.
//
// Detection of a transient of duration Δt is only guaranteed when the P
// and R executions are separated by more than Δt. The paper relies on the
// R-queue traversal delay for separation and never enforces a minimum;
// this bench (a) reports the natural separation distribution and (b)
// sweeps an enforced minimum separation to show the IPC price of
// guaranteeing larger Δt coverage.
#include <cstdio>

#include "sim/simulator.h"
#include "workloads/workload.h"

using namespace reese;

int main() {
  const u64 budget = sim::default_instruction_budget();

  std::printf("A1a: natural P->R issue separation (cycles), starting config\n");
  for (const std::string& name : workloads::spec_like_names()) {
    auto workload = workloads::make_workload(name, {});
    sim::Simulator simulator(std::move(workload).value(),
                             core::with_reese(core::starting_config()));
    sim::exit_if_stopped_early("abl_separation", name, simulator.run(budget));
    const core::CoreStats& stats = simulator.pipeline().stats();
    std::printf("  %-8s mean %6.1f  p50 %4llu  p95 %4llu  min %3llu  "
                "(IPC %.3f)\n",
                name.c_str(), stats.separation.mean(),
                static_cast<unsigned long long>(stats.separation.percentile(0.5)),
                static_cast<unsigned long long>(stats.separation.percentile(0.95)),
                static_cast<unsigned long long>(stats.separation.min()),
                stats.ipc());
  }

  std::printf("\nA1b: enforcing a minimum separation (guaranteed Δt "
              "coverage) vs IPC, averaged over the six benchmarks\n");
  std::printf("  %12s %10s %16s\n", "min_sep", "avg IPC", "avg separation");
  for (u32 min_sep : {0u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    double ipc_sum = 0.0;
    double sep_sum = 0.0;
    for (const std::string& name : workloads::spec_like_names()) {
      auto workload = workloads::make_workload(name, {});
      core::CoreConfig config = core::with_reese(core::starting_config());
      config.reese.min_separation = min_sep;
      sim::Simulator simulator(std::move(workload).value(), config);
      sim::exit_if_stopped_early("abl_separation", name,
                                 simulator.run(budget / 2));
      ipc_sum += simulator.pipeline().stats().ipc();
      sep_sum += simulator.pipeline().stats().separation.mean();
    }
    const double n = static_cast<double>(workloads::spec_like_names().size());
    std::printf("  %12u %10.3f %16.1f\n", min_sep, ipc_sum / n, sep_sum / n);
  }
  return 0;
}
