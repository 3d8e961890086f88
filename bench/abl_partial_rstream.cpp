// Ablation A4 (§7 future work): partial re-execution.
//
// "Future work could explore the possibility of executing less than 100%
// of P-stream instructions in the R stream... This would speed up
// execution, but it would decrease the number of soft errors that REESE
// would be able to detect." This bench sweeps the re-execution interval k
// (re-execute 1 of every k) and reports both the IPC recovered and the
// fault coverage lost, using the fault injector as the measuring stick.
#include <cstdio>

#include "faults/injector.h"
#include "sim/simulator.h"
#include "workloads/workload.h"

using namespace reese;

int main() {
  const u64 budget = sim::default_instruction_budget();
  std::printf("A4: partial re-execution (1 of every k instructions)\n");
  std::printf("  %4s %10s %14s %12s %12s\n", "k", "avg IPC", "vs baseline",
              "coverage", "expected");
  // Baseline (no REESE) reference.
  double base_sum = 0.0;
  for (const std::string& name : workloads::spec_like_names()) {
    auto workload = workloads::make_workload(name, {});
    sim::Simulator simulator(std::move(workload).value(),
                             core::starting_config());
    sim::exit_if_stopped_early("abl_partial_rstream", name,
                               simulator.run(budget / 2));
    base_sum += simulator.pipeline().stats().ipc();
  }
  const double n = static_cast<double>(workloads::spec_like_names().size());
  const double base_avg = base_sum / n;

  for (u32 k : {1u, 2u, 4u, 8u}) {
    double ipc_sum = 0.0;
    u64 detected = 0;
    u64 injected = 0;
    for (const std::string& name : workloads::spec_like_names()) {
      auto workload = workloads::make_workload(name, {});
      core::CoreConfig config = core::with_reese(core::starting_config());
      config.reese.reexec_interval = k;
      faults::InjectorConfig fault_config;
      fault_config.rate = 1e-3;
      fault_config.seed = 0xFA17 + k;
      faults::Injector injector(fault_config);
      sim::Simulator simulator(std::move(workload).value(), config);
      simulator.pipeline().set_fault_hook(&injector);
      sim::exit_if_stopped_early("abl_partial_rstream", name,
                                 simulator.run(budget / 2));
      ipc_sum += simulator.pipeline().stats().ipc();
      detected += injector.detected();
      injected += injector.detected() + injector.undetected();
    }
    std::printf("  %4u %10.3f %13.1f%% %11.1f%% %11.1f%%\n", k, ipc_sum / n,
                100.0 * (ipc_sum / n / base_avg - 1.0),
                100.0 * safe_ratio(detected, injected), 100.0 / k);
  }
  return 0;
}
