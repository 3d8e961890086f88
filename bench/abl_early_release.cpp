// Ablation A3 (§4.3): early release of completed P instructions.
//
// "The R-stream Queue can be allowed to remove instructions from the
// pipeline before the instructions are ready to commit... This speeds up
// execution, but requires additional hardware complexity." With early
// release off, a P instruction holds its RUU slot until its R copy has
// executed and compared — shrinking the effective out-of-order window.
#include <cstdio>

#include "sim/simulator.h"
#include "workloads/workload.h"

using namespace reese;

int main() {
  const u64 budget = sim::default_instruction_budget();
  std::printf("A3: early release of completed P instructions from the RUU\n");
  std::printf("  %-8s %14s %14s %10s\n", "workload", "early-release",
              "hold-to-commit", "speedup");
  double on_sum = 0.0;
  double off_sum = 0.0;
  for (const std::string& name : workloads::spec_like_names()) {
    double ipc[2];
    for (int early = 0; early < 2; ++early) {
      auto workload = workloads::make_workload(name, {});
      core::CoreConfig config = core::with_reese(core::starting_config());
      config.reese.early_release = (early == 1);
      sim::Simulator simulator(std::move(workload).value(), config);
      sim::exit_if_stopped_early("abl_early_release", name,
                                 simulator.run(budget));
      ipc[early] = simulator.pipeline().stats().ipc();
    }
    std::printf("  %-8s %14.3f %14.3f %9.1f%%\n", name.c_str(), ipc[1], ipc[0],
                100.0 * (ipc[1] / ipc[0] - 1.0));
    on_sum += ipc[1];
    off_sum += ipc[0];
  }
  std::printf("  %-8s %14.3f %14.3f %9.1f%%\n", "AV",
              on_sum / 6.0, off_sum / 6.0,
              100.0 * (on_sum / off_sum - 1.0));
  return 0;
}
