// Ablation A6 (§3 related work): REESE vs Franklin's dual-execution.
//
// Franklin [24] duplicates instructions at the dynamic scheduler: each one
// holds its RUU slot through two executions. REESE's claim to novelty is
// the R-stream Queue, which frees the slot after the first execution and
// schedules the duplicate from a cheap FIFO. This bench puts both schemes
// on the same hardware and reports the overhead of each, with and without
// spare ALUs, on the starting configuration and a 2x window.
#include <cstdio>

#include "sim/experiment.h"
#include "sim/simulator.h"
#include "workloads/workload.h"

using namespace reese;

namespace {

double average_ipc(const core::CoreConfig& config, u64 budget) {
  double sum = 0.0;
  for (const std::string& name : workloads::spec_like_names()) {
    auto workload = workloads::make_workload(name, {});
    sim::Simulator simulator(std::move(workload).value(), config);
    const sim::SimResult result = simulator.run(budget);
    sim::exit_if_stopped_early("abl_franklin", name, result);
    sum += result.ipc;
  }
  return sum / static_cast<double>(workloads::spec_like_names().size());
}

void report(const char* label, core::CoreConfig base, u64 budget) {
  const double baseline = average_ipc(base, budget);

  auto overhead = [&](core::RedundancyScheme scheme, u32 spares) {
    core::CoreConfig config = core::with_reese(base, spares);
    config.reese.scheme = scheme;
    const double ipc = average_ipc(config, budget);
    return 100.0 * (baseline - ipc) / baseline;
  };

  std::printf("  %-22s baseline %.3f | REESE %5.1f%% / +2ALU %5.1f%% | "
              "Franklin %5.1f%% / +2ALU %5.1f%%\n",
              label, baseline,
              overhead(core::RedundancyScheme::kReese, 0),
              overhead(core::RedundancyScheme::kReese, 2),
              overhead(core::RedundancyScheme::kFranklin, 0),
              overhead(core::RedundancyScheme::kFranklin, 2));
}

}  // namespace

int main() {
  const u64 budget = sim::default_instruction_budget() / 2;
  std::printf("A6: REESE vs Franklin dual-execution (average IPC overhead "
              "vs baseline)\n");
  report("starting config", core::starting_config(), budget);

  report("RUU=32, LSQ=16", sim::with_ruu(core::starting_config(), 32), budget);
  report("RUU=64, LSQ=32", sim::with_ruu(core::starting_config(), 64), budget);
  return 0;
}
