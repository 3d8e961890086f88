// Ablation A7 (§7): the cost/benefit table — die area added vs residual
// IPC overhead, for the REESE configurations of interest.
//
// The paper's arithmetic: the R-stream Queue needs slightly more area than
// the RUU; with the RUU at 10% of the die, REESE adds about 20% area for
// 1.5% execution time on large configurations. This bench regenerates
// that trade-off for each hardware point, REESE and Franklin.
#include <cstdio>

#include "core/area.h"
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
    sim::exit_if_stopped_early("abl_area_cost", name, result);
    sum += result.ipc;
  }
  return sum / static_cast<double>(workloads::spec_like_names().size());
}

void row(const char* label, const core::CoreConfig& baseline,
         const core::CoreConfig& config, double baseline_ipc, u64 budget) {
  const double ipc = average_ipc(config, budget);
  const core::AreaEstimate area = core::estimate_area(baseline, config);
  std::printf("  %-28s IPC %.3f (overhead %5.1f%%) | area %s\n", label, ipc,
              100.0 * (baseline_ipc - ipc) / baseline_ipc,
              core::area_report(area).c_str());
}

}  // namespace

int main() {
  const u64 budget = sim::default_instruction_budget() / 2;
  std::printf("A7: die-area cost vs residual execution-time overhead (§7)\n");

  const core::CoreConfig base = core::starting_config();
  const double baseline_ipc = average_ipc(base, budget);
  std::printf("  %-28s IPC %.3f (baseline die = 100%%)\n", "baseline",
              baseline_ipc);

  row("REESE", base, core::with_reese(base), baseline_ipc, budget);
  row("REESE +2 ALU", base, core::with_reese(base, 2), baseline_ipc, budget);
  row("REESE +2 ALU +1 Mult", base, core::with_reese(base, 2, 1),
      baseline_ipc, budget);

  core::CoreConfig big_queue = core::with_reese(base, 2);
  big_queue.reese.rqueue_size = 64;
  row("REESE +2 ALU, 64-entry RQ", base, big_queue, baseline_ipc, budget);

  core::CoreConfig franklin = core::with_reese(base, 2);
  franklin.reese.scheme = core::RedundancyScheme::kFranklin;
  row("Franklin +2 ALU", base, franklin, baseline_ipc, budget);

  std::printf("\n  (§7 expectation: the R-queue needs slightly more area "
              "than the RUU; with the RUU at 10%% of the die, REESE adds "
              "roughly 20%% area in exchange for full instruction-stream "
              "duplication.)\n");
  return 0;
}
