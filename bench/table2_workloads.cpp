// Table 2: "Benchmark Programs and Inputs" — prints the six SPECint95
// stand-ins with their dynamic instruction mixes (from the golden ISS) so
// the substitution's character is inspectable: branch fraction, load/store
// fraction, multiply density, branch predictability.
#include <cstdio>

#include "core/pipeline.h"
#include "isa/iss.h"
#include "sim/simulator.h"
#include "workloads/workload.h"

using namespace reese;

int main() {
  std::printf("Table 2: benchmark programs (SPECint95 stand-ins)\n");
  std::printf("  %-8s %-38s %7s %7s %7s %7s %7s %9s\n", "name", "mimics",
              "%alu", "%mul/dv", "%load", "%store", "%branch", "mispred%");
  for (const std::string& name : workloads::spec_like_names()) {
    workloads::WorkloadOptions options;
    options.iterations = 20;
    auto made = workloads::make_workload(name, options);
    const workloads::Workload workload = std::move(made).value();

    isa::Iss iss(workload.program);
    iss.run(10'000'000);
    const isa::InstMix& mix = iss.mix();
    const double total = static_cast<double>(mix.total);

    // Branch predictability from a baseline pipeline run.
    workloads::WorkloadOptions forever;
    auto wl2 = workloads::make_workload(name, forever);
    sim::Simulator simulator(std::move(wl2).value(), core::starting_config());
    sim::exit_if_stopped_early(
        "table2_workloads", name,
        simulator.run(sim::default_instruction_budget()));
    const core::CoreStats& stats = simulator.pipeline().stats();

    std::printf("  %-8s %-38s %6.1f%% %6.1f%% %6.1f%% %6.1f%% %6.1f%% %8.2f%%\n",
                workload.name.c_str(), workload.mimics.c_str(),
                100.0 * static_cast<double>(mix.int_alu) / total,
                100.0 * static_cast<double>(mix.int_mul + mix.int_div) / total,
                100.0 * static_cast<double>(mix.loads) / total,
                100.0 * static_cast<double>(mix.stores) / total,
                100.0 * static_cast<double>(mix.cond_branches + mix.jumps) /
                    total,
                100.0 * stats.mispredict_rate());
    std::printf("  %-8s   input: %s\n", "", workload.description.c_str());
  }
  return 0;
}
