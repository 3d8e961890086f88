// Extension E2: seed sensitivity of the headline result.
//
// Our SPEC stand-ins bake seeded random data into their images; the
// paper's benchmarks had fixed inputs. This bench re-runs the Figure 2
// comparison with five different data seeds and reports mean +/- sample
// standard deviation of the average IPC and the REESE gap — showing the
// headline "REESE costs ~15%, spares recover it" is a property of the
// workload *shape*, not of one lucky dataset.
#include <cmath>
#include <cstdio>
#include <string>

#include "common/flags.h"
#include "sim/experiment.h"
#include "sim/grid.h"
#include "sim/simulator.h"

using namespace reese;

int main(int argc, char** argv) {
  sim::ExperimentSpec spec;
  Flags flags("ext_seed_sensitivity");
  sim::declare_grid_flags(&flags, &spec);
  if (const std::string error = flags.parse(argc, argv); !error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  spec.title = "E2: Figure 2 grid across 5 workload-data seeds";
  spec.base = core::starting_config();
  spec.models = {sim::Model::kBaseline, sim::Model::kReese,
                 sim::Model::kReese2Alu};
  spec.instructions = sim::default_instruction_budget() / 2;
  spec.extra_seeds = {0xA11CE, 0xB0B, 0xCAFE, 0xD00D};

  const sim::ExperimentResult result = sim::run_experiment(spec);
  sim::exit_if_failed(result.error);
  std::printf("%s\n", spec.title.c_str());
  std::printf("  %-10s %18s %18s %18s\n", "workload", "Baseline", "REESE",
              "R+2ALU");
  for (usize w = 0; w < result.spec.workloads.size(); ++w) {
    std::printf("  %-10s", result.spec.workloads[w].c_str());
    for (usize m = 0; m < result.spec.models.size(); ++m) {
      std::printf("   %7.3f +-%6.3f", result.ipc[w][m],
                  result.ipc_stdev[w][m]);
    }
    std::printf("\n");
  }
  std::printf("  %-10s", "AV");
  for (usize m = 0; m < result.spec.models.size(); ++m) {
    std::printf("   %7.3f          ", result.average(m));
  }
  std::printf("\n  REESE gap %.1f%%, +2ALU gap %.1f%% (means over 5 seeds)\n",
              result.overhead_pct(1), result.overhead_pct(2));
  return 0;
}
