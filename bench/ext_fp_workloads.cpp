// Extension E1: REESE on floating-point workloads.
//
// §5.2 of the paper: "We did not study floating point (FP) programs. [The
// integer benchmarks] help us to focus on how many integer units of spare
// capacity are necessary." This bench runs the question the paper left
// open: on FP-dominated code, how big is REESE's overhead, and is the
// spare hardware it wants FP adders rather than integer ALUs?
//
// Expected shape: FP kernels re-execute their FP operations through the
// (mirrored) 4 FPAdd + 1 FPM/D units; spare *FP* adders should do for FP
// code what spare integer ALUs did for SPECint — and spare integer ALUs
// should do little.
#include <cstdio>

#include "sim/simulator.h"
#include "workloads/workload.h"

using namespace reese;

namespace {

double run_ipc(const std::string& name, const core::CoreConfig& config,
               u64 budget) {
  auto workload = workloads::make_workload(name, {});
  sim::Simulator simulator(std::move(workload).value(), config);
  const sim::SimResult result = simulator.run(budget);
  sim::exit_if_stopped_early("ext_fp_workloads", name, result);
  return result.ipc;
}

}  // namespace

int main() {
  const u64 budget = sim::default_instruction_budget() / 2;
  std::printf("E1: REESE on floating-point workloads (extension; the paper "
              "studied integers only)\n");
  std::printf("  %-10s %9s %9s %12s %12s %12s\n", "workload", "baseline",
              "REESE", "R+2 IntALU", "R+2 FPAdd", "R+2FP+1FPM");

  for (const std::string& name : workloads::fp_like_names()) {
    const double baseline = run_ipc(name, core::starting_config(), budget);

    const double reese =
        run_ipc(name, core::with_reese(core::starting_config()), budget);

    const double int_spares =
        run_ipc(name, core::with_reese(core::starting_config(), 2), budget);

    core::CoreConfig fp_spares = core::with_reese(core::starting_config());
    fp_spares.fp_alu_count += 2;
    const double fp_alu = run_ipc(name, fp_spares, budget);

    core::CoreConfig fp_full = fp_spares;
    fp_full.fp_mult_count += 1;
    const double fp_both = run_ipc(name, fp_full, budget);

    std::printf("  %-10s %9.3f %9.3f %12.3f %12.3f %12.3f\n", name.c_str(),
                baseline, reese, int_spares, fp_alu, fp_both);
  }
  std::printf("\n  (columns: IPC. Spare integer ALUs do nothing for FP "
              "code; where an FP unit binds — tomcatv's unpipelined "
              "sqrt/divide — one spare FP mult/div more than erases the "
              "duplication cost. Bandwidth-bound FP kernels need memory "
              "ports, not arithmetic units.)\n");
  return 0;
}
