// Fault-injection demo: bombard a REESE pipeline with transient bit flips
// while it runs the gcc-like workload, and watch the comparator catch them.
//
//   $ ./build/examples/fault_injection_demo [-rate 0.001] [-workload gcc]
//
// Also runs the same campaign on the baseline to show every fault escaping.
#include <cstdio>

#include "common/flags.h"
#include "faults/injector.h"
#include "sim/simulator.h"
#include "workloads/workload.h"

using namespace reese;

int main(int argc, char** argv) {
  FlagSet flags;
  if (auto parsed = flags.parse(argc, argv); !parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.error().to_string().c_str());
    return 2;
  }
  const std::string workload_name = flags.get_string("workload", "gcc");
  const double rate = flags.get_double("rate", 1e-3);
  if (!(rate > 0.0 && rate <= 1.0)) {
    std::fprintf(stderr, "flag -rate: must be in (0, 1], got %s\n",
                 flags.get_string("rate", "").c_str());
    return 2;
  }
  const u64 budget = flags.get_u64("instr", 200'000);

  for (const bool use_reese : {true, false}) {
    auto workload = workloads::make_workload(workload_name, {});
    if (!workload.ok()) {
      std::fprintf(stderr, "%s\n", workload.error().to_string().c_str());
      return 2;
    }
    const core::CoreConfig config =
        use_reese ? core::with_reese(core::starting_config(), 2)
                  : core::starting_config();

    faults::InjectorConfig fault_config;
    fault_config.rate = rate;
    faults::Injector injector(fault_config);

    sim::Simulator simulator(std::move(workload).value(), config);
    simulator.pipeline().set_fault_hook(&injector);
    const sim::SimResult result = simulator.run(budget);

    std::printf("%s on '%s': %llu instructions in %llu cycles (IPC %.3f)\n",
                use_reese ? "REESE" : "baseline", workload_name.c_str(),
                static_cast<unsigned long long>(result.committed),
                static_cast<unsigned long long>(result.cycles), result.ipc);
    std::printf("  faults injected:  %llu\n",
                static_cast<unsigned long long>(injector.injected()));
    std::printf("  faults detected:  %llu (%.1f%% coverage)\n",
                static_cast<unsigned long long>(injector.detected()),
                100.0 * injector.coverage());
    std::printf("  faults escaped:   %llu\n",
                static_cast<unsigned long long>(injector.undetected()));
    if (injector.detected() > 0) {
      std::printf("  %s\n",
                  injector.latency().to_string("detection latency").c_str());
    }
    std::printf("\n");
  }
  return 0;
}
