// reese_sim: the full command-line simulator, SimpleScalar style.
//
//   $ ./build/examples/reese_cli -workload li -reese 1 -spare_alus 2
//       [-instr 500000 -ruu 32 -lsq 16 -rqueue 32 -pred gshare ...]
//
// Flags (all optional):
//   -config FILE       read flags from a config file (command line wins)
//   -workload NAME     workload to run (default gcc; see -list)
//   -list              list available workloads and exit
//   -instr N           committed-instruction budget (default 1M, or
//                      $REESE_SIM_INSTR)
//   -reese 0|1         enable REESE (default 0 = baseline)
//   -spare_alus N      extra integer ALUs for the REESE model (0..4096)
//   -spare_mults N     extra integer mult/div units (0..4096)
//   -ruu N -lsq N      window sizes
//   -width N           fetch/decode/issue/commit width
//   -ports N           memory ports
//   -rqueue N          R-stream Queue entries
//                      (-ruu takes 2..4096, -lsq/-width/-ports/-rqueue
//                      1..4096)
//   -kreexec N         re-execute 1 of every N instructions
//   -early 0|1         early release (default 1)
//   -minsep N          enforced minimum P->R separation
//   -pred NAME         gshare (default), or taken|nottaken to predict every
//                      conditional branch one direction
//   -seed N            workload data seed
//   -fault_rate F      inject faults at rate F per instruction, F in
//                      [0, 1] (0: off)
//   --trace-out FILE   write a Chrome trace_event JSON trace of the run
//                      (open in Perfetto / chrome://tracing; see
//                      tools/trace_check.py)
//   --trace-sample N   with --trace-out: trace every Nth instruction only
//                      (default 1 = all; keeps long runs tractable)
//
// Flags follow common/flags.h: -name and --name are the same flag, and an
// unknown flag or a value out of its range exits 2 naming the flag. The
// workloads loop forever, so a run that stops before its -instr budget
// (the cycle limit, HALT or a bad PC) prints why to stderr and exits 1.
#include <cstdio>
#include <optional>
#include <string>

#include "common/flags.h"
#include "core/trace.h"
#include "faults/injector.h"
#include "sim/simulator.h"
#include "workloads/workload.h"

using namespace reese;

/// Upper bound of every core geometry flag, spare units included: keeps
/// the per-slot allocations bounded and the unit counts from wrapping.
constexpr i64 kMaxGeometry = 4096;

int main(int argc, char** argv) {
  core::CoreConfig config = core::starting_config();
  core::ReeseConfig reese = config.reese;  // applied with -reese 1
  u32 width = config.issue_width;
  u32 spare_alus = 0;
  u32 spare_mults = 0;
  bool use_reese = false;
  bool list = false;
  std::string config_path;
  std::string workload_name = "gcc";
  std::string pred = branch::predictor_kind_name(config.predictor);
  workloads::WorkloadOptions options;
  faults::InjectorConfig fault_config;
  u64 instructions = sim::default_instruction_budget();
  std::string trace_path;
  u64 trace_sample = 1;

  Flags flags("reese_cli");
  flags.text("-config", &config_path);
  flags.text("-workload", &workload_name);
  flags.toggle("-list", &list);
  flags.integer("-instr", &instructions);
  flags.binary("-reese", &use_reese);
  flags.integer("-spare_alus", &spare_alus, 0, kMaxGeometry);
  flags.integer("-spare_mults", &spare_mults, 0, kMaxGeometry);
  flags.integer("-ruu", &config.ruu_size, 2, kMaxGeometry);
  flags.integer("-lsq", &config.lsq_size, 1, kMaxGeometry);
  flags.integer("-width", &width, 1, kMaxGeometry);
  flags.integer("-ports", &config.mem_port_count, 1, kMaxGeometry);
  flags.integer("-rqueue", &reese.rqueue_size, 1, kMaxGeometry);
  flags.integer("-kreexec", &reese.reexec_interval);
  flags.binary("-early", &reese.early_release);
  flags.integer("-minsep", &reese.min_separation);
  flags.choice("-pred", &pred, {"gshare", "taken", "nottaken"});
  flags.integer("-seed", &options.seed);
  flags.number("-fault_rate", &fault_config.rate, 0.0, 1.0);
  flags.text("--trace-out", &trace_path);
  flags.integer("--trace-sample", &trace_sample);
  std::string error = flags.parse(argc, argv);
  if (error.empty() && !config_path.empty()) {
    error = flags.parse_file(config_path);
  }
  if (!error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }

  if (list) {
    std::printf("available workloads:\n");
    for (const std::string& name : workloads::all_workload_names()) {
      std::printf("  %s\n", name.c_str());
    }
    return 0;
  }

  config.fetch_width = config.decode_width = width;
  config.issue_width = config.commit_width = width;
  for (branch::PredictorKind kind :
       {branch::PredictorKind::kGshare, branch::PredictorKind::kTaken,
        branch::PredictorKind::kNotTaken}) {
    if (pred == branch::predictor_kind_name(kind)) config.predictor = kind;
  }
  if (use_reese) {
    config.reese = reese;
    config = core::with_reese(config, spare_alus, spare_mults);
  }

  auto workload = workloads::make_workload(workload_name, options);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s (try -list)\n",
                 workload.error().to_string().c_str());
    return 2;
  }

  faults::Injector injector(fault_config);

  sim::Simulator simulator(std::move(workload).value(), config);
  if (fault_config.rate > 0.0) {
    simulator.pipeline().set_fault_hook(&injector);
  }

  std::FILE* trace_file = nullptr;
  std::optional<core::Tracer> tracer;
  if (!trace_path.empty()) {
    trace_file = std::fopen(trace_path.c_str(), "wb");
    if (trace_file == nullptr) {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_path.c_str());
      return 2;
    }
    tracer.emplace(0, trace_file, trace_sample);
    simulator.pipeline().set_tracer(&*tracer);
  }

  std::printf("workload: %s (%s)\n", simulator.workload().name.c_str(),
              simulator.workload().mimics.c_str());
  std::printf("config:   %s\n\n", config.summary().c_str());

  const sim::SimResult result = simulator.run(instructions);

  std::printf("%s", simulator.pipeline().report().c_str());
  if (fault_config.rate > 0.0) {
    std::printf("faults: injected %llu, detected %llu (%.1f%% coverage)\n",
                static_cast<unsigned long long>(injector.injected()),
                static_cast<unsigned long long>(injector.detected()),
                100.0 * injector.coverage());
  }
  if (tracer.has_value()) {
    tracer->finish();
    // A full disk shows up as the stream's error flag or at the final
    // flush in fclose; either way the trace on disk is incomplete.
    const bool written = std::ferror(trace_file) == 0;
    if (std::fclose(trace_file) != 0 || !written) {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("trace:    %s (%llu events)\n", trace_path.c_str(),
                static_cast<unsigned long long>(tracer->events_emitted()));
  }
  std::printf("stop reason: %s\n", core::stop_reason_name(result.stop));
  sim::exit_if_stopped_early("reese_cli", simulator.workload().name, result);
  return 0;
}
