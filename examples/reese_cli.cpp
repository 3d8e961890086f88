// reese_sim: the full command-line simulator, SimpleScalar style.
//
//   $ ./build/examples/reese_cli -workload li -reese 1 -spare_alus 2
//       [-instr 500000 -ruu 32 -lsq 16 -rqueue 32 -pred gshare ...]
//
// Flags (all optional):
//   -config FILE       read flags from a config file (command line wins)
//   -workload NAME     workload to run (default gcc; see -list)
//   -list              list available workloads and exit
//   -instr N           committed-instruction budget (default 300000)
//   -reese 0|1         enable REESE (default 0 = baseline)
//   -spare_alus N      extra integer ALUs for the REESE model
//   -spare_mults N     extra integer mult/div units
//   -ruu N -lsq N      window sizes
//   -width N           fetch/decode/issue/commit width
//   -ports N           memory ports
//   -rqueue N          R-stream Queue entries
//                      (-ruu takes 2..4096, -lsq/-width/-ports/-rqueue
//                      1..4096; out of range exits 2 naming the flag)
//   -kreexec N         re-execute 1 of every N instructions
//   -early 0|1         early release (default 1)
//   -minsep N          enforced minimum P->R separation
//   -pred NAME         gshare (default), or taken|nottaken to predict every
//                      conditional branch one direction; anything else
//                      exits 2 naming the flag
//   -seed N            workload data seed
//   -fault_rate F      inject faults at rate F per instruction, F in
//                      [0, 1] (0: off)
//   --trace-out FILE   write a Chrome trace_event JSON trace of the run
//                      (open in Perfetto / chrome://tracing; see
//                      tools/trace_check.py)
//   --trace-sample N   with --trace-out: trace every Nth instruction only
//                      (default 1 = all; keeps long runs tractable)
//
// The workloads loop forever, so a run that stops before its -instr budget
// (the cycle limit, HALT or a bad PC) prints why to stderr and exits 1.
#include <cstdio>
#include <cstring>
#include <optional>

#include "common/flags.h"
#include "core/trace.h"
#include "faults/injector.h"
#include "sim/simulator.h"
#include "workloads/workload.h"

using namespace reese;

namespace {

bool pick_predictor(const std::string& name, branch::PredictorKind* out) {
  using branch::PredictorKind;
  for (PredictorKind kind : {PredictorKind::kGshare, PredictorKind::kTaken,
                             PredictorKind::kNotTaken}) {
    if (name == branch::predictor_kind_name(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

/// Upper bound of every core geometry flag: keeps the u32 cast from
/// wrapping and the per-slot allocations bounded.
constexpr u64 kMaxGeometry = 4096;

/// Read geometry flag `name` into `*value` (whose current value is the
/// default), accepting [min, kMaxGeometry]. Out of range: a message naming
/// the flag, and false.
bool read_geometry(const FlagSet& flags, const char* name, u64 min,
                   u32* value) {
  const u64 read = flags.get_u64(name, *value);
  if (read < min || read > kMaxGeometry) {
    std::fprintf(stderr, "flag -%s: must be in [%llu, %llu], got %llu\n",
                 name, static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(kMaxGeometry),
                 static_cast<unsigned long long>(read));
    return false;
  }
  *value = static_cast<u32>(read);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  if (auto parsed = flags.parse(argc, argv); !parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.error().to_string().c_str());
    return 2;
  }
  if (flags.has("config")) {
    if (auto loaded = flags.parse_file(flags.get_string("config", ""));
        !loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.error().to_string().c_str());
      return 2;
    }
  }

  if (flags.get_bool("list", false)) {
    std::printf("available workloads:\n");
    for (const std::string& name : workloads::all_workload_names()) {
      std::printf("  %s\n", name.c_str());
    }
    return 0;
  }

  core::CoreConfig config = core::starting_config();
  u32 width = config.issue_width;
  if (!read_geometry(flags, "ruu", 2, &config.ruu_size) ||
      !read_geometry(flags, "lsq", 1, &config.lsq_size) ||
      !read_geometry(flags, "width", 1, &width) ||
      !read_geometry(flags, "ports", 1, &config.mem_port_count)) {
    return 2;
  }
  config.fetch_width = config.decode_width = width;
  config.issue_width = config.commit_width = width;
  if (flags.has("pred")) {
    const std::string pred = flags.get_string("pred", "gshare");
    if (!pick_predictor(pred, &config.predictor)) {
      std::fprintf(stderr,
                   "flag -pred: must be gshare, taken or nottaken, got %s\n",
                   pred.c_str());
      return 2;
    }
  }
  if (flags.get_bool("reese", false)) {
    config = core::with_reese(
        config, static_cast<u32>(flags.get_u64("spare_alus", 0)),
        static_cast<u32>(flags.get_u64("spare_mults", 0)));
    if (!read_geometry(flags, "rqueue", 1, &config.reese.rqueue_size)) {
      return 2;
    }
    config.reese.reexec_interval =
        static_cast<u32>(flags.get_u64("kreexec", 1));
    config.reese.early_release = flags.get_bool("early", true);
    config.reese.min_separation =
        static_cast<u32>(flags.get_u64("minsep", 0));
  }

  workloads::WorkloadOptions options;
  options.seed = flags.get_u64("seed", 0x5EED5EED);
  auto workload =
      workloads::make_workload(flags.get_string("workload", "gcc"), options);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s (try -list)\n",
                 workload.error().to_string().c_str());
    return 2;
  }

  faults::InjectorConfig fault_config;
  fault_config.rate = flags.get_double("fault_rate", 0.0);
  if (!(fault_config.rate >= 0.0 && fault_config.rate <= 1.0)) {
    std::fprintf(stderr, "flag -fault_rate: must be in [0, 1], got %s\n",
                 flags.get_string("fault_rate", "").c_str());
    return 2;
  }
  faults::Injector injector(fault_config);

  sim::Simulator simulator(std::move(workload).value(), config);
  if (fault_config.rate > 0.0) {
    simulator.pipeline().set_fault_hook(&injector);
  }

  const std::string trace_path = flags.get_string("trace-out", "");
  std::FILE* trace_file = nullptr;
  std::optional<core::Tracer> tracer;
  if (!trace_path.empty()) {
    trace_file = std::fopen(trace_path.c_str(), "wb");
    if (trace_file == nullptr) {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_path.c_str());
      return 2;
    }
    tracer.emplace(0, trace_file, flags.get_u64("trace-sample", 1));
    simulator.pipeline().set_tracer(&*tracer);
  }

  std::printf("workload: %s (%s)\n", simulator.workload().name.c_str(),
              simulator.workload().mimics.c_str());
  std::printf("config:   %s\n\n", config.summary().c_str());

  const sim::SimResult result =
      simulator.run(flags.get_u64("instr", sim::default_instruction_budget()));

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
