#include "sim/simulator.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/strutil.h"

namespace reese::sim {

namespace {

/// Environment variable `name` as a positive integer, or 0 when it is unset
/// or empty. Any other value ("1e5", "100k", "-3") is ignored with one
/// warning per process that names the variable; reesed reads these per
/// job, so a bad value never exits.
u64 env_positive(const char* name, std::atomic<bool>* warned) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return 0;
  i64 value = 0;
  if (parse_int(env, &value) && value > 0) return static_cast<u64>(value);
  if (!warned->exchange(true)) {
    std::fprintf(stderr,
                 "reese: ignoring %s=\"%s\": not a positive integer\n", name,
                 env);
  }
  return 0;
}

}  // namespace

Simulator::Simulator(workloads::Workload workload,
                     const core::CoreConfig& config)
    : workload_(std::move(workload)) {
  pipeline_ = std::make_unique<core::Pipeline>(workload_.program, config);
}

SimResult Simulator::run(u64 instructions) {
  SimResult result;
  result.workload = workload_.name;
  result.stop = pipeline_->run(instructions, default_cycle_limit(instructions));
  result.ipc = pipeline_->stats().ipc();
  result.cycles = pipeline_->stats().cycles;
  result.committed = pipeline_->stats().committed;
  return result;
}

void exit_if_stopped_early(const char* tool, const std::string& label,
                           const SimResult& result) {
  if (result.stop == core::StopReason::kCommitTarget) return;
  std::fprintf(stderr,
               "%s: %s stopped early (%s) after %llu insts, %llu cycles\n",
               tool, label.c_str(), core::stop_reason_name(result.stop),
               static_cast<unsigned long long>(result.committed),
               static_cast<unsigned long long>(result.cycles));
  if (result.stop == core::StopReason::kCycleLimit) {
    std::fprintf(stderr,
                 "%s: cycle limit hit at cycle %llu — raise it via "
                 "REESE_SIM_CYCLE_LIMIT\n",
                 tool, static_cast<unsigned long long>(result.cycles));
  }
  std::exit(1);
}

Cycle default_cycle_limit(u64 instructions) {
  static std::atomic<bool> warned{false};
  if (const u64 limit = env_positive("REESE_SIM_CYCLE_LIMIT", &warned)) {
    return limit;
  }
  constexpr Cycle kMaxCycle = std::numeric_limits<Cycle>::max();
  if (instructions > kMaxCycle / 64) {
    std::fprintf(stderr,
                 "reese: 64 x %llu instructions overflows the cycle counter; "
                 "clamping cycle limit to %llu\n",
                 static_cast<unsigned long long>(instructions),
                 static_cast<unsigned long long>(kMaxCycle));
    return kMaxCycle;
  }
  return 64 * instructions;
}

u64 default_instruction_budget() {
  static std::atomic<bool> warned{false};
  if (const u64 budget = env_positive("REESE_SIM_INSTR", &warned)) {
    return budget;
  }
  // Smallest budget at which the figures' per-model overhead converges:
  // at 1M every bar of fig2 is within 0.3pp of a 10M reference run, while
  // 300k is off by up to 0.5pp (see EXPERIMENTS.md).
  return 1'000'000;
}

}  // namespace reese::sim
