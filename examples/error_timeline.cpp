// error_timeline: watch REESE catch a soft error, cycle by cycle.
//
//   $ ./build/examples/error_timeline
//
// Runs a small loop on the REESE pipeline, injects exactly one bit flip
// into a chosen instruction's P-stream result, and prints the pipeline
// timeline around the event — the dispatch/issue/writeback of the primary
// execution, the R-stream re-execution, and the comparator flagging the
// mismatch (ERROR-DETECTED) before commit.
#include <cstdio>

#include "core/pipeline.h"
#include "core/trace.h"
#include "faults/injector.h"
#include "isa/assembler.h"

using namespace reese;

int main() {
  auto assembled = isa::assemble(R"(
main:
  li   t0, 200          # loop counter
  li   t1, 7
loop:
  mul  t2, t1, t1       # some real work to corrupt
  add  t3, t2, t0
  xor  t1, t1, t3
  addi t0, t0, -1
  bnez t0, loop
  out  t1
  halt
)");
  if (!assembled.ok()) {
    std::fprintf(stderr, "%s\n", assembled.error().to_string().c_str());
    return 1;
  }
  const isa::Program program = std::move(assembled).value();

  // Find a committed instruction mid-loop to corrupt: true-path sequence
  // numbers are deterministic, so seq 500 is always the same instruction.
  faults::InjectorConfig fault_config;
  fault_config.schedule = {500};
  fault_config.target = faults::FaultTarget::kPResult;
  faults::Injector injector(fault_config);

  core::Tracer tracer(/*keep=*/600);
  core::Pipeline pipeline(program, core::with_reese(core::starting_config()));
  pipeline.set_fault_hook(&injector);
  pipeline.set_tracer(&tracer);
  pipeline.run(5'000, 500'000);

  std::printf("injected %llu fault(s), detected %llu "
              "(detection latency: %s)\n\n",
              static_cast<unsigned long long>(injector.injected()),
              static_cast<unsigned long long>(injector.detected()),
              injector.latency().count() > 0
                  ? std::to_string(static_cast<unsigned long long>(
                        injector.latency().max())).c_str()
                  : "n/a");

  // Show the timeline window around the corrupted instruction.
  std::printf("timeline around the corrupted instruction (seq 500):\n");
  std::printf("  %6s %-9s %-22s %7s %7s %7s %7s %7s %7s\n", "seq", "pc",
              "instruction", "DS", "IS", "WB", "RI", "RC", "CT");
  for (const auto& row : tracer.rows()) {
    if (row.seq < 495 || row.seq > 505 || row.spec) continue;
    std::printf("  %6llu 0x%-7llx %-22s %7llu %7llu %7llu %7llu %7llu %7llu%s\n",
                static_cast<unsigned long long>(row.seq),
                static_cast<unsigned long long>(row.pc),
                isa::disassemble(row.inst).c_str(),
                static_cast<unsigned long long>(row.dispatch),
                static_cast<unsigned long long>(row.issue),
                static_cast<unsigned long long>(row.complete),
                static_cast<unsigned long long>(row.r_issue),
                static_cast<unsigned long long>(row.r_complete),
                static_cast<unsigned long long>(row.commit),
                row.error ? "   <-- comparator mismatch, error detected"
                          : "");
  }
  return injector.detected() == injector.injected() ? 0 : 1;
}
