// asm_runner: assemble and run an SRV assembly file from disk.
//
//   $ ./build/examples/asm_runner examples/asm/hello_sum.s
//   $ ./build/examples/asm_runner -reese 1 -trace 1 examples/asm/fib.s
//
// Runs the program on the golden ISS and (optionally, -pipeline 1, the
// default) on the cycle-accurate pipeline, printing OUT values, the final
// checksum and timing statistics. With -trace 1 every ISS instruction is
// disassembled as it executes (first 200 shown).
//
// Exit status: 0 when each run halted or used up the -instr budget; 1 when
// the ISS left the text segment (a wild jump), the pipeline stopped on a
// bad PC or at its cycle limit, or the pipeline's OUT hash differs from
// the ISS's; 2 on a usage error.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "core/pipeline.h"
#include "core/trace.h"
#include "isa/assembler.h"
#include "isa/executor.h"
#include "isa/iss.h"

using namespace reese;

int main(int argc, char** argv) {
  bool trace = false;
  bool run_pipeline = true;
  bool use_reese = false;
  bool pipetrace = false;
  u64 max_instructions = 10'000'000;
  usize tracecap = 48;
  std::vector<std::string> paths;
  Flags flags("asm_runner");
  flags.binary("-reese", &use_reese);
  flags.binary("-trace", &trace);
  flags.binary("-pipeline", &run_pipeline);
  flags.binary("-pipetrace", &pipetrace);
  flags.integer("-instr", &max_instructions);
  flags.integer("-tracecap", &tracecap);
  flags.operands(&paths);
  if (const std::string error = flags.parse(argc, argv); !error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  if (paths.size() != 1) {
    std::fprintf(stderr,
                 "usage: asm_runner [-reese 0|1] [-trace 0|1] file.s\n");
    return 2;
  }
  const char* path = paths[0].c_str();

  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 2;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();

  auto assembled = isa::assemble(buffer.str());
  if (!assembled.ok()) {
    std::fprintf(stderr, "%s: %s\n", path,
                 assembled.error().to_string().c_str());
    return 1;
  }
  const isa::Program program = std::move(assembled).value();
  std::printf("assembled %zu instructions, %zu data bytes, entry 0x%llx\n",
              program.code.size(), program.data.size(),
              static_cast<unsigned long long>(program.entry));

  isa::Iss iss(program);
  // Traced steps count against the -instr budget, so the ISS and the
  // pipeline run the same instructions.
  u64 shown = 0;
  if (trace) {
    u64 last_out_count = 0;
    while (shown < 200 && shown < max_instructions) {
      if (!program.contains_pc(iss.state().pc)) break;
      const isa::Instruction& inst = program.at(iss.state().pc);
      std::printf("  %06llx: %s\n",
                  static_cast<unsigned long long>(iss.state().pc),
                  isa::disassemble(inst).c_str());
      if (!iss.step_one()) break;
      if (iss.state().out_count != last_out_count) {
        last_out_count = iss.state().out_count;
        std::printf("  OUT -> hash now %016llx\n",
                    static_cast<unsigned long long>(iss.state().out_hash));
      }
      ++shown;
    }
    if (shown == 200) std::printf("  ... (trace capped at 200)\n");
  }
  const isa::IssResult result = iss.run(max_instructions - shown);
  std::printf("ISS: %llu instructions, %llu OUTs, hash %016llx, %s\n",
              static_cast<unsigned long long>(result.executed_instructions),
              static_cast<unsigned long long>(result.out_count),
              static_cast<unsigned long long>(result.out_hash),
              result.halted ? "halted" : (result.bad_pc ? "BAD PC" : "budget"));
  bool failed = result.bad_pc;
  if (result.bad_pc) {
    std::fprintf(stderr, "asm_runner: %s: the ISS stopped on a bad PC\n",
                 path);
  }

  if (run_pipeline) {
    core::CoreConfig config = core::starting_config();
    if (use_reese) config = core::with_reese(config, 2);
    core::Pipeline pipeline(program, config);
    // -pipetrace 1: collect the last N instruction lifecycles and print a
    // SimpleScalar-pipeview-style timeline after the run.
    core::Tracer tracer(tracecap);
    if (pipetrace) pipeline.set_tracer(&tracer);
    const core::StopReason stop =
        pipeline.run(max_instructions, 64 * max_instructions);
    std::printf("\npipeline (%s):\n%s", config.summary().c_str(),
                pipeline.report().c_str());
    if (pipetrace) {
      std::printf("\npipeline timeline (last %zu instructions; DS=dispatch "
                  "IS=issue WB=writeback RI=r-issue RC=compare CT=commit):\n%s",
                  tracer.rows().size(), tracer.to_string().c_str());
    }
    std::printf("stop reason: %s\n", core::stop_reason_name(stop));
    if (stop == core::StopReason::kBadPc ||
        stop == core::StopReason::kCycleLimit) {
      std::fprintf(stderr, "asm_runner: %s: the pipeline stopped early (%s)\n",
                   path, core::stop_reason_name(stop));
      failed = true;
    }
    if (pipeline.arch_state().out_hash != result.out_hash) {
      std::printf("WARNING: pipeline/ISS hash mismatch!\n");
      failed = true;
    }
  }
  return failed ? 1 : 0;
}
