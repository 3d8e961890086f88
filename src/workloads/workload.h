// Benchmark workloads.
//
// The paper evaluates six SPECint95 integer benchmarks (Table 2: gcc, go,
// ijpeg, li, perl, vortex). Those binaries and inputs are not available to
// this reproduction, so each is substituted by a kernel written in SRV
// assembly that mimics the benchmark's dynamic character — branch
// predictability, pointer-chasing behaviour, multiply density, load/store
// mix and working-set size. See DESIGN.md §3/§4 for the substitution
// argument.
//
// Every workload:
//  * is generated deterministically from a seed (data tables are baked into
//    the .data image at build time),
//  * publishes a checksum through the OUT instruction every iteration, so
//    functional equivalence between the golden ISS and the pipelines is
//    checkable,
//  * runs forever when `iterations == 0` (the bench harness simulates a
//    fixed instruction budget) or HALTs after N iterations (tests).
#pragma once

#include <string>
#include <vector>

#include "common/error.h"
#include "isa/program.h"

namespace reese::workloads {

struct WorkloadOptions {
  u64 seed = 0x5EED5EED;
  /// Outer-loop iterations; 0 = loop forever.
  u64 iterations = 0;
};

struct Workload {
  std::string name;
  std::string mimics;      ///< the SPEC95 benchmark this stands in for
  std::string description; ///< Table 2 "input" column analogue
  isa::Program program;
};

// --- the six SPECint95 stand-ins (Table 2) ---------------------------------

/// gcc: random expression-tree construction + recursive constant folding.
Workload make_gcc_like(const WorkloadOptions& options = {});
/// go: 19x19 board pattern scanning with data-dependent branches.
Workload make_go_like(const WorkloadOptions& options = {});
/// ijpeg: 8x8 integer DCT + quantization over an image.
Workload make_ijpeg_like(const WorkloadOptions& options = {});
/// li: cons-cell list building/reversal/traversal + mark phase.
Workload make_li_like(const WorkloadOptions& options = {});
/// perl: tokenizer + rolling hash + hash-table accounting.
Workload make_perl_like(const WorkloadOptions& options = {});
/// vortex: record store with hashed index, lookups and record copies.
Workload make_vortex_like(const WorkloadOptions& options = {});

// --- FP extension kernels (the paper's §5.2: "We did not study floating
// point programs"; these feed bench/ext_fp_workloads) ------------------------

/// SPECfp95 swim stand-in: 5-point double stencil over a 32x32 grid.
Workload make_swim_like(const WorkloadOptions& options = {});
/// SPECfp95 tomcatv stand-in: sqrt/divide point normalization.
Workload make_tomcatv_like(const WorkloadOptions& options = {});

// --- the two SPECint95 members the paper skipped (extensions) ---------------

/// compress: run-length scanning + dictionary hashing.
Workload make_compress_like(const WorkloadOptions& options = {});
/// m88ksim: interpreter with indirect jump-table dispatch.
Workload make_m88ksim_like(const WorkloadOptions& options = {});

// --- microbenchmarks (tests and ablations) ----------------------------------

Workload make_ilp_chain(const WorkloadOptions& options = {});
Workload make_dep_chain(const WorkloadOptions& options = {});
Workload make_mem_stream(const WorkloadOptions& options = {});
Workload make_pointer_chase(const WorkloadOptions& options = {});
Workload make_branch_torture(const WorkloadOptions& options = {});
Workload make_div_heavy(const WorkloadOptions& options = {});
Workload make_fp_daxpy(const WorkloadOptions& options = {});

// --- registry ----------------------------------------------------------------

/// Names of the six paper benchmarks, in the paper's order.
const std::vector<std::string>& spec_like_names();

/// Names of the FP extension kernels.
const std::vector<std::string>& fp_like_names();

/// Names of every registered workload (spec-like + micro).
const std::vector<std::string>& all_workload_names();

/// Factory by name; Error if unknown.
Result<Workload> make_workload(const std::string& name,
                               const WorkloadOptions& options = {});

}  // namespace reese::workloads
