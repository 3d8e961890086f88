// Per-layer probes of the traced run. Each one times calls into a layer's
// public functions from outside the program (no tracing inside src/) and
// reads the counts that layer's public stats expose:
//   workloads  make_workload
//   isa        Iss::run, and isa::step to record address/branch streams
//   mem        the recorded stream replayed into a fresh Hierarchy
//   branch     the recorded branches replayed into gshare + BTB
//   core       cells run alone through sim::Simulator (Pipeline::run)
//   faults     the same REESE cell with and without an armed Injector
#include <cstdio>

#include "bench.h"
#include "branch/predictor.h"
#include "common/strutil.h"
#include "faults/injector.h"
#include "isa/executor.h"
#include "isa/iss.h"
#include "mem/hierarchy.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "workloads/workload.h"

namespace perfbench {

using namespace reese;

namespace {

workloads::Workload build(const std::string& name, u64 seed) {
  workloads::WorkloadOptions options;
  options.seed = seed;
  options.iterations = 0;
  return workloads::make_workload(name, options).value();
}

/// Fetch and data addresses plus control outcomes of the first `count`
/// instructions, recorded from isa::step.
struct Streams {
  struct Access {
    Addr addr;
    u8 kind;  ///< 0 fetch, 1 load, 2 store
  };
  struct Branch {
    Addr pc;
    Addr target;
    bool taken;
    bool conditional;
  };
  std::vector<Access> accesses;
  std::vector<Branch> branches;
  u64 instructions = 0;
};

Streams record_streams(const isa::Program& program, u64 count) {
  Streams streams;
  isa::Iss iss(program);
  isa::DirectDataSpace space(&iss.memory());
  isa::ArchState& state = iss.state();
  for (u64 i = 0; i < count && !state.halted && program.contains_pc(state.pc);
       ++i) {
    const Addr pc = state.pc;
    const isa::Instruction& inst = program.at(pc);
    const isa::StepOut out = isa::step(&state, inst, &space);
    streams.accesses.push_back({pc, 0});
    if (isa::is_mem(inst.op)) {
      streams.accesses.push_back(
          {out.compute.addr, static_cast<u8>(isa::is_store(inst.op) ? 2 : 1)});
    }
    if (isa::is_control(inst.op)) {
      streams.branches.push_back({pc, out.compute.target, out.compute.taken,
                                  isa::is_cond_branch(inst.op)});
    }
    ++streams.instructions;
  }
  return streams;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

}  // namespace

CellRun run_cell_alone(const std::string& workload,
                       const core::CoreConfig& config, u64 budget, u64 seed,
                       Trace* trace, u64 span_id, long parent) {
  CellRun run;
  Scope cell(trace, "sim.cell_alone", span_id, parent);
  workloads::Workload image;
  {
    Scope scope(trace, "workloads.make_workload", span_id, cell.index());
    image = build(workload, seed);
  }
  Scope simulate(trace, "core.Pipeline::run", span_id, cell.index());
  sim::Simulator simulator(std::move(image), config);
  const sim::SimResult result = simulator.run(budget);
  run.run_s = simulate.close();
  run.total_s = cell.close();

  core::Pipeline& pipeline = simulator.pipeline();
  run.stats = pipeline.stats();
  mem::Hierarchy& memory = pipeline.hierarchy();
  run.il1_accesses = memory.il1().stats().accesses;
  run.dl1_accesses = memory.dl1().stats().accesses;
  run.dl1_misses = memory.dl1().stats().misses;
  run.ul2_accesses = memory.ul2().stats().accesses;
  run.ul2_misses = memory.ul2().stats().misses;
  run.dtlb_accesses = memory.dtlb().stats().accesses;
  run.dtlb_misses = memory.dtlb().stats().misses;
  run.budget_ok = result.stop == core::StopReason::kCommitTarget &&
                  reached_budget(result.committed, budget, config.commit_width);

  // Functional check, independent of timing: drain, then compare with the
  // golden ISS run of exactly the committed instruction count.
  Scope check(trace, "isa.check_against_iss", span_id, cell.index());
  const bool drained = pipeline.drain_to_barrier();
  isa::Iss iss(simulator.workload().program);
  iss.run(pipeline.stats().committed);
  run.functional_ok =
      drained && pipeline.arch_state().out_hash == iss.state().out_hash &&
      pipeline.memory().content_hash() == iss.memory().content_hash();
  return run;
}

void run_layer_probes(const Options& options, Trace* trace, CellCache* cells,
                      double builds_per_pass, double pass_wall_s,
                      u32 pass_workers, Report* report) {
  const Sizes& sizes = options.sizes;
  const std::vector<std::string>& names = workloads::spec_like_names();
  const u64 budget = sizes.cell_budget;
  const double n = static_cast<double>(names.size());
  u64 id = 10'000;

  // workloads: host time per make_workload.
  for (int rep = 0; rep < sizes.setup_reps; ++rep) {
    for (const std::string& name : names) {
      Scope scope(trace, "workloads.make_workload.probe", id);
      build(name, options.seed);
    }
  }
  const double build_ms = 1e3 * median(trace->durations_s("workloads.make_workload.probe"));
  report->metric("workloads.build_ms", build_ms, "ms");
  report->metric("workloads.build_share",
                 builds_per_pass * build_ms / 1e3 / (pass_workers * pass_wall_s),
                 "ratio");

  // isa, mem and branch: the golden ISS at the cell budget, then the
  // recorded streams replayed into fresh memory and predictor objects.
  u64 accesses = 0;
  u64 cond_branches = 0;
  u64 btb_lookups = 0;
  u64 stream_instructions = 0;
  for (const std::string& name : names) {
    const workloads::Workload image = build(name, options.seed);
    {
      isa::Iss iss(image.program);
      Scope scope(trace, "isa.Iss::run", ++id);
      iss.run(budget);
    }
    const Streams streams = record_streams(image.program, budget);
    stream_instructions += streams.instructions;
    {
      mem::Hierarchy hierarchy(core::starting_config().memory);
      Scope scope(trace, "mem.Hierarchy.replay", id);
      for (const Streams::Access& access : streams.accesses) {
        if (access.kind == 0) {
          hierarchy.inst_access(access.addr);
        } else {
          hierarchy.data_access(access.addr, access.kind == 2);
        }
      }
    }
    accesses += streams.accesses.size();
    const core::CoreConfig config = core::starting_config();
    branch::GsharePredictor gshare(config.gshare_history_bits);
    branch::Btb btb(config.btb_entries, config.btb_associativity);
    {
      Scope scope(trace, "branch.replay", id);
      for (const Streams::Branch& br : streams.branches) {
        if (br.conditional) {
          const branch::BranchPrediction prediction = gshare.predict(br.pc);
          gshare.update(br.pc, br.taken, prediction.meta);
        }
        Addr target = 0;
        btb.lookup(br.pc, &target);
        if (br.taken) btb.update(br.pc, br.target);
      }
    }
    for (const Streams::Branch& br : streams.branches) {
      cond_branches += br.conditional ? 1 : 0;
    }
    btb_lookups += btb.lookups();
  }
  const double step_ns =
      1e9 * trace->total_s("isa.Iss::run") / (n * static_cast<double>(budget));
  const double access_ns =
      1e9 * trace->total_s("mem.Hierarchy.replay") / static_cast<double>(accesses);
  const double predict_ns = 1e9 * trace->total_s("branch.replay") /
                            static_cast<double>(std::max<u64>(cond_branches, 1));
  report->metric("isa.step_ns", step_ns, "ns");
  report->metric("mem.access_ns", access_ns, "ns");
  report->metric("branch.predict_ns", predict_ns, "ns");
  report->metric("branch.btb_lookups_per_inst",
                 static_cast<double>(btb_lookups) / stream_instructions, "count");

  // core: the fig-2 baseline/reese/reese_2alu cells and the fig-7 RUU=256
  // baseline cells, alone, over the six workloads (reused from the
  // workload's own traced pass when it already ran them).
  struct Series {
    const char* name;
    const char* grid;
    core::CoreConfig config;
    sim::Model model;
  };
  const Series series[] = {
      {"baseline", "fig2", core::starting_config(), sim::Model::kBaseline},
      {"reese", "fig2", core::starting_config(), sim::Model::kReese},
      {"reese_2alu", "fig2", core::starting_config(), sim::Model::kReese2Alu},
      {"ruu256", "RUU=256", fig7_config(256, false), sim::Model::kBaseline},
  };
  std::map<std::string, std::vector<const CellRun*>> by_series;
  for (const Series& s : series) {
    for (const std::string& name : names) {
      const std::string key = cell_key(s.grid, sim::model_slug(s.model), name);
      auto it = cells->find(key);
      if (it == cells->end()) {
        const CellRun run =
            run_cell_alone(name, sim::apply_model(s.config, s.model), budget,
                           options.seed, trace, ++id, -1);
        report->check(run.budget_ok && run.functional_ok,
                      "core probe " + key + ": budget or functional check");
        it = cells->emplace(key, run).first;
      }
      by_series[s.name].push_back(&it->second);
    }
  }
  std::map<std::string, double> ns_per_inst;
  for (const Series& s : series) {
    std::vector<double> per_workload;
    for (const CellRun* run : by_series[s.name]) {
      per_workload.push_back(1e9 * run->run_s / run->stats.committed);
    }
    ns_per_inst[s.name] = sum(per_workload) / n;
    report->metric(std::string("core.ns_per_inst.") + s.name,
                   ns_per_inst[s.name], "ns");
  }

  // Deterministic counts: sums over the six workloads.
  struct Totals {
    double committed = 0, cycles = 0, dispatched = 0, committed_r = 0,
           wrongpath = 0, cond = 0, cond_miss = 0, idle = 0, issued_r = 0,
           rqueue_full = 0, il1 = 0, dl1 = 0, dl1_miss = 0, ul2 = 0,
           ul2_miss = 0, dtlb = 0, dtlb_miss = 0, ruu_occ = 0, rq_occ = 0,
           ipc = 0;
  };
  const auto totals = [&](const char* name) {
    Totals t;
    for (usize w = 0; w < names.size(); ++w) {
      const CellRun* run = by_series[name][w];
      const core::CoreStats& s = run->stats;
      t.committed += s.committed;
      t.cycles += s.cycles;
      t.dispatched += s.dispatched;
      t.committed_r += s.committed_r;
      t.wrongpath += s.wrongpath_dispatched;
      t.cond += s.cond_branches_resolved;
      t.cond_miss += s.cond_branch_mispredicts;
      t.idle += s.cycle_classes[static_cast<usize>(core::CycleClass::kIdle)];
      t.issued_r += s.issued_r;
      t.rqueue_full += s.rqueue_full_stall_cycles;
      t.il1 += run->il1_accesses;
      t.dl1 += run->dl1_accesses;
      t.dl1_miss += run->dl1_misses;
      t.ul2 += run->ul2_accesses;
      t.ul2_miss += run->ul2_misses;
      t.dtlb += run->dtlb_accesses;
      t.dtlb_miss += run->dtlb_misses;
      t.ruu_occ += s.ruu_occupancy.mean() / n;
      t.rq_occ += s.rqueue_occupancy.mean() / n;
      t.ipc += s.ipc() / n;
      report->count("core.cycles." + std::string(name) + "." + names[w],
                    static_cast<double>(s.cycles));
    }
    return t;
  };
  const Totals base = totals("baseline");
  const Totals reese = totals("reese");
  const auto count = [&](const std::string& metric, double value,
                         const char* unit = "count") {
    report->metric(metric, value, unit);
    report->count(metric, value);
  };
  const double exec_per_inst_base = (base.dispatched + base.committed_r) /
                                    base.committed;
  count("isa.exec_per_inst",
        (reese.dispatched + reese.committed_r) / reese.committed);
  count("mem.il1_per_inst", base.il1 / base.committed);
  count("mem.dl1_per_inst", base.dl1 / base.committed);
  count("mem.dl1_miss_rate", base.dl1_miss / base.dl1);
  count("mem.ul2_miss_rate", base.ul2_miss / base.ul2);
  count("mem.dtlb_miss_rate", base.dtlb_miss / base.dtlb);
  count("branch.mispredict_rate", base.cond_miss / base.cond);
  count("core.wrongpath_per_inst", base.wrongpath / base.committed);
  count("core.cpi.baseline", base.cycles / base.committed);
  count("core.cpi.reese", reese.cycles / reese.committed);
  count("core.idle_cycle_frac", base.idle / base.cycles);
  count("core.ruu_occupancy_mean", base.ruu_occ);
  count("core.reese.issued_r_per_inst", reese.issued_r / reese.committed);
  count("core.reese.rqueue_occupancy_mean", reese.rq_occ);
  count("core.reese.rqueue_full_frac", reese.rqueue_full / reese.cycles);
  count("core.reese.ipc_overhead_pct", 100.0 * (base.ipc - reese.ipc) / base.ipc,
        "%");
  report->metric("core.reese.tax",
                 ns_per_inst["reese"] / ns_per_inst["baseline"], "ratio");
  report->metric(
      "core.self_ns_per_inst.baseline",
      ns_per_inst["baseline"] - step_ns * exec_per_inst_base -
          access_ns * (base.il1 + base.dl1) / base.committed -
          predict_ns * base.cond / base.committed,
      "ns");

  // faults: one REESE cell per workload with no hook, with a result-flip
  // Injector, and with an R-stream Queue site Injector (the campaign's
  // default rate), interleaved so drift hits all three alike.
  const core::CoreConfig reese_config = core::with_reese(core::starting_config());
  double none_s = 0.0, result_s = 0.0, site_s = 0.0;
  double injected = 0.0, detected = 0.0, resolved = 0.0, committed = 0.0;
  const auto hooked_run = [&](const std::string& name, faults::Injector* hook,
                              const char* span, double* committed_sum) {
    sim::Simulator simulator(build(name, options.seed), reese_config);
    if (hook != nullptr) simulator.pipeline().set_fault_hook(hook);
    Scope scope(trace, span, id);
    const sim::SimResult result = simulator.run(sizes.hook_budget);
    const double elapsed = scope.close();
    report->check(result.stop == core::StopReason::kCommitTarget &&
                      reached_budget(result.committed, sizes.hook_budget,
                                     reese_config.commit_width),
                  std::string("faults probe ") + span + " " + name);
    if (committed_sum != nullptr) *committed_sum += result.committed;
    return elapsed;
  };
  for (const std::string& name : names) {
    ++id;
    none_s += hooked_run(name, nullptr, "faults.cell.none", nullptr);
    faults::InjectorConfig flips;
    flips.rate = 5e-3;
    flips.seed = options.seed;
    faults::Injector result_injector(flips);
    result_s += hooked_run(name, &result_injector, "faults.cell.result",
                           &committed);
    result_injector.finalize_windows();
    injected += result_injector.injected();
    detected += result_injector.detected();
    resolved += result_injector.detected() + result_injector.undetected();
    faults::InjectorConfig strikes = flips;
    strikes.site = core::FaultSite::kRQueue;
    faults::Injector site_injector(strikes);
    site_s += hooked_run(name, &site_injector, "faults.cell.rqueue", nullptr);
  }
  report->metric("faults.hook_overhead_pct.result",
                 100.0 * (result_s / none_s - 1.0), "%");
  report->metric("faults.hook_overhead_pct.rqueue",
                 100.0 * (site_s / none_s - 1.0), "%");
  count("faults.injected_per_kinst", 1e3 * injected / committed);
  count("faults.reese_coverage", detected / std::max(resolved, 1.0));
}

}  // namespace perfbench
