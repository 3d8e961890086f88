#include "sim/campaign.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/diag.h"
#include "common/snapshot.h"
#include "common/strutil.h"
#include "sim/simulator.h"

namespace reese::sim {

namespace {

// Latency histogram shape shared with faults::Injector (Histogram{4, 64}).
constexpr u64 kLatencyBucketWidth = 4;
constexpr usize kLatencyBucketCount = 64;

void accumulate_stratum(StratumCount* stratum, const faults::FaultRecord& r) {
  ++stratum->injected;
  if (!r.resolved) return;
  if (r.detected()) {
    ++stratum->detected;
  } else {
    ++stratum->undetected;
  }
}

template <class Stratum, class Io>
void stratum_layout(Stratum& stratum, Io& io) {
  io.field(stratum.injected);
  io.field(stratum.detected);
  io.field(stratum.undetected);
}

template <class Stratum, class Io>
void pc_stratum_layout(Stratum& stratum, Io& io) {
  stratum_layout(stratum, io);
  io.field(stratum.ace);
  io.field(stratum.masked);
  io.field(stratum.window_pending);
  io.field(stratum.window_sum);
}

// The record's two variable-length parts, the latency buckets and the
// by_pc map, are each a count and then the entries.
void latency_buckets(const std::vector<u64>& buckets, SnapshotWriter& writer) {
  writer.field(buckets.size());
  for (u64 bucket : buckets) writer.field(bucket);
}

void latency_buckets(std::vector<u64>& buckets, SnapshotReader& reader) {
  const u64 count = reader.get_u64();
  if (count > kLatencyBucketCount) {
    reader.fail("campaign record holds more than 64 latency buckets");
    return;
  }
  buckets.resize(count);
  for (u64& bucket : buckets) reader.field(bucket);
}

void pc_strata(const std::map<Addr, PcStratum>& by_pc, SnapshotWriter& writer) {
  writer.field(by_pc.size());
  for (const auto& [pc, stratum] : by_pc) {
    writer.field(pc);
    pc_stratum_layout(stratum, writer);
  }
}

void pc_strata(std::map<Addr, PcStratum>& by_pc, SnapshotReader& reader) {
  const u64 count = reader.get_u64();
  for (u64 i = 0; reader.ok() && i < count; ++i) {
    const Addr pc = reader.get_u64();
    pc_stratum_layout(by_pc[pc], reader);
  }
}

/// A campaign cell's done-record payload.
template <class Cell, class Io>
void cell_layout(Cell& cell, Io& io) {
  for (auto* count :
       {&cell.injected, &cell.detected, &cell.undetected, &cell.pending,
        &cell.duplicate_reports, &cell.committed, &cell.cycles, &cell.masked,
        &cell.sdc, &cell.coverage_loss, &cell.latency_sum,
        &cell.latency_count, &cell.latency_min, &cell.latency_max,
        &cell.latency_overflow}) {
    io.field(*count);
  }
  latency_buckets(cell.latency_buckets, io);
  for (auto& stratum : cell.by_class) stratum_layout(stratum, io);
  stratum_layout(cell.p_side, io);
  stratum_layout(cell.r_side, io);
  pc_strata(cell.by_pc, io);
}

}  // namespace

void put_campaign_cell(SnapshotWriter* writer, const CampaignCell& cell) {
  cell_layout(cell, *writer);
}

const char* exec_class_label(usize class_index) {
  static const char* kLabels[kExecClassCount] = {
      "int_alu", "int_mul", "int_div", "fp_add",  "fp_mul",
      "fp_div",  "fp_sqrt", "load",    "store",   "none"};
  static_assert(static_cast<usize>(isa::ExecClass::kNone) ==
                kExecClassCount - 1);
  return class_index < kExecClassCount ? kLabels[class_index] : "?";
}

std::vector<CampaignVariant> standard_campaign_variants() {
  std::vector<CampaignVariant> variants;
  const core::CoreConfig reese = core::with_reese(core::starting_config());

  CampaignVariant p{"reese_p_flips", reese, faults::FaultTarget::kPResult};
  p.expect_full_coverage = true;
  variants.push_back(p);

  CampaignVariant r{"reese_r_flips", reese, faults::FaultTarget::kRResult};
  r.expect_full_coverage = true;
  variants.push_back(r);

  CampaignVariant either{"reese_either", reese, faults::FaultTarget::kEither};
  either.expect_full_coverage = true;
  variants.push_back(either);

  CampaignVariant baseline{"baseline", core::starting_config(),
                           faults::FaultTarget::kEither};
  baseline.expect_zero_coverage = true;
  variants.push_back(baseline);

  core::CoreConfig partial_config = reese;
  partial_config.reese.reexec_interval = 2;
  CampaignVariant partial{"reese_1of2", partial_config,
                          faults::FaultTarget::kEither};
  variants.push_back(partial);

  return variants;
}

std::vector<CampaignVariant> component_base_variants() {
  std::vector<CampaignVariant> bases;
  bases.push_back({"reese", core::with_reese(core::starting_config()),
                   faults::FaultTarget::kEither});
  bases.push_back(
      {"baseline", core::starting_config(), faults::FaultTarget::kEither});
  return bases;
}

bool fault_site_from_name(std::string_view name, core::FaultSite* site) {
  for (usize i = 0; i < core::kFaultSiteCount; ++i) {
    const core::FaultSite candidate = static_cast<core::FaultSite>(i);
    if (name == core::fault_site_name(candidate)) {
      *site = candidate;
      return true;
    }
  }
  return false;
}

bool campaign_variant_by_label(const std::string& label,
                               CampaignVariant* out) {
  for (const CampaignVariant& variant : standard_campaign_variants()) {
    if (variant.label == label) {
      *out = variant;
      return true;
    }
  }
  // Component form "base@site", e.g. "reese@rqueue". The '@' never appears
  // in a standard label, so the two namespaces cannot collide.
  const usize at = label.find('@');
  if (at == std::string::npos) return false;
  const std::string base_name = label.substr(0, at);
  core::FaultSite site;
  if (!fault_site_from_name(label.substr(at + 1), &site)) return false;
  for (const CampaignVariant& base : component_base_variants()) {
    if (base.label != base_name) continue;
    *out = base;
    out->label = label;
    out->site = site;
    return true;
  }
  return false;
}

u64 derive_cell_seed(u64 campaign_seed, usize variant_index,
                     usize workload_index, usize replica) {
  // Chain one SplitMix64 step per component: each index perturbs the state
  // through the full avalanche, so neighbouring cells get unrelated
  // streams. The +1 offsets keep index 0 from degenerating into a no-op.
  u64 state = campaign_seed;
  for (u64 component :
       {static_cast<u64>(variant_index) + 1,
        static_cast<u64>(workload_index) + 1, static_cast<u64>(replica) + 1}) {
    SplitMix64 rng(state ^ component * 0x9E3779B97F4A7C15ULL);
    state = rng.next();
  }
  return state;
}

void CampaignCell::merge(const CampaignCell& other) {
  injected += other.injected;
  detected += other.detected;
  undetected += other.undetected;
  pending += other.pending;
  duplicate_reports += other.duplicate_reports;
  committed += other.committed;
  cycles += other.cycles;
  masked += other.masked;
  sdc += other.sdc;
  coverage_loss += other.coverage_loss;

  latency_sum += other.latency_sum;
  if (other.latency_count > 0) {
    latency_min = latency_count == 0 ? other.latency_min
                                     : std::min(latency_min, other.latency_min);
    latency_max = std::max(latency_max, other.latency_max);
  }
  latency_count += other.latency_count;
  latency_overflow += other.latency_overflow;
  if (latency_buckets.empty()) {
    latency_buckets = other.latency_buckets;
  } else if (!other.latency_buckets.empty()) {
    assert(latency_buckets.size() == other.latency_buckets.size());
    for (usize i = 0; i < latency_buckets.size(); ++i) {
      latency_buckets[i] += other.latency_buckets[i];
    }
  }

  for (usize c = 0; c < kExecClassCount; ++c) {
    by_class[c].injected += other.by_class[c].injected;
    by_class[c].detected += other.by_class[c].detected;
    by_class[c].undetected += other.by_class[c].undetected;
  }
  for (auto [mine, theirs] :
       {std::pair{&p_side, &other.p_side}, std::pair{&r_side, &other.r_side}}) {
    mine->injected += theirs->injected;
    mine->detected += theirs->detected;
    mine->undetected += theirs->undetected;
  }
  for (const auto& [pc, theirs] : other.by_pc) {
    PcStratum& mine = by_pc[pc];
    mine.injected += theirs.injected;
    mine.detected += theirs.detected;
    mine.undetected += theirs.undetected;
    mine.ace += theirs.ace;
    mine.masked += theirs.masked;
    mine.window_pending += theirs.window_pending;
    mine.window_sum += theirs.window_sum;
  }
}

CampaignCell CampaignResult::variant_total(usize variant_index) const {
  CampaignCell total;
  for (const auto& replicas : matrix.cells[variant_index]) {
    for (const CampaignCell& cell : replicas) total.merge(cell);
  }
  return total;
}

CampaignCell CampaignResult::workload_total(usize variant_index,
                                            usize workload_index) const {
  CampaignCell total;
  for (const CampaignCell& cell : matrix.cells[variant_index][workload_index]) {
    total.merge(cell);
  }
  return total;
}

u64 CampaignResult::total_injections() const {
  u64 total = 0;
  for (usize v = 0; v < matrix.cells.size(); ++v) {
    total += variant_total(v).injected;
  }
  return total;
}

u64 CampaignResult::latency_percentile(const CampaignCell& cell,
                                       double fraction) {
  if (cell.latency_count == 0) return 0;
  // Nearest-rank, matching Histogram::percentile: samples in the overflow
  // bucket clamp the percentile to latency_max instead of vanishing.
  const u64 target = std::max<u64>(
      1, static_cast<u64>(std::ceil(
             fraction * static_cast<double>(cell.latency_count))));
  u64 seen = 0;
  for (usize i = 0; i < cell.latency_buckets.size(); ++i) {
    seen += cell.latency_buckets[i];
    if (seen >= target) return (i + 1) * kLatencyBucketWidth - 1;
  }
  return cell.latency_max;
}

std::string CampaignResult::table() const {
  std::string out =
      format("Fault campaign: %llu injections over %zu variants x %zu "
             "workloads x %u replicas (%llu instr/cell, rate %.0e, seed "
             "0x%llx)\n",
             static_cast<unsigned long long>(total_injections()),
             spec.variants.size(), spec.workloads.size(), spec.replicas,
             static_cast<unsigned long long>(spec.instructions), spec.rate,
             static_cast<unsigned long long>(spec.seed));
  out += format("  %-16s %9s %9s %8s %8s  %8s  %-17s %8s %6s\n", "variant",
                "injected", "detected", "escaped", "pending", "coverage",
                "wilson95", "mean lat", "p95");
  for (usize v = 0; v < spec.variants.size(); ++v) {
    const CampaignCell total = variant_total(v);
    const WilsonInterval ci = wilson_interval(total.detected, total.resolved());
    out += format(
        "  %-16s %9llu %9llu %8llu %8llu  %7.3f%%  [%6.3f%%,%7.3f%%] "
        "%7.1fcy %5llu\n",
        spec.variants[v].label.c_str(),
        static_cast<unsigned long long>(total.injected),
        static_cast<unsigned long long>(total.detected),
        static_cast<unsigned long long>(total.undetected),
        static_cast<unsigned long long>(total.pending),
        100.0 * total.coverage(), 100.0 * ci.lower, 100.0 * ci.upper,
        safe_ratio(total.latency_sum, total.latency_count),
        static_cast<unsigned long long>(latency_percentile(total, 0.95)));
  }
  return out;
}

std::string CampaignResult::json() const {
  std::string out = "{\n";
  out += "  \"schema\": \"reese-fault-campaign-v1\",\n";
  out += format("  \"seed\": %llu,\n",
                static_cast<unsigned long long>(spec.seed));
  out += format("  \"instructions\": %llu,\n",
                static_cast<unsigned long long>(spec.instructions));
  out += format("  \"replicas\": %u,\n", spec.replicas);
  out += format("  \"rate\": %g,\n", spec.rate);
  out += format("  \"quick\": %s,\n", spec.quick ? "true" : "false");
  out += format("  \"total_injections\": %llu,\n",
                static_cast<unsigned long long>(total_injections()));
  out += "  \"variants\": [\n";
  for (usize v = 0; v < spec.variants.size(); ++v) {
    const CampaignVariant& variant = spec.variants[v];
    const CampaignCell total = variant_total(v);
    const WilsonInterval ci = wilson_interval(total.detected, total.resolved());
    out += "    {\n";
    out += format("      \"label\": \"%s\",\n",
                  json_escape(variant.label).c_str());
    out += format("      \"target\": \"%s\",\n",
                  faults::fault_target_name(variant.target));
    out += format("      \"site\": \"%s\",\n",
                  core::fault_site_name(variant.site));
    out += format("      \"expect_full_coverage\": %s,\n",
                  variant.expect_full_coverage ? "true" : "false");
    out += format("      \"expect_zero_coverage\": %s,\n",
                  variant.expect_zero_coverage ? "true" : "false");
    out += format("      \"injected\": %llu,\n",
                  static_cast<unsigned long long>(total.injected));
    out += format("      \"detected\": %llu,\n",
                  static_cast<unsigned long long>(total.detected));
    out += format("      \"undetected\": %llu,\n",
                  static_cast<unsigned long long>(total.undetected));
    out += format("      \"pending\": %llu,\n",
                  static_cast<unsigned long long>(total.pending));
    out += format("      \"masked\": %llu,\n",
                  static_cast<unsigned long long>(total.masked));
    out += format("      \"sdc\": %llu,\n",
                  static_cast<unsigned long long>(total.sdc));
    out += format("      \"coverage_loss\": %llu,\n",
                  static_cast<unsigned long long>(total.coverage_loss));
    out += format("      \"coverage\": %.6f,\n", total.coverage());
    out += format("      \"wilson_lower\": %.6f,\n", ci.lower);
    out += format("      \"wilson_upper\": %.6f,\n", ci.upper);
    out += format("      \"mean_latency\": %.3f,\n",
                  safe_ratio(total.latency_sum, total.latency_count));
    out += format("      \"p95_latency\": %llu,\n",
                  static_cast<unsigned long long>(
                      latency_percentile(total, 0.95)));
    out += format("      \"max_latency\": %llu,\n",
                  static_cast<unsigned long long>(total.latency_max));
    out += "      \"by_class\": [\n";
    bool first = true;
    for (usize c = 0; c < kExecClassCount; ++c) {
      const StratumCount& stratum = total.by_class[c];
      if (stratum.injected == 0) continue;
      out += format("        %s{\"class\": \"%s\", \"injected\": %llu, "
                    "\"detected\": %llu, \"undetected\": %llu}",
                    first ? "" : ",", exec_class_label(c),
                    static_cast<unsigned long long>(stratum.injected),
                    static_cast<unsigned long long>(stratum.detected),
                    static_cast<unsigned long long>(stratum.undetected));
      out += "\n";
      first = false;
    }
    out += "      ],\n";
    out += "      \"by_side\": {\n";
    out += format("        \"p\": {\"injected\": %llu, \"detected\": %llu, "
                  "\"undetected\": %llu},\n",
                  static_cast<unsigned long long>(total.p_side.injected),
                  static_cast<unsigned long long>(total.p_side.detected),
                  static_cast<unsigned long long>(total.p_side.undetected));
    out += format("        \"r\": {\"injected\": %llu, \"detected\": %llu, "
                  "\"undetected\": %llu}\n",
                  static_cast<unsigned long long>(total.r_side.injected),
                  static_cast<unsigned long long>(total.r_side.detected),
                  static_cast<unsigned long long>(total.r_side.undetected));
    out += "      },\n";
    out += "      \"workloads\": [\n";
    for (usize w = 0; w < spec.workloads.size(); ++w) {
      const CampaignCell wl = workload_total(v, w);
      out += format("        {\"workload\": \"%s\", \"injected\": %llu, "
                    "\"detected\": %llu, \"undetected\": %llu, "
                    "\"coverage\": %.6f}%s\n",
                    json_escape(spec.workloads[w]).c_str(),
                    static_cast<unsigned long long>(wl.injected),
                    static_cast<unsigned long long>(wl.detected),
                    static_cast<unsigned long long>(wl.undetected),
                    wl.coverage(), w + 1 < spec.workloads.size() ? "," : "");
    }
    out += "      ]\n";
    out += format("    }%s\n", v + 1 < spec.variants.size() ? "," : "");
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

std::string CampaignResult::csv() const {
  std::string out =
      "variant,injected,detected,undetected,pending,masked,sdc,"
      "coverage_loss,coverage,wilson_lower,wilson_upper,mean_latency,"
      "p95_latency\n";
  for (usize v = 0; v < spec.variants.size(); ++v) {
    const CampaignCell total = variant_total(v);
    const WilsonInterval ci = wilson_interval(total.detected, total.resolved());
    out += format("%s,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%.6f,%.6f,%.6f,"
                  "%.3f,%llu\n",
                  spec.variants[v].label.c_str(),
                  static_cast<unsigned long long>(total.injected),
                  static_cast<unsigned long long>(total.detected),
                  static_cast<unsigned long long>(total.undetected),
                  static_cast<unsigned long long>(total.pending),
                  static_cast<unsigned long long>(total.masked),
                  static_cast<unsigned long long>(total.sdc),
                  static_cast<unsigned long long>(total.coverage_loss),
                  total.coverage(), ci.lower, ci.upper,
                  safe_ratio(total.latency_sum, total.latency_count),
                  static_cast<unsigned long long>(
                      latency_percentile(total, 0.95)));
  }
  return out;
}

CampaignSpec resolve_campaign_defaults(const CampaignSpec& spec_in) {
  CampaignSpec spec = spec_in;
  if (!spec.sites.empty()) {
    // Component axis: cross (base × site). Labels become "base@site" —
    // the form campaign_variant_by_label resolves, which is how these
    // variants travel through a service spec.
    const std::vector<CampaignVariant> bases =
        spec.variants.empty() ? component_base_variants() : spec.variants;
    spec.variants.clear();
    for (const CampaignVariant& base : bases) {
      for (core::FaultSite site : spec.sites) {
        CampaignVariant variant = base;
        variant.label =
            base.label + "@" + core::fault_site_name(site);
        variant.site = site;
        // Coverage expectations are statements about the result-flip
        // model; site outcomes are judged by the masked/detected/SDC
        // lattice instead.
        variant.expect_full_coverage = false;
        variant.expect_zero_coverage = false;
        spec.variants.push_back(std::move(variant));
      }
    }
    spec.sites.clear();
  }
  if (spec.variants.empty()) spec.variants = standard_campaign_variants();
  if (!spec.programs.empty()) {
    // Fixed program images replace the workload axis; their names label
    // the workload dimension everywhere downstream.
    spec.workloads.clear();
    for (const CampaignProgram& program : spec.programs) {
      spec.workloads.push_back(program.name);
    }
  } else if (spec.workloads.empty()) {
    spec.workloads = workloads::spec_like_names();
  }
  if (spec.replicas == 0) spec.replicas = spec.quick ? 1 : 12;
  if (spec.instructions == 0) spec.instructions = spec.quick ? 20'000 : 60'000;
  return spec;
}

CampaignResult run_campaign(const CampaignSpec& spec_in) {
  const CampaignSpec spec = resolve_campaign_defaults(spec_in);
  const CheckpointOptions& ckpt = spec.checkpoint;

  CampaignResult result;
  result.spec = spec;
  result.matrix.cells.assign(
      spec.variants.size(),
      std::vector<std::vector<CampaignCell>>(
          spec.workloads.size(), std::vector<CampaignCell>(spec.replicas)));

  struct Job {
    usize variant_index;
    usize workload_index;
    usize replica;
  };
  std::vector<Job> jobs;
  for (usize v = 0; v < spec.variants.size(); ++v) {
    for (usize w = 0; w < spec.workloads.size(); ++w) {
      for (usize r = 0; r < spec.replicas; ++r) jobs.push_back({v, w, r});
    }
  }

  // Each cell is one independent simulation with its own workload image,
  // pipeline and injector, all seeded from derive_cell_seed alone; it
  // writes only its own matrix slot.
  const auto run_cell = [&](usize job_index, std::string* failure) -> u64 {
    const Job job = jobs[job_index];
    const CampaignVariant& variant = spec.variants[job.variant_index];
    // Seed and checkpoint identity use the *global* replica index, so a
    // spec covering replicas [replica_begin, replica_begin + n) runs
    // exactly those cells of the whole campaign.
    const usize global_replica = spec.replica_begin + job.replica;
    const u64 cell_seed = derive_cell_seed(spec.seed, job.variant_index,
                                           job.workload_index, global_replica);

    CampaignCell& cell = result.matrix.cells[job.variant_index]
                             [job.workload_index][job.replica];
    std::string done_path;
    u64 identity = 0;
    if (!ckpt.dir.empty()) {
      done_path =
          ckpt.dir + "/" +
          format("campaign-v%zu-w%zu-r%zu.done", job.variant_index,
                 job.workload_index, global_replica);
      identity = cell_identity(
          spec.workloads[job.workload_index], variant.config,
          {spec.instructions, std::bit_cast<u64>(spec.rate), cell_seed,
           static_cast<u64>(variant.target), static_cast<u64>(variant.site)});
    }
    CampaignCell recorded;
    if (ckpt.resume && !done_path.empty() &&
        load_done_record(done_path, identity,
                         [&recorded](SnapshotReader* reader) {
                           cell_layout(recorded, *reader);
                         })) {
      cell = std::move(recorded);
      return cell.committed;
    }

    workloads::Workload workload_image;
    if (!spec.programs.empty()) {
      // Fixed image: the replica axis still varies the injector seed, so
      // the fault stream samples different instructions per replica.
      const CampaignProgram& program = spec.programs[job.workload_index];
      workload_image =
          workloads::Workload{program.name, "", "fixed image", program.program};
    } else {
      workloads::WorkloadOptions options;
      // Distinct data per replica: the fault stream should sample results
      // across data-dependent paths, not replay one execution twelve times.
      options.seed = SplitMix64(cell_seed).next();
      options.iterations = 0;
      auto workload =
          workloads::make_workload(spec.workloads[job.workload_index], options);
      if (!workload.ok()) {
        *failure = "campaign: " + workload.error().to_string();
        return 0;
      }
      workload_image = std::move(workload).value();
    }

    faults::InjectorConfig fault_config;
    fault_config.rate = spec.rate;
    fault_config.target = variant.target;
    fault_config.seed = cell_seed;
    fault_config.site = variant.site;
    faults::Injector injector(fault_config);

    Simulator simulator(std::move(workload_image), variant.config);
    simulator.pipeline().set_fault_hook(&injector);
    const SimResult sim_result = simulator.run(spec.instructions);
    const bool halt_ok =
        !spec.programs.empty() && sim_result.stop == core::StopReason::kHalted;
    if (!halt_ok) {
      *failure = stopped_early_message(
          "campaign", spec.workloads[job.workload_index] + "/" + variant.label,
          sim_result);
      if (!failure->empty()) return 0;
    }
    // Close still-open ACE windows: for HALTing programs the stream is
    // complete, so an unread value is truly masked; commit-target stops
    // can over-count masking for at most the last few in-flight values.
    injector.finalize_windows();

    cell.injected = injector.injected();
    cell.detected = injector.detected();
    // Site mode: undetected counts SDC strikes, so resolved()/coverage()
    // keep their meaning (reports compute site-specific rates from
    // masked/sdc directly).
    cell.undetected = injector.undetected();
    cell.pending = injector.pending();
    cell.coverage_loss = injector.checker_loss();
    cell.duplicate_reports = injector.duplicate_reports();
    cell.committed = sim_result.committed;
    cell.cycles = sim_result.cycles;

    const Histogram& latency = injector.latency();
    cell.latency_sum = latency.sum();
    cell.latency_count = latency.count();
    cell.latency_min = latency.min();
    cell.latency_max = latency.max();
    cell.latency_overflow = latency.overflow();
    cell.latency_buckets = latency.buckets();
    assert(cell.latency_buckets.size() == kLatencyBucketCount);
    assert(latency.bucket_width() == kLatencyBucketWidth);

    for (const faults::FaultRecord& record : injector.records()) {
      if (injector.site_mode()) {
        // A strike keeps the pipeline's outcome. Root-cause attribution
        // folds it into the same by_pc stratum the srv-vuln
        // cross-validation reads (detected ~ covered, undetected/ace ~
        // SDC, masked ~ masked); strikes on dead state carry pc 0.
        if (record.outcome == core::FaultOutcome::kMasked) ++cell.masked;
        if (record.outcome == core::FaultOutcome::kSdc) ++cell.sdc;
        if (record.pc == 0) continue;
        PcStratum& pc_stratum = cell.by_pc[record.pc];
        ++pc_stratum.injected;
        switch (record.outcome) {
          case core::FaultOutcome::kMasked: ++pc_stratum.masked; break;
          case core::FaultOutcome::kDetected: ++pc_stratum.detected; break;
          case core::FaultOutcome::kSdc:
            ++pc_stratum.undetected;
            ++pc_stratum.ace;
            break;
        }
        continue;
      }

      const usize class_index = static_cast<usize>(record.exec_class);
      assert(class_index < kExecClassCount);
      accumulate_stratum(&cell.by_class[class_index], record);
      accumulate_stratum(record.hit_p ? &cell.p_side : &cell.r_side, record);

      // Result-flip outcome lattice: an escape whose value was consumed
      // (ACE) is an SDC; an unconsumed escape is masked.
      if (record.resolved && !record.detected()) {
        if (record.window_closed && !record.ace) {
          ++cell.masked;
        } else {
          ++cell.sdc;
        }
      }

      PcStratum& pc_stratum = cell.by_pc[record.pc];
      ++pc_stratum.injected;
      if (record.resolved) {
        if (record.detected()) {
          ++pc_stratum.detected;
        } else {
          ++pc_stratum.undetected;
        }
      }
      if (!record.window_closed) {
        ++pc_stratum.window_pending;
      } else if (record.ace) {
        ++pc_stratum.ace;
        pc_stratum.window_sum += record.live_window;
      } else {
        ++pc_stratum.masked;
      }
    }

    if (injector.site_mode() && spec.metrics != nullptr) {
      // Per-site strike/outcome breakdown on /v1/metrics (DESIGN.md §17):
      // the same counts srv-vuln cross-validates, scrapeable live.
      const std::string site = core::fault_site_name(variant.site);
      const auto strikes = [&](const char* outcome, u64 count) {
        if (count == 0) return;
        if (metrics::Counter* counter = spec.metrics->counter(
                "reese_injector_strikes_total",
                {{"site", site}, {"outcome", outcome}},
                "Site-mode fault strikes by injection site and outcome")) {
          counter->inc(count);
        }
      };
      strikes("detected", cell.detected);
      strikes("masked", cell.masked);
      strikes("sdc", cell.sdc);
      if (cell.coverage_loss != 0) {
        if (metrics::Counter* counter = spec.metrics->counter(
                "reese_injector_coverage_loss_total", {{"site", site}},
                "Strikes landing while the REESE checker was disabled")) {
          counter->inc(cell.coverage_loss);
        }
      }
    }

    if (!done_path.empty()) {
      save_done_record(done_path, identity, [&cell](SnapshotWriter* writer) {
        cell_layout(cell, *writer);
      });
    }
    return cell.committed;
  };
  const GridOutcome outcome =
      run_cells("campaign", spec, jobs.size(), run_cell);
  result.cancelled = outcome.cancelled;
  result.error = outcome.error;
  return result;
}

bool write_campaign_report(const CampaignResult& result,
                           const std::string& path) {
  if (write_text_file(path, result.json())) return true;
  std::fprintf(stderr, "campaign: cannot write %s\n", path.c_str());
  return false;
}

}  // namespace reese::sim
