#include "core/stats.h"

#include "common/snapshot.h"
#include "common/strutil.h"

namespace reese::core {

const char* cycle_class_name(CycleClass cls) {
  switch (cls) {
    case CycleClass::kBusy: return "busy";
    case CycleClass::kRqueueFull: return "rqueue-full";
    case CycleClass::kRuuFull: return "ruu-full";
    case CycleClass::kLsqFull: return "lsq-full";
    case CycleClass::kIfqFull: return "ifq-full";
    case CycleClass::kIcache: return "icache";
    case CycleClass::kIdle: return "idle";
  }
  return "?";
}

u64 CoreStats::cycle_class_total() const {
  u64 total = 0;
  for (u64 count : cycle_classes) total += count;
  return total;
}

std::string CoreStats::cycle_class_summary() const {
  std::string out;
  for (usize i = 0; i < kCycleClassCount; ++i) {
    if (!out.empty()) out += ", ";
    out += format("%s %.1f%%", cycle_class_name(static_cast<CycleClass>(i)),
                  100.0 * safe_ratio(cycle_classes[i], cycles));
  }
  return out;
}

namespace {

/// The stall-attribution label values drop the '-' (Prometheus label
/// values may contain it, but underscores keep grep/query ergonomics
/// consistent with the metric names).
std::string cycle_class_label(CycleClass cls) {
  std::string label = cycle_class_name(cls);
  for (char& c : label) {
    if (c == '-') c = '_';
  }
  return label;
}

void set_counter(metrics::Registry* registry, const char* name, u64 value,
                 const metrics::Labels& labels, const char* help) {
  if (metrics::Counter* counter = registry->counter(name, labels, help)) {
    counter->set(value);
  }
}

}  // namespace

void export_core_stats(metrics::Registry* registry, const CoreStats& stats,
                       const metrics::Labels& labels) {
  set_counter(registry, "reese_core_cycles_total", stats.cycles, labels,
              "Simulated cycles");
  set_counter(registry, "reese_core_fetched_instructions_total",
              stats.fetched, labels, "Instructions fetched");
  set_counter(registry, "reese_core_dispatched_instructions_total",
              stats.dispatched, labels, "Instructions dispatched to the RUU");
  set_counter(registry, "reese_core_wrongpath_instructions_total",
              stats.wrongpath_dispatched, labels,
              "Wrong-path instructions dispatched");
  set_counter(registry, "reese_core_issued_p_total", stats.issued_p, labels,
              "P-stream issues");
  set_counter(registry, "reese_core_issued_r_total", stats.issued_r, labels,
              "R-stream issues");
  set_counter(registry, "reese_core_committed_instructions_total",
              stats.committed, labels,
              "P-stream instructions architecturally committed");
  set_counter(registry, "reese_core_committed_r_total", stats.committed_r,
              labels, "R-stream executions compared");
  set_counter(registry, "reese_core_rskipped_instructions_total",
              stats.rskipped, labels,
              "Instructions not re-executed (partial mode)");
  set_counter(registry, "reese_core_branches_resolved_total",
              stats.branches_resolved, labels, "Resolved branches");
  set_counter(registry, "reese_core_branch_mispredicts_total",
              stats.branch_mispredicts, labels, "Branch mispredictions");
  set_counter(registry, "reese_core_rqueue_enqueued_total",
              stats.rqueue_enqueued, labels,
              "Instructions released into the R-stream queue");
  set_counter(registry, "reese_core_comparisons_total", stats.comparisons,
              labels, "Comparator checks");
  set_counter(registry, "reese_core_errors_detected_total",
              stats.errors_detected, labels, "Comparator mismatches detected");

  for (usize i = 0; i < kCycleClassCount; ++i) {
    const CycleClass cls = static_cast<CycleClass>(i);
    metrics::Labels class_labels = labels;
    class_labels.emplace_back("class", cycle_class_label(cls));
    set_counter(registry, "reese_core_cycle_class_total", stats.cycle_classes[i],
                class_labels,
                "Per-cycle stall attribution (partitions reese_core_cycles_total)");
  }

  if (metrics::Gauge* gauge =
          registry->gauge("reese_core_ipc", labels,
                          "Committed instructions per cycle")) {
    gauge->set(stats.ipc());
  }
  if (metrics::Gauge* gauge = registry->gauge(
          "reese_core_ruu_occupancy_mean", labels, "Mean RUU occupancy")) {
    gauge->set(stats.ruu_occupancy.mean());
  }
  if (metrics::Gauge* gauge = registry->gauge(
          "reese_core_rqueue_occupancy_mean", labels,
          "Mean R-stream queue occupancy")) {
    gauge->set(stats.rqueue_occupancy.mean());
  }

  // The P->R separation distribution, re-bucketed onto the metric's fixed
  // upper bounds (the Histogram's finite buckets map 1:1).
  const Histogram& separation = stats.separation;
  std::vector<double> bounds;
  bounds.reserve(separation.buckets().size());
  for (usize i = 0; i < separation.buckets().size(); ++i) {
    bounds.push_back(
        static_cast<double>((i + 1) * separation.bucket_width() - 1));
  }
  if (metrics::HistogramMetric* histogram = registry->histogram(
          "reese_core_separation_cycles", bounds, labels,
          "R-issue minus P-issue, cycles")) {
    // Mirror the bucket counts once per (registry, labels): a histogram
    // cannot be set in place like a counter, so re-exports after further
    // simulation leave it at the first export's state.
    if (histogram->count() == 0) {
      for (usize i = 0; i < separation.buckets().size(); ++i) {
        histogram->add_bucket(i, separation.buckets()[i], 0.0);
      }
      // _sum is a histogram-wide scalar: charge the exact accumulated sum
      // in one shot alongside the overflow count.
      histogram->add_bucket(separation.buckets().size(), separation.overflow(),
                            static_cast<double>(separation.sum()));
    }
  }
}

template <class Self, class Io>
void CoreStats::layout(Self& self, Io& io) {
  for (auto* counter :
       {&self.cycles, &self.fetched, &self.dispatched,
        &self.wrongpath_dispatched, &self.issued_p, &self.issued_r,
        &self.committed, &self.committed_r, &self.rskipped,
        &self.ifq_full_stall_cycles, &self.ruu_full_stalls,
        &self.lsq_full_stalls, &self.icache_stall_cycles,
        &self.branches_resolved, &self.branch_mispredicts,
        &self.cond_branches_resolved, &self.cond_branch_mispredicts,
        &self.rqueue_enqueued, &self.rqueue_full_stall_cycles,
        &self.rpriority_cycles, &self.comparisons, &self.errors_detected}) {
    io.field(*counter);
  }
  for (auto& count : self.cycle_classes) io.field(count);
  io.part(self.separation);
  io.part(self.issue_per_cycle);
  io.part(self.ruu_occupancy);
  io.part(self.lsq_occupancy);
  io.part(self.ifq_occupancy);
  io.part(self.rqueue_occupancy);
}

void CoreStats::save(SnapshotWriter* writer) const { layout(*this, *writer); }
void CoreStats::load(SnapshotReader* reader) { layout(*this, *reader); }

}  // namespace reese::core
