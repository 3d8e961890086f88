#include "core/area.h"

#include "common/strutil.h"

namespace reese::core {

AreaEstimate estimate_area(const CoreConfig& baseline,
                           const CoreConfig& config,
                           const AreaCoefficients& coefficients) {
  AreaEstimate estimate;

  // Area of one RUU entry in die-percent units, anchored by §7.
  const double ruu_entry_area =
      coefficients.ruu_pct_of_die /
      static_cast<double>(coefficients.ruu_ref_entries);

  if (config.reese.scheme == RedundancyScheme::kReese) {
    estimate.rqueue_area = static_cast<double>(config.reese.rqueue_size) *
                           ruu_entry_area *
                           coefficients.rqueue_entry_vs_ruu_entry;
    estimate.glue_area =
        estimate.rqueue_area * coefficients.glue_fraction_of_rqueue;
  } else if (config.reese.scheme == RedundancyScheme::kFranklin) {
    // Franklin: no queue, but comparator + duplication control glue sized
    // against the RUU it piggybacks on.
    estimate.glue_area = static_cast<double>(config.ruu_size) *
                         ruu_entry_area *
                         coefficients.glue_fraction_of_rqueue;
  }

  auto diff = [](u32 now, u32 before) {
    return now > before ? static_cast<double>(now - before) : 0.0;
  };
  estimate.spare_fu_area =
      diff(config.int_alu_count, baseline.int_alu_count) *
          coefficients.int_alu_vs_ruu_entry * ruu_entry_area +
      diff(config.int_mult_count, baseline.int_mult_count) *
          coefficients.int_mult_vs_ruu_entry * ruu_entry_area +
      diff(config.mem_port_count, baseline.mem_port_count) *
          coefficients.mem_port_vs_ruu_entry * ruu_entry_area;

  return estimate;
}

std::string area_report(const AreaEstimate& estimate) {
  return format(
      "+%.1f%% die (R-queue %.1f%%, spare FUs %.1f%%, compare/glue %.1f%%)",
      estimate.overhead_pct(), estimate.rqueue_area, estimate.spare_fu_area,
      estimate.glue_area);
}

}  // namespace reese::core
