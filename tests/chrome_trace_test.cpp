// ChromeTraceTracer / SamplingTracer event-stream tests, the per-cycle
// stall attribution invariant (classes partition total cycles), and the
// CoreStats -> metrics registry export.
#include <gtest/gtest.h>

#include <set>

#include "common/json.h"
#include "common/metrics.h"
#include "core/chrome_trace.h"
#include "core/pipeline.h"
#include "core/stats.h"
#include "isa/assembler.h"

namespace reese {
namespace {

isa::Program tiny_program() {
  auto assembled = isa::assemble(R"(
main:
  li   t0, 12
loop:
  addi t0, t0, -1
  bnez t0, loop
  out  t0
  halt
)");
  EXPECT_TRUE(assembled.ok());
  return std::move(assembled).value();
}

/// Run `program` to halt under a ChromeTraceTracer; return the parsed doc.
json::Value traced_run(const core::CoreConfig& config,
                       core::StringTraceSink* sink) {
  const isa::Program program = tiny_program();
  core::Pipeline pipeline(program, config);
  core::ChromeTraceTracer tracer(sink);
  pipeline.set_tracer(&tracer);
  EXPECT_EQ(pipeline.run(1'000, 100'000), core::StopReason::kHalted);
  tracer.finish();
  EXPECT_TRUE(json::parse_json(sink->str()).ok());
  Result<json::Value> parsed = json::parse_json(sink->str());
  EXPECT_TRUE(parsed.ok());
  return std::move(parsed).value();
}

TEST(ChromeTrace, EmitsWellFormedDocument) {
  core::StringTraceSink sink;
  const json::Value document = traced_run(core::starting_config(), &sink);
  const json::Value* events = document.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_GT(events->array.size(), 10u);

  bool p_named = false;
  bool r_named = false;
  for (const json::Value& event : events->array) {
    ASSERT_TRUE(event.is_object());
    const json::Value* phase = event.find("ph");
    ASSERT_NE(phase, nullptr);
    ASSERT_TRUE(phase->is_string());
    if (phase->string == "M" && event.find("name")->string == "thread_name") {
      const std::string& track = event.find("args")->find("name")->string;
      if (track == "P-stream") p_named = true;
      if (track == "R-stream") r_named = true;
    }
    if (phase->string == "X") {
      EXPECT_GE(event.find("dur")->number, 0.0);
      EXPECT_GE(event.find("ts")->number, 0.0);
      ASSERT_NE(event.find("args"), nullptr);
      EXPECT_NE(event.find("args")->find("seq"), nullptr);
    }
  }
  EXPECT_TRUE(p_named);
  EXPECT_TRUE(r_named);
}

TEST(ChromeTrace, ReeseRunHasBothTracksAndBalancedFlows) {
  core::StringTraceSink sink;
  const json::Value document =
      traced_run(core::with_reese(core::starting_config()), &sink);
  const json::Value* events = document.find("traceEvents");
  ASSERT_NE(events, nullptr);

  usize p_slices = 0;
  usize r_slices = 0;
  std::set<u64> flow_starts;
  std::set<u64> flow_finishes;
  for (const json::Value& event : events->array) {
    const std::string& phase = event.find("ph")->string;
    if (phase == "X") {
      const u64 tid = event.find("tid")->uint_value;
      if (tid == 0) ++p_slices;
      if (tid == 1) ++r_slices;
    }
    if (phase == "s") {
      EXPECT_TRUE(flow_starts.insert(event.find("id")->uint_value).second)
          << "duplicate flow start id";
    }
    if (phase == "f") {
      EXPECT_TRUE(flow_finishes.insert(event.find("id")->uint_value).second)
          << "duplicate flow finish id";
    }
  }
  EXPECT_GT(p_slices, 10u);
  EXPECT_GT(r_slices, 10u);
  // Every P-complete -> R-compare arrow starts and finishes exactly once.
  EXPECT_EQ(flow_starts, flow_finishes);
  EXPECT_EQ(flow_starts.size(), r_slices);
}

TEST(ChromeTrace, BaselineRunHasNoRTrackOrFlows) {
  core::StringTraceSink sink;
  const json::Value document = traced_run(core::starting_config(), &sink);
  for (const json::Value& event : document.find("traceEvents")->array) {
    const std::string& phase = event.find("ph")->string;
    EXPECT_NE(phase, "s");
    EXPECT_NE(phase, "f");
    if (phase == "X") {
      EXPECT_EQ(event.find("tid")->uint_value, 0u);
    }
  }
}

TEST(ChromeTrace, SquashedInstructionsBecomeInstants) {
  core::StringTraceSink sink;
  core::CoreConfig config = core::starting_config();
  config.predictor = branch::PredictorKind::kTaken;  // guaranteed mispredicts
  const json::Value document = traced_run(config, &sink);
  usize squash_instants = 0;
  usize squashed_slices = 0;
  for (const json::Value& event : document.find("traceEvents")->array) {
    const std::string& phase = event.find("ph")->string;
    if (phase == "i" && event.find("name")->string == "squash") {
      ++squash_instants;
    }
    if (phase == "X") {
      const json::Value* category = event.find("cat");
      if (category != nullptr && category->string == "squashed") {
        ++squashed_slices;
        EXPECT_TRUE(event.find("args")->find("spec")->boolean);
      }
    }
  }
  EXPECT_GT(squash_instants, 0u);
  EXPECT_GT(squashed_slices, 0u);
}

TEST(ChromeTrace, SamplingTracerKeepsWholeLifecyclesOfEveryNth) {
  const isa::Program program = tiny_program();
  core::TimelineTracer inner(4096);
  core::SamplingTracer sampler(&inner, 4);
  core::Pipeline pipeline(program, core::with_reese(core::starting_config()));
  pipeline.set_tracer(&sampler);
  ASSERT_EQ(pipeline.run(1'000, 100'000), core::StopReason::kHalted);

  EXPECT_GT(sampler.forwarded(), 0u);
  EXPECT_GT(sampler.dropped(), sampler.forwarded());
  ASSERT_GT(inner.rows().size(), 2u);
  for (const auto& row : inner.rows()) {
    EXPECT_EQ(row.seq % 4, 0u);
    // Sticky selection: sampled lifecycles arrive complete, not truncated.
    if (!row.squashed && !row.spec && row.commit != 0) {
      EXPECT_GT(row.dispatch, 0u);
      EXPECT_GE(row.commit, row.complete);
    }
  }
}

TEST(ChromeTrace, SamplingTracerCycleWindow) {
  const isa::Program program = tiny_program();
  // Reference run to learn the dispatch-cycle range (the simulator is
  // deterministic, so the sampled run below sees identical cycles).
  Cycle last_dispatch = 0;
  {
    core::TimelineTracer reference(4096);
    core::Pipeline pipeline(program, core::starting_config());
    pipeline.set_tracer(&reference);
    ASSERT_EQ(pipeline.run(1'000, 100'000), core::StopReason::kHalted);
    for (const auto& row : reference.rows()) {
      last_dispatch = std::max(last_dispatch, row.dispatch);
    }
  }
  ASSERT_GT(last_dispatch, 4u);
  const Cycle first = 3;
  const Cycle last = last_dispatch;  // window end is exclusive

  core::TimelineTracer inner(4096);
  core::SamplingTracer sampler(&inner, 1, first, last);
  core::Pipeline pipeline(program, core::starting_config());
  pipeline.set_tracer(&sampler);
  ASSERT_EQ(pipeline.run(1'000, 100'000), core::StopReason::kHalted);
  ASSERT_GT(inner.rows().size(), 0u);
  for (const auto& row : inner.rows()) {
    EXPECT_GE(row.dispatch, first);
    EXPECT_LT(row.dispatch, last);
  }
  EXPECT_GT(sampler.dropped(), 0u);
}

TEST(ChromeTrace, FinishFlushesInFlightAndIsIdempotent) {
  const isa::Program program = tiny_program();
  core::StringTraceSink sink;
  core::ChromeTraceTracer tracer(&sink);
  core::Pipeline pipeline(program, core::starting_config());
  pipeline.set_tracer(&tracer);
  // Stop mid-run: some instructions are dispatched but not yet committed.
  pipeline.run(5, 100'000);
  tracer.finish();
  const u64 emitted = tracer.events_emitted();
  tracer.finish();  // idempotent: no extra events, no extra closing bracket
  EXPECT_EQ(tracer.events_emitted(), emitted);
  EXPECT_TRUE(json::parse_json(sink.str()).ok()) << sink.str();
}

// ---------------------------------------------------------------------------
// Per-cycle stall attribution.

TEST(StallAttribution, ClassesPartitionTotalCycles) {
  const isa::Program program = tiny_program();
  for (const bool reese : {false, true}) {
    core::Pipeline pipeline(program,
                            reese ? core::with_reese(core::starting_config())
                                  : core::starting_config());
    ASSERT_EQ(pipeline.run(1'000, 100'000), core::StopReason::kHalted);
    const core::CoreStats& stats = pipeline.stats();
    // Every simulated cycle is charged to exactly one class.
    EXPECT_EQ(stats.cycle_class_total(), stats.cycles);
    EXPECT_GT(
        stats.cycle_classes[static_cast<usize>(core::CycleClass::kBusy)], 0u);
    EXPECT_NE(pipeline.report().find("cycle classes:"), std::string::npos);
    EXPECT_NE(stats.cycle_class_summary().find("busy"), std::string::npos);
  }
}

TEST(StallAttribution, ClassNamesComplete) {
  for (usize i = 0; i < core::kCycleClassCount; ++i) {
    EXPECT_STRNE(core::cycle_class_name(static_cast<core::CycleClass>(i)),
                 "?");
  }
}

// ---------------------------------------------------------------------------
// CoreStats -> metrics registry export.

TEST(CoreStatsExport, MirrorsCountersAndHistogram) {
  const isa::Program program = tiny_program();
  core::Pipeline pipeline(program, core::with_reese(core::starting_config()));
  ASSERT_EQ(pipeline.run(1'000, 100'000), core::StopReason::kHalted);
  const core::CoreStats& stats = pipeline.stats();

  metrics::Registry registry;
  core::export_core_stats(&registry, stats, {{"workload", "tiny"}});

  metrics::Counter* committed = registry.counter(
      "reese_core_committed_instructions_total", {{"workload", "tiny"}});
  ASSERT_NE(committed, nullptr);
  EXPECT_EQ(committed->value(), stats.committed);
  metrics::Counter* cycles =
      registry.counter("reese_core_cycles_total", {{"workload", "tiny"}});
  ASSERT_NE(cycles, nullptr);
  EXPECT_EQ(cycles->value(), stats.cycles);

  // The per-class series partition the cycle counter.
  u64 class_sum = 0;
  for (const metrics::Sample& sample : registry.snapshot()) {
    if (sample.name == "reese_core_cycle_class_total") {
      class_sum += static_cast<u64>(sample.value);
    }
  }
  EXPECT_EQ(class_sum, stats.cycles);

  // The separation histogram mirrors the simulator's exactly: same count,
  // same sum.
  const std::string text = registry.prometheus();
  EXPECT_NE(text.find("reese_core_separation_cycles_count"),
            std::string::npos);
  for (const metrics::Sample& sample : registry.snapshot()) {
    if (sample.name == "reese_core_separation_cycles") {
      EXPECT_EQ(sample.count, stats.separation.count());
      EXPECT_DOUBLE_EQ(sample.sum,
                       static_cast<double>(stats.separation.sum()));
    }
  }

  // Re-export is idempotent for the histogram (counters are set in place).
  core::export_core_stats(&registry, stats, {{"workload", "tiny"}});
  for (const metrics::Sample& sample : registry.snapshot()) {
    if (sample.name == "reese_core_separation_cycles") {
      EXPECT_EQ(sample.count, stats.separation.count());
    }
  }
}

}  // namespace
}  // namespace reese
