// Chrome trace view of core::Tracer (event stream, sampling, finish), the
// per-cycle stall attribution invariant (classes partition total cycles),
// and the CoreStats -> metrics registry export.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <tuple>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "core/pipeline.h"
#include "core/stats.h"
#include "core/trace.h"
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

/// A loop whose inner branch falls through three times in four: under the
/// kTaken predictor each fall-through mispredicts, so wrong-path entries
/// recur in the same RUU slots. Its unpipelined divide keeps older
/// instructions uncommitted meanwhile.
isa::Program branchy_program() {
  auto assembled = isa::assemble(R"(
main:
  li   t0, 64
loop:
  div  t3, t2, t0
  andi t1, t0, 3
  beqz t1, skip
  addi t2, t2, 1
skip:
  addi t0, t0, -1
  bnez t0, loop
  out  t2
  halt
)");
  EXPECT_TRUE(assembled.ok());
  return std::move(assembled).value();
}

/// An in-memory FILE* (open_memstream) for the tracer to write into.
class MemStream {
 public:
  MemStream() : file_(open_memstream(&buffer_, &size_)) {}
  ~MemStream() {
    std::fclose(file_);
    std::free(buffer_);
  }
  MemStream(const MemStream&) = delete;
  MemStream& operator=(const MemStream&) = delete;

  std::FILE* file() { return file_; }
  std::string str() {
    std::fflush(file_);
    return std::string(buffer_, size_);
  }

 private:
  char* buffer_ = nullptr;
  size_t size_ = 0;
  std::FILE* file_;
};

/// Run `program` to halt with the Chrome view on, sampling every
/// `every_n`th dispatch; return the parsed doc and, when `stats` is
/// non-null, the run's stats.
json::Value traced_run(const core::CoreConfig& config,
                       core::CoreStats* stats = nullptr,
                       const isa::Program& program = tiny_program(),
                       u64 every_n = 1) {
  MemStream stream;
  core::Pipeline pipeline(program, config);
  core::Tracer tracer(0, stream.file(), every_n);
  pipeline.set_tracer(&tracer);
  EXPECT_EQ(pipeline.run(1'000, 100'000), core::StopReason::kHalted);
  tracer.finish();
  if (stats != nullptr) *stats = pipeline.stats();
  Result<json::Value> parsed = json::parse_json(stream.str());
  EXPECT_TRUE(parsed.ok());
  return std::move(parsed).value();
}

/// Squashed P slices and `squash` instants in a parsed trace.
struct SquashCounts {
  usize slices = 0;
  usize instants = 0;
};

SquashCounts count_squashes(const json::Value& document) {
  SquashCounts counts;
  for (const json::Value& event : document.find("traceEvents")->array) {
    const std::string& phase = event.find("ph")->string;
    if (phase == "i" && event.find("name")->string == "squash") {
      ++counts.instants;
    }
    const json::Value* category = event.find("cat");
    if (phase == "X" && category->string == "squashed") ++counts.slices;
  }
  return counts;
}

TEST(ChromeTrace, EmitsWellFormedDocument) {
  const json::Value document = traced_run(core::starting_config());
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
  const json::Value document =
      traced_run(core::with_reese(core::starting_config()));
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
  const json::Value document = traced_run(core::starting_config());
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
  core::CoreConfig config = core::starting_config();
  config.predictor = branch::PredictorKind::kTaken;  // guaranteed mispredicts
  const json::Value document = traced_run(config);
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

TEST(ChromeTrace, EveryWrongPathInstructionHasItsOwnSlice) {
  // Wrong-path entries share the next true-path seq; each must still be
  // written as its own squashed slice with its own squash instant.
  core::CoreConfig config = core::starting_config();
  config.predictor = branch::PredictorKind::kTaken;  // guaranteed mispredicts
  core::CoreStats stats;
  const SquashCounts squashes = count_squashes(traced_run(config, &stats));
  EXPECT_GT(stats.wrongpath_dispatched, 1u);
  EXPECT_EQ(squashes.slices, stats.wrongpath_dispatched);
  EXPECT_EQ(squashes.instants, stats.wrongpath_dispatched);
}

TEST(ChromeTrace, SamplingKeepsEachWrongPathLifecycleWhole) {
  // Wrong-path lifecycles are keyed by RUU slot. An unselected wrong-path
  // dispatch into the slot of a sampled, squashed row must not feed its
  // events (and a second squash) to that row. The divide holds commit back
  // (under REESE, until its R-stream compare), so squashed rows are still
  // stored when their slots are reused.
  const isa::Program program = branchy_program();
  for (const bool reese : {false, true}) {
    core::CoreConfig config = reese ? core::with_reese(core::starting_config())
                                    : core::starting_config();
    config.predictor = branch::PredictorKind::kTaken;

    core::Tracer all(4096);
    core::Tracer sampled(4096, nullptr, 4);
    for (core::Tracer* tracer : {&all, &sampled}) {
      core::Pipeline pipeline(program, config);
      pipeline.set_tracer(tracer);
      ASSERT_EQ(pipeline.run(10'000, 100'000), core::StopReason::kHalted);
    }
    std::vector<const core::Lifecycle*> selected;
    usize selected_wrong_path = 0;
    for (const core::Lifecycle& row : all.rows()) {
      if (row.seq % 4 != 0) continue;
      selected.push_back(&row);
      if (row.spec) ++selected_wrong_path;
    }
    EXPECT_GT(selected_wrong_path, 1u);

    // Pipeview: the sampled rows are the selected rows, stage for stage.
    const auto stages = [](const core::Lifecycle& row) {
      return std::make_tuple(row.seq, row.spec, row.squashed, row.dispatch,
                             row.issue, row.complete, row.release,
                             row.r_issue, row.r_complete, row.commit);
    };
    ASSERT_EQ(sampled.rows().size(), selected.size()) << "reese " << reese;
    for (usize i = 0; i < selected.size(); ++i) {
      EXPECT_EQ(stages(sampled.rows()[i]), stages(*selected[i]))
          << "row " << i << " reese " << reese;
    }

    // Chrome view: one squashed slice and one squash instant each.
    const SquashCounts squashes =
        count_squashes(traced_run(config, nullptr, program, 4));
    EXPECT_EQ(squashes.slices, selected_wrong_path) << "reese " << reese;
    EXPECT_EQ(squashes.instants, selected_wrong_path) << "reese " << reese;
  }
}

TEST(ChromeTrace, SamplingKeepsWholeLifecyclesOfEveryNth) {
  const isa::Program program = tiny_program();
  core::Tracer tracer(4096, nullptr, 4);
  core::Pipeline pipeline(program, core::with_reese(core::starting_config()));
  pipeline.set_tracer(&tracer);
  ASSERT_EQ(pipeline.run(1'000, 100'000), core::StopReason::kHalted);

  ASSERT_GT(tracer.rows().size(), 2u);
  EXPECT_LT(tracer.rows().size(), pipeline.stats().dispatched / 2);
  for (const auto& row : tracer.rows()) {
    EXPECT_EQ(row.seq % 4, 0u);
    // Selected at dispatch: sampled lifecycles arrive complete, not
    // truncated.
    if (!row.squashed && !row.spec && row.commit != 0) {
      EXPECT_GT(row.dispatch, 0u);
      EXPECT_GE(row.commit, row.complete);
    }
  }
}

TEST(ChromeTrace, FinishFlushesInFlightAndIsIdempotent) {
  const isa::Program program = tiny_program();
  MemStream stream;
  core::Tracer tracer(0, stream.file());
  core::Pipeline pipeline(program, core::starting_config());
  pipeline.set_tracer(&tracer);
  // Stop mid-run: some instructions are dispatched but not yet committed.
  pipeline.run(5, 100'000);
  tracer.finish();
  const u64 emitted = tracer.events_emitted();
  const std::string document = stream.str();
  tracer.finish();  // idempotent: no extra events, no extra closing bracket
  EXPECT_EQ(tracer.events_emitted(), emitted);
  EXPECT_EQ(stream.str(), document);
  EXPECT_TRUE(json::parse_json(document).ok()) << document;
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
