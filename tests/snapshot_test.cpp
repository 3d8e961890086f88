// Checkpoint/restore tests (DESIGN.md §14): a snapshot taken mid-run and
// restored into a fresh pipeline must continue bit-identically — same
// SimResult, same serialized end state — and the experiment/campaign
// runners must resume a partially-checkpointed grid to the exact matrix an
// uninterrupted run produces. Damaged inputs (corrupt, truncated, wrong
// format version, seeded payload mutants) must be rejected with a clean
// error, and a snapshot of another cell must not be restored.
#include "sim/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/flags.h"
#include "common/rng.h"
#include "common/snapshot.h"
#include "sim/campaign.h"
#include "sim/experiment.h"
#include "sim/grid.h"
#include "temp_path.h"
#include "workloads/workload.h"

namespace reese::sim {
namespace {

namespace fs = std::filesystem;

std::unique_ptr<Simulator> make_sim(const std::string& workload_name,
                                    u64 seed) {
  workloads::WorkloadOptions options;
  options.seed = seed;
  options.iterations = 0;
  auto workload = workloads::make_workload(workload_name, options);
  EXPECT_TRUE(workload.ok());
  return std::make_unique<Simulator>(
      std::move(workload).value(),
      core::with_reese(core::starting_config()));
}

/// The identity run_with_checkpoints binds a snapshot of `simulator` to.
u64 snapshot_identity(Simulator* simulator, u64 seed, u64 interval) {
  return cell_identity(simulator->workload().name,
                       simulator->pipeline().config(), {seed, interval});
}

/// Drain and serialize the pipeline: the strongest equality we can ask of
/// two runs is that their whole persisted state is the same bytes.
std::vector<u8> drained_state_bytes(Simulator* simulator) {
  EXPECT_TRUE(simulator->pipeline().drain_to_barrier());
  SnapshotWriter writer;
  simulator->pipeline().save_state(&writer);
  return writer.bytes();
}

TEST(SnapshotTest, MidRunRestoreContinuesBitIdentically) {
  const std::string path = temp_path("midrun.snap");
  auto original = make_sim("gcc", 0x5EED);
  original->run(20'000);

  std::string error;
  const u64 identity = snapshot_identity(original.get(), 0x5EED, 0);
  ASSERT_TRUE(save_snapshot(original.get(), path, identity, &error)) << error;

  auto restored = make_sim("gcc", 0x5EED);
  ASSERT_EQ(load_snapshot(restored.get(), path, identity, &error),
            SnapshotLoad::kRestored)
      << error;

  // Both now hold the drained state at ~20k committed; run both out.
  const SimResult a = original->run(60'000);
  const SimResult b = restored->run(60'000);
  EXPECT_EQ(a.stop, core::StopReason::kCommitTarget);
  EXPECT_EQ(a.stop, b.stop);
  EXPECT_EQ(a.ipc, b.ipc);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(drained_state_bytes(original.get()),
            drained_state_bytes(restored.get()));
  fs::remove(path);
}

TEST(SnapshotTest, KilledRunResumesToUninterruptedResult) {
  const std::string path = temp_path("resume.snap");
  fs::remove(path);
  std::string error;

  // Reference: an uninterrupted checkpointed run (same interval — the
  // drains at each boundary are part of the result's identity).
  const std::string ref_path = temp_path("resume_ref.snap");
  fs::remove(ref_path);
  auto reference = make_sim("li", 0xFEED);
  const SimResult ref = run_with_checkpoints(
      reference.get(), 50'000, 0xFEED, 10'000, ref_path, false, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(ref.stop, core::StopReason::kCommitTarget);

  // "Kill" a second run partway: stop it mid-chunk at 25k. The snapshot on
  // disk holds the 20k boundary; the 20k..25k progress is lost, as after a
  // real kill.
  auto killed = make_sim("li", 0xFEED);
  run_with_checkpoints(killed.get(), 25'000, 0xFEED, 10'000, path, false,
                       &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_TRUE(fs::exists(path));

  auto resumed = make_sim("li", 0xFEED);
  const SimResult res = run_with_checkpoints(resumed.get(), 50'000, 0xFEED,
                                             10'000, path, true, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(ref.stop, res.stop);
  EXPECT_EQ(ref.ipc, res.ipc);
  EXPECT_EQ(ref.cycles, res.cycles);
  EXPECT_EQ(ref.committed, res.committed);
  EXPECT_EQ(drained_state_bytes(reference.get()),
            drained_state_bytes(resumed.get()));
  fs::remove(path);
  fs::remove(ref_path);
}

ExperimentSpec grid_spec(u32 jobs) {
  ExperimentSpec spec;
  spec.title = "snapshot resume grid";
  spec.base = core::starting_config();
  spec.models = {Model::kBaseline, Model::kReese};
  spec.workloads = {"gcc", "li"};
  spec.instructions = 5'000;
  spec.extra_seeds = {0xAB12};
  spec.jobs = jobs;
  return spec;
}

TEST(SnapshotTest, ExperimentGridResumesUnderJobs) {
  const std::string dir = temp_path("grid");
  fs::remove_all(dir);
  const ExperimentResult reference = run_experiment(grid_spec(1));

  // Done-record granularity (interval 0): cell results are unchanged by
  // checkpointing, so the checkpointed grid must equal the plain one.
  ExperimentSpec spec = grid_spec(2);
  spec.checkpoint.dir = dir;
  const ExperimentResult first = run_experiment(spec);
  EXPECT_EQ(reference.cells, first.cells);

  // A ".done" record exists per cell (2 workloads x 2 models x 2 seeds).
  usize records = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    records += entry.path().extension() == ".done" ? 1 : 0;
  }
  EXPECT_EQ(records, 8u);

  // Simulate a killed grid: drop some records, corrupt another, and resume
  // under a different worker count. The matrix must still match.
  fs::remove(dir + "/snapshot_resume_grid-w0-m0-s0.done");
  fs::remove(dir + "/snapshot_resume_grid-w1-m1-s1.done");
  {
    std::FILE* file =
        std::fopen((dir + "/snapshot_resume_grid-w0-m1-s0.done").c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fputs("garbage", file);
    std::fclose(file);
  }
  spec = grid_spec(4);
  spec.checkpoint.dir = dir;
  spec.checkpoint.resume = true;
  const ExperimentResult resumed = run_experiment(spec);
  EXPECT_EQ(reference.cells, resumed.cells);
  EXPECT_EQ(reference.ipc, resumed.ipc);
  EXPECT_EQ(reference.ipc_stdev, resumed.ipc_stdev);
  fs::remove_all(dir);
}

TEST(SnapshotTest, ExperimentRecordFromAnotherConfigIsRerun) {
  // Record names carry only the title and cell indices, so a record left
  // by a run that differs in anything deciding the cell's result must be
  // refused by its identity: `second` resumed from `first`'s directory
  // must match a fresh run of `second`.
  const std::string dir = temp_path("grid_config");
  const auto expect_rerun = [&dir](ExperimentSpec first,
                                   ExperimentSpec second) {
    fs::remove_all(dir);
    first.checkpoint.dir = dir;
    run_experiment(first);
    const ExperimentResult fresh = run_experiment(second);
    second.checkpoint.dir = dir;
    second.checkpoint.resume = true;
    EXPECT_EQ(fresh.cells, run_experiment(second).cells);
  };

  ExperimentSpec other_hardware = grid_spec(2);
  other_hardware.base.ruu_size = 64;
  other_hardware.base.lsq_size = 32;
  expect_rerun(grid_spec(2), other_hardware);

  // Each snapshot drains the pipeline, so the interval a record was
  // written at decides its cycles too.
  ExperimentSpec drained;
  drained.title = "snapshot interval";
  drained.base = core::starting_config();
  drained.models = {Model::kReese};
  drained.workloads = {"gcc"};
  drained.instructions = 40'000;
  drained.checkpoint.interval = 20'000;
  ExperimentSpec plain = drained;
  plain.checkpoint.interval = 0;
  expect_rerun(drained, plain);
  fs::remove_all(dir);
}

/// A killed run of a cell named like `spec`'s one cell, but built from
/// `stale_seed` and checkpointing every `stale_interval`, leaves its
/// snapshot in directory `name`. Resumed from there, `spec` must give what
/// a fresh run gives: a snapshot answers only for the seed and interval it
/// was written under.
void expect_stale_snapshot_ignored(const std::string& name,
                                   ExperimentSpec spec, u64 stale_seed,
                                   u64 stale_interval) {
  const std::string dir = temp_path(name);
  const std::string fresh_dir = temp_path(name + "_fresh");
  fs::remove_all(dir);
  fs::remove_all(fresh_dir);
  fs::create_directories(dir);
  const std::string snap = dir + "/snapshot_identity-w0-m0-s0.snap";
  auto killed = make_sim("gcc", stale_seed);
  std::string error;
  run_with_checkpoints(killed.get(), 30'000, stale_seed, stale_interval, snap,
                       false, &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_TRUE(fs::exists(snap));

  spec.checkpoint.dir = fresh_dir;
  const ExperimentResult fresh = run_experiment(spec);
  spec.checkpoint.dir = dir;
  spec.checkpoint.resume = true;
  EXPECT_EQ(fresh.cells, run_experiment(spec).cells);
  fs::remove_all(dir);
  fs::remove_all(fresh_dir);
}

ExperimentSpec stale_snapshot_spec() {
  ExperimentSpec spec;
  spec.title = "snapshot identity";
  spec.base = core::starting_config();
  spec.models = {Model::kReese};
  spec.workloads = {"gcc"};
  spec.instructions = 40'000;
  return spec;
}

TEST(SnapshotTest, SnapshotFromAnotherIntervalIsNotRestored) {
  // Each snapshot drains the pipeline, so a cell resumed at interval 0
  // from a 20k-interval snapshot would carry that drain's cycles.
  const ExperimentSpec spec = stale_snapshot_spec();
  expect_stale_snapshot_ignored("stale_interval", spec, spec.seed, 20'000);
}

TEST(SnapshotTest, SnapshotFromAnotherSeedIsNotRestored) {
  // Cell names carry the seed's index, not its value: the default seed's
  // snapshot must not stand in for seed 0xB0B's cell.
  ExperimentSpec spec = stale_snapshot_spec();
  const u64 default_seed = spec.seed;
  spec.seed = 0xB0B;
  spec.checkpoint.interval = 20'000;
  expect_stale_snapshot_ignored("stale_seed", spec, default_seed, 20'000);
}

CampaignSpec campaign_spec(u32 jobs) {
  CampaignSpec spec;
  spec.workloads = {"gcc"};
  spec.replicas = 2;
  spec.instructions = 5'000;
  spec.jobs = jobs;
  return spec;
}

TEST(SnapshotTest, CampaignResumesToIdenticalMatrix) {
  const std::string dir = temp_path("campaign");
  fs::remove_all(dir);
  const CampaignResult reference = run_campaign(campaign_spec(1));

  CampaignSpec spec = campaign_spec(2);
  spec.checkpoint.dir = dir;
  const CampaignResult first = run_campaign(spec);
  EXPECT_EQ(reference.matrix, first.matrix);

  // 5 variants x 1 workload x 2 replicas = 10 whole-cell records.
  usize records = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    records += entry.path().extension() == ".done" ? 1 : 0;
  }
  EXPECT_EQ(records, 10u);

  fs::remove(dir + "/campaign-v0-w0-r0.done");
  fs::remove(dir + "/campaign-v3-w0-r1.done");
  spec = campaign_spec(4);
  spec.checkpoint.dir = dir;
  spec.checkpoint.resume = true;
  const CampaignResult resumed = run_campaign(spec);
  EXPECT_EQ(reference.matrix, resumed.matrix);
  fs::remove_all(dir);
}

TEST(SnapshotTest, CampaignRecordFromAnotherConfigIsRerun) {
  // Campaign record names and cell seeds come from indices alone, so two
  // campaigns sharing a directory must tell their records apart by
  // identity: configuration, fault target and fault site.
  const std::string dir = temp_path("campaign_config");
  const auto expect_rerun = [&dir](CampaignSpec first, CampaignSpec second) {
    fs::remove_all(dir);
    first.checkpoint.dir = dir;
    run_campaign(first);
    const CampaignResult fresh = run_campaign(second);
    second.checkpoint.dir = dir;
    second.checkpoint.resume = true;
    EXPECT_EQ(fresh.matrix, run_campaign(second).matrix);
  };

  CampaignSpec other_hardware = campaign_spec(2);
  other_hardware.variants = standard_campaign_variants();
  for (CampaignVariant& variant : other_hardware.variants) {
    variant.config.ruu_size = 64;
    variant.config.lsq_size = 32;
  }
  expect_rerun(campaign_spec(2), other_hardware);

  const auto one_variant = [](const char* label) {
    CampaignSpec spec = campaign_spec(2);
    spec.variants.resize(1);
    EXPECT_TRUE(campaign_variant_by_label(label, &spec.variants[0])) << label;
    return spec;
  };
  expect_rerun(one_variant("reese_p_flips"), one_variant("reese_r_flips"));
  expect_rerun(one_variant("reese@ruu"), one_variant("reese@rqueue"));
  fs::remove_all(dir);
}

TEST(SnapshotTest, CheckpointFlagsRejectBadValues) {
  // The grid flags refuse a missing value or an interval that is not a
  // non-negative integer, and the message names the flag.
  const auto parse = [](std::vector<const char*> args, GridSpec* spec) {
    args.insert(args.begin(), "bench");
    Flags flags("bench");
    declare_grid_flags(&flags, spec);
    return flags.parse(static_cast<int>(args.size()), args.data());
  };
  for (const char* bad : {"1e7", "abc", "-5", ""}) {
    GridSpec spec;
    EXPECT_NE(parse({"--checkpoint-interval", bad}, &spec)
                  .find("bench: --checkpoint-interval "),
              std::string::npos)
        << bad;
  }
  for (const char* flag :
       {"--checkpoint-interval", "--checkpoint-dir", "--resume-from"}) {
    GridSpec spec;
    EXPECT_EQ(parse({flag}, &spec), std::string("bench: ") + flag +
                                        " needs a value");
  }

  GridSpec spec;
  ASSERT_EQ(parse({"--checkpoint-interval=10000000", "--resume-from", "ckpt"},
                  &spec),
            "");
  EXPECT_EQ(spec.checkpoint.interval, 10'000'000u);
  EXPECT_EQ(spec.checkpoint.dir, "ckpt");
  EXPECT_TRUE(spec.checkpoint.resume);
}

TEST(SnapshotTest, CorruptSnapshotIsRejected) {
  const std::string path = temp_path("corrupt.snap");
  auto sim = make_sim("gcc", 1);
  sim->run(2'000);
  std::string error;
  const u64 identity = snapshot_identity(sim.get(), 1, 0);
  ASSERT_TRUE(save_snapshot(sim.get(), path, identity, &error)) << error;

  // Flip one byte in the middle of the payload.
  std::FILE* file = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(file, nullptr);
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  std::fseek(file, size / 2, SEEK_SET);
  const int byte = std::fgetc(file);
  std::fseek(file, size / 2, SEEK_SET);
  std::fputc(byte ^ 0x40, file);
  std::fclose(file);

  auto fresh = make_sim("gcc", 1);
  EXPECT_EQ(load_snapshot(fresh.get(), path, identity, &error),
            SnapshotLoad::kFailed);
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
  fs::remove(path);
}

TEST(SnapshotTest, TruncatedSnapshotIsRejected) {
  const std::string path = temp_path("truncated.snap");
  auto sim = make_sim("gcc", 1);
  sim->run(2'000);
  std::string error;
  const u64 identity = snapshot_identity(sim.get(), 1, 0);
  ASSERT_TRUE(save_snapshot(sim.get(), path, identity, &error)) << error;

  const auto size = fs::file_size(path);
  fs::resize_file(path, size / 2);

  auto fresh = make_sim("gcc", 1);
  EXPECT_EQ(load_snapshot(fresh.get(), path, identity, &error),
            SnapshotLoad::kFailed);
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  fs::remove(path);
}

TEST(SnapshotTest, VersionMismatchIsRejected) {
  const std::string path = temp_path("version.snap");
  SnapshotWriter writer;
  writer.field(u64{42});
  std::string error;
  ASSERT_TRUE(writer.write_file(path, kSnapshotFormatVersion + 1, &error))
      << error;

  auto fresh = make_sim("gcc", 1);
  EXPECT_EQ(load_snapshot(fresh.get(), path,
                          snapshot_identity(fresh.get(), 1, 0), &error),
            SnapshotLoad::kFailed);
  EXPECT_NE(error.find("format version"), std::string::npos) << error;
  fs::remove(path);
}

TEST(SnapshotTest, WrongCellFingerprintIsRejected) {
  const std::string path = temp_path("fingerprint.snap");
  auto sim = make_sim("gcc", 1);
  sim->run(2'000);
  std::string error;
  ASSERT_TRUE(save_snapshot(sim.get(), path, snapshot_identity(sim.get(), 1, 0),
                            &error))
      << error;

  auto other = make_sim("li", 1);
  EXPECT_EQ(load_snapshot(other.get(), path,
                          snapshot_identity(other.get(), 1, 0), &error),
            SnapshotLoad::kOtherCell);
  fs::remove(path);
}

TEST(SnapshotTest, MissingSnapshotIsRejected) {
  auto sim = make_sim("gcc", 1);
  std::string error;
  EXPECT_EQ(load_snapshot(sim.get(), temp_path("nonexistent.snap"),
                          snapshot_identity(sim.get(), 1, 0), &error),
            SnapshotLoad::kFailed);
  EXPECT_FALSE(error.empty());
}

std::vector<u8> read_file(const std::string& path) {
  std::vector<u8> bytes(fs::file_size(path));
  std::FILE* file = std::fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr);
  if (file == nullptr) return {};
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), file), bytes.size());
  std::fclose(file);
  return bytes;
}

TEST(SnapshotTest, SurvivesSeededHostileInput) {
  // A drained REESE gcc snapshot far enough in that the memory, TLB,
  // cache, predictor and stats sections all hold data. Its payload is
  // mutated by dropping, duplicating and swapping bytes and by splicing in
  // hostile ones, then re-sealed with a correct size and checksum, so every
  // mutant gets past the container checks into Pipeline::load_state. Each
  // restores, is another cell's, or fails with a message. A load reads,
  // checks and parses the whole 269 KB payload, most of it the cache and
  // predictor arrays, so 10^3 mutants keep the test to seconds in the
  // ASan+UBSan Debug build.
  const std::string path = temp_path("hostile.snap");
  auto original = make_sim("gcc", 0xF022);
  original->run(200'000);
  const u64 identity = snapshot_identity(original.get(), 0xF022, 0);
  std::string error;
  ASSERT_TRUE(save_snapshot(original.get(), path, identity, &error)) << error;
  const std::vector<u8> file = read_file(path);
  constexpr usize kHeaderBytes = 20;  // magic, version, payload size
  constexpr usize kTrailerBytes = 8;  // FNV-1a
  ASSERT_GT(file.size(), kHeaderBytes + kTrailerBytes);
  const std::vector<u8> payload(file.begin() + kHeaderBytes,
                                file.end() - kTrailerBytes);

  // Mutate near a section boundary half the time, so the small sections
  // behind the memory image see as many mutants as the image does.
  std::vector<usize> sections;
  for (usize at = 0; at + 4 <= payload.size(); ++at) {
    if (payload[at] == 'T' && payload[at + 1] == 'C' &&
        payload[at + 2] == 'E' && payload[at + 3] == 'S') {
      sections.push_back(at);  // the little-endian "SECT" mark
    }
  }
  ASSERT_GE(sections.size(), 9u);
  const std::vector<std::vector<u8>> hostile = {
      std::vector<u8>(8, 0xFF), std::vector<u8>(8, 0x00),
      {0x00, 0x00, 0x00, 0x80}, {'T', 'C', 'E', 'S'},
      {0x01}, {0xFF, 0xFF, 0xFF, 0x7F}, std::vector<u8>(4096, 0xA5)};

  const workloads::Workload& workload = original->workload();
  SplitMix64 rng(0x5A4F5EED);
  usize restored = 0;
  usize other_cell = 0;
  usize failed = 0;
  for (int round = 0; round < 1'000; ++round) {
    std::vector<u8> mutant = payload;
    std::string ops;
    const u64 mutations = rng.next_range(1, 2);
    for (u64 m = 0; m < mutations; ++m) {
      usize at = 0;
      if (rng.next_bool(0.5)) {
        const usize mark = sections[rng.next_below(sections.size())];
        at = std::min(mutant.size(), mark + rng.next_below(64));
      } else {
        at = rng.next_below(mutant.size() + 1);
      }
      ops += " @" + std::to_string(at);
      switch (rng.next_below(4)) {
        case 0:  // drop
          if (at < mutant.size()) mutant.erase(mutant.begin() + at);
          ops += " drop";
          break;
        case 1:  // duplicate
          if (at < mutant.size()) {
            mutant.insert(mutant.begin() + at, mutant[at]);
          }
          ops += " duplicate";
          break;
        case 2:  // swap
          if (at < mutant.size()) {
            const usize with = rng.next_below(mutant.size());
            std::swap(mutant[at], mutant[with]);
            ops += " swap with " + std::to_string(with);
          }
          break;
        default: {  // splice
          const usize pick = rng.next_below(hostile.size());
          mutant.insert(mutant.begin() + at, hostile[pick].begin(),
                        hostile[pick].end());
          ops += " splice " + std::to_string(pick);
        }
      }
    }
    SnapshotWriter sealed;
    sealed.put_bytes(mutant.data(), mutant.size());
    ASSERT_TRUE(sealed.write_file(path, kSnapshotFormatVersion, &error))
        << error;

    Simulator fresh(workload, original->pipeline().config());
    error.clear();
    switch (load_snapshot(&fresh, path, identity, &error)) {
      case SnapshotLoad::kRestored: ++restored; break;
      case SnapshotLoad::kOtherCell: ++other_cell; break;
      case SnapshotLoad::kFailed:
        ++failed;
        EXPECT_FALSE(error.empty()) << "round " << round << ":" << ops;
        break;
    }
    if (::testing::Test::HasFailure()) break;
  }
  // Every outcome occurs, so none goes untested.
  EXPECT_GT(restored, 0u);
  EXPECT_GT(other_cell, 0u);
  EXPECT_GT(failed, 500u);
  fs::remove(path);
}

/// One settable CoreConfig value, moved off the REESE starting
/// configuration.
struct SettableChange {
  const char* name;
  void (*apply)(core::CoreConfig* config);
};

void PrintTo(const SettableChange& change, std::ostream* out) {
  *out << change.name;
}

class ConfigIdentityTest : public ::testing::TestWithParam<SettableChange> {};

TEST_P(ConfigIdentityTest, ChangesTheCellIdentity) {
  // A record answers only for the cell that wrote it (sim/grid.h), so a
  // configuration that differs in any one settable value is another cell.
  const core::CoreConfig base = core::with_reese(core::starting_config());
  core::CoreConfig changed = base;
  GetParam().apply(&changed);
  EXPECT_NE(cell_identity("gcc", changed, {0x5EED, 0}),
            cell_identity("gcc", base, {0x5EED, 0}));
}

INSTANTIATE_TEST_SUITE_P(
    EverySettableValue, ConfigIdentityTest,
    ::testing::Values(
        SettableChange{"fetch_width",
                       [](core::CoreConfig* c) { c->fetch_width = 4; }},
        SettableChange{"decode_width",
                       [](core::CoreConfig* c) { c->decode_width = 4; }},
        SettableChange{"issue_width",
                       [](core::CoreConfig* c) { c->issue_width = 4; }},
        SettableChange{"commit_width",
                       [](core::CoreConfig* c) { c->commit_width = 4; }},
        SettableChange{"ifq_size",
                       [](core::CoreConfig* c) { c->ifq_size = 32; }},
        SettableChange{"ruu_size",
                       [](core::CoreConfig* c) { c->ruu_size = 32; }},
        SettableChange{"lsq_size",
                       [](core::CoreConfig* c) { c->lsq_size = 16; }},
        SettableChange{"int_alu_count",
                       [](core::CoreConfig* c) { c->int_alu_count = 6; }},
        SettableChange{"int_mult_count",
                       [](core::CoreConfig* c) { c->int_mult_count = 2; }},
        SettableChange{"fp_alu_count",
                       [](core::CoreConfig* c) { c->fp_alu_count = 2; }},
        SettableChange{"fp_mult_count",
                       [](core::CoreConfig* c) { c->fp_mult_count = 2; }},
        SettableChange{"mem_port_count",
                       [](core::CoreConfig* c) { c->mem_port_count = 4; }},
        SettableChange{"predictor",
                       [](core::CoreConfig* c) {
                         c->predictor = branch::PredictorKind::kTaken;
                       }},
        SettableChange{"scheme",
                       [](core::CoreConfig* c) {
                         c->reese.scheme = core::RedundancyScheme::kFranklin;
                       }},
        SettableChange{"rqueue_size",
                       [](core::CoreConfig* c) { c->reese.rqueue_size = 16; }},
        SettableChange{"early_release",
                       [](core::CoreConfig* c) {
                         c->reese.early_release = false;
                       }},
        SettableChange{"reexec_interval",
                       [](core::CoreConfig* c) {
                         c->reese.reexec_interval = 2;
                       }},
        SettableChange{"min_separation",
                       [](core::CoreConfig* c) {
                         c->reese.min_separation = 8;
                       }}),
    [](const ::testing::TestParamInfo<SettableChange>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace reese::sim
