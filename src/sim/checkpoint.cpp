#include "sim/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/snapshot.h"
#include "common/strutil.h"

namespace reese::sim {

namespace {

constexpr u32 kTagMeta = 0x4D455441;  // "META"

bool file_exists(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  std::fclose(file);
  return true;
}

/// Reads the value of "--flag VALUE" or "--flag=VALUE" at argv[i]; returns
/// nullptr when argv[i] is not `flag`. A missing or empty value exits 2.
const char* flag_value(int argc, char** argv, int* i, const char* flag) {
  const char* arg = argv[*i];
  const usize flag_len = std::strlen(flag);
  if (std::strncmp(arg, flag, flag_len) != 0) return nullptr;
  const char* value = nullptr;
  if (arg[flag_len] == '=') {
    value = arg + flag_len + 1;
  } else if (arg[flag_len] != '\0') {
    return nullptr;
  } else if (*i + 1 < argc) {
    value = argv[++*i];
  }
  if (value == nullptr || *value == '\0') {
    std::fprintf(stderr, "reese: %s needs a value\n", flag);
    std::exit(2);
  }
  return value;
}

}  // namespace

u64 cell_identity(const std::string& workload, const core::CoreConfig& config,
                  std::initializer_list<u64> values) {
  const std::string summary = config.summary();
  u64 hash = snapshot_fnv1a(reinterpret_cast<const u8*>(workload.data()),
                            workload.size());
  hash = snapshot_fnv1a(reinterpret_cast<const u8*>(summary.data()),
                        summary.size(), hash);
  SnapshotWriter bytes;
  for (u64 value : values) bytes.put_u64(value);
  return snapshot_fnv1a(bytes.bytes().data(), bytes.bytes().size(), hash);
}

bool save_snapshot(Simulator* simulator, const std::string& path,
                   u64 identity, std::string* error) {
  core::Pipeline& pipeline = simulator->pipeline();
  if (!pipeline.drain_to_barrier()) {
    if (error != nullptr)
      *error = "pipeline failed to drain to the snapshot barrier";
    return false;
  }
  SnapshotWriter writer;
  writer.put_section(kTagMeta);
  writer.put_u64(identity);
  writer.put_string(simulator->workload().name);
  writer.put_u64(pipeline.stats().committed);
  pipeline.save_state(&writer);
  return writer.write_file(path, kSnapshotFormatVersion, error);
}

SnapshotLoad load_snapshot(Simulator* simulator, const std::string& path,
                           u64 identity, std::string* error) {
  SnapshotReader reader;
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return SnapshotLoad::kFailed;
  };
  if (!reader.open_file(path, kSnapshotFormatVersion) ||
      !reader.expect_section(kTagMeta)) {
    return fail(reader.error());
  }
  const u64 written_for = reader.get_u64();
  reader.get_string();  // workload name, informational
  reader.get_u64();     // committed-at-save, informational
  if (!reader.ok()) return fail(reader.error());
  if (written_for != identity) return SnapshotLoad::kOtherCell;
  simulator->pipeline().load_state(&reader);
  if (!reader.ok()) return fail(reader.error());
  if (!reader.at_end()) return fail("snapshot has trailing payload bytes");
  return SnapshotLoad::kRestored;
}

CheckpointOptions parse_checkpoint_flags(int argc, char** argv) {
  CheckpointOptions options;
  for (int i = 1; i < argc; ++i) {
    if (const char* value = flag_value(argc, argv, &i, "--checkpoint-dir")) {
      options.dir = value;
    } else if (const char* value =
                   flag_value(argc, argv, &i, "--checkpoint-interval")) {
      i64 parsed = 0;
      if (!parse_int(value, &parsed) || parsed < 0) {
        std::fprintf(stderr,
                     "reese: --checkpoint-interval needs a non-negative "
                     "instruction count, got '%s'\n",
                     value);
        std::exit(2);
      }
      options.interval = static_cast<u64>(parsed);
    } else if (const char* value =
                   flag_value(argc, argv, &i, "--resume-from")) {
      options.dir = value;
      options.resume = true;
    }
  }
  return options;
}

SimResult run_with_checkpoints(Simulator* simulator, u64 instructions,
                               u64 seed, u64 interval,
                               const std::string& path, bool resume,
                               std::string* error) {
  if (path.empty()) return simulator->run(instructions);
  core::Pipeline& pipeline = simulator->pipeline();
  const u64 identity = cell_identity(simulator->workload().name,
                                     pipeline.config(), {seed, interval});
  if (resume && file_exists(path) &&
      load_snapshot(simulator, path, identity, error) ==
          SnapshotLoad::kFailed) {
    return SimResult{};
  }
  if (interval == 0) return simulator->run(instructions);

  SimResult result;
  result.workload = simulator->workload().name;
  result.stop = core::StopReason::kCommitTarget;
  const Cycle cycle_limit = default_cycle_limit(instructions);
  while (pipeline.stats().committed < instructions) {
    const u64 boundary = std::min(
        instructions, (pipeline.stats().committed / interval + 1) * interval);
    result.stop = pipeline.run(boundary, cycle_limit);
    if (result.stop != core::StopReason::kCommitTarget) break;
    // The final boundary is not snapshotted: the run is complete, and the
    // drain would perturb the terminal stats relative to a plain run-out.
    if (pipeline.stats().committed >= instructions) break;
    std::string save_error;
    if (!save_snapshot(simulator, path, identity, &save_error)) {
      // Best-effort: a failed snapshot write costs resumability, not
      // correctness, but the drain already happened so determinism vs a
      // same-interval reference run is preserved either way.
      std::fprintf(stderr, "reese: checkpoint save failed: %s\n",
                   save_error.c_str());
    }
  }
  result.ipc = pipeline.stats().ipc();
  result.cycles = pipeline.stats().cycles;
  result.committed = pipeline.stats().committed;
  return result;
}

}  // namespace reese::sim
