// Structured event log: leveled JSON-lines for the daemon-side components
// (DESIGN.md §17).
//
// The simulation service and reesed itself narrate their lifecycle through
// this logger instead of raw fprintf(stderr): one JSON object per line, so
// `grep '"kind": "job_finished"'` and log shippers both work on the same
// stream. Each event carries a timestamp, a level, a machine-matchable
// `kind`, a human message and arbitrary typed fields (job ids, states,
// wall times, ...).
//
// Determinism and observability contracts:
//   * the wall clock is injected (set_clock) so tests can byte-compare
//     emitted lines;
//   * every emitted event bumps reese_log_events_total{kind=...} in the
//     attached metrics registry (set_registry), making log volume itself
//     scrapeable on /v1/metrics;
//   * emission is mutex-serialized — events from concurrent worker threads
//     never interleave within a line.
//
// The process-wide instance behind reesed's --log-file flag is
// log::global(); components accept a Logger* (nullptr = global) so tests
// can capture events in isolation.
#pragma once

#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/types.h"

namespace reese::log {

enum class Level : u8 { kInfo, kWarn, kError };

/// "info" / "warn" / "error".
const char* level_name(Level level);

/// One key plus a pre-rendered JSON value. Build with the field()
/// overloads; the free-form string overload escapes, the numeric ones
/// render exact literals.
struct Field {
  std::string key;
  std::string json;
};

Field field(std::string key, std::string_view value);
Field field(std::string key, const char* value);
Field field(std::string key, const std::string& value);
Field field(std::string key, u64 value);
Field field(std::string key, u32 value);
Field field(std::string key, i64 value);
Field field(std::string key, int value);
Field field(std::string key, double value);
Field field(std::string key, bool value);

class Logger {
 public:
  /// Seconds since the Unix epoch; injectable for deterministic tests.
  using Clock = std::function<double()>;

  Logger() = default;
  ~Logger();

  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  /// Append events to `path` instead of stderr (the --log-file flag).
  /// False (and the sink unchanged) when the file cannot be opened.
  bool open_file(const std::string& path);

  void set_clock(Clock clock);

  /// Attach a metrics registry: every emitted event increments
  /// reese_log_events_total{kind=<kind>}. The registry must outlive the
  /// attachment — detach with set_registry(nullptr) before destroying it.
  void set_registry(metrics::Registry* registry);
  metrics::Registry* registry() const;

  /// Emit one event. `kind` is the stable machine-readable discriminator
  /// ("job_submitted", "shutdown", ...); `message` is for humans. A field
  /// must not be named "kind" — that key is the event's own.
  void log(Level level, std::string_view kind, std::string_view message,
           const std::vector<Field>& fields = {});

  void info(std::string_view kind, std::string_view message,
            const std::vector<Field>& fields = {}) {
    log(Level::kInfo, kind, message, fields);
  }
  void warn(std::string_view kind, std::string_view message,
            const std::vector<Field>& fields = {}) {
    log(Level::kWarn, kind, message, fields);
  }
  void error(std::string_view kind, std::string_view message,
             const std::vector<Field>& fields = {}) {
    log(Level::kError, kind, message, fields);
  }

  /// Events written so far; tests assert on it.
  u64 events_written() const;

  /// Capture emitted lines into a string instead of a FILE* (tests).
  /// Pass nullptr to return to the FILE*/stderr sink.
  void set_capture(std::string* capture);

 private:
  mutable std::mutex mutex_;
  std::FILE* file_ = nullptr;  ///< owned; nullptr = stderr
  std::string* capture_ = nullptr;
  Clock clock_;
  metrics::Registry* registry_ = nullptr;
  u64 events_written_ = 0;
};

/// The process-wide logger (reesed's --log-file target).
Logger& global();

}  // namespace reese::log
