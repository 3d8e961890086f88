#include "common/log.h"

#include <chrono>
#include <cmath>

#include "common/diag.h"
#include "common/strutil.h"

namespace reese::log {

namespace {

double wall_clock_now() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::kInfo: return "info";
    case Level::kWarn: return "warn";
    case Level::kError: return "error";
  }
  return "?";
}

Field field(std::string key, std::string_view value) {
  return {std::move(key), json_quote(value)};
}
Field field(std::string key, const char* value) {
  return {std::move(key), json_quote(value == nullptr ? "" : value)};
}
Field field(std::string key, const std::string& value) {
  return {std::move(key), json_quote(value)};
}
Field field(std::string key, u64 value) {
  return {std::move(key),
          format("%llu", static_cast<unsigned long long>(value))};
}
Field field(std::string key, u32 value) {
  return field(std::move(key), static_cast<u64>(value));
}
Field field(std::string key, i64 value) {
  return {std::move(key), format("%lld", static_cast<long long>(value))};
}
Field field(std::string key, int value) {
  return field(std::move(key), static_cast<i64>(value));
}
Field field(std::string key, double value) {
  if (!std::isfinite(value)) return {std::move(key), "null"};
  return {std::move(key), format("%.6f", value)};
}
Field field(std::string key, bool value) {
  return {std::move(key), value ? "true" : "false"};
}

Logger::~Logger() {
  if (file_ != nullptr) std::fclose(file_);
}

bool Logger::open_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "a");
  if (file == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = file;
  return true;
}

void Logger::set_clock(Clock clock) {
  std::lock_guard<std::mutex> lock(mutex_);
  clock_ = std::move(clock);
}

void Logger::set_registry(metrics::Registry* registry) {
  std::lock_guard<std::mutex> lock(mutex_);
  registry_ = registry;
}

metrics::Registry* Logger::registry() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return registry_;
}

u64 Logger::events_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_written_;
}

void Logger::set_capture(std::string* capture) {
  std::lock_guard<std::mutex> lock(mutex_);
  capture_ = capture;
}

void Logger::log(Level level, std::string_view kind, std::string_view message,
                 const std::vector<Field>& fields) {
  std::lock_guard<std::mutex> lock(mutex_);
  const double ts = clock_ ? clock_() : wall_clock_now();
  std::string line = format("{\"ts\": %.6f, \"level\": \"%s\", ", ts,
                            level_name(level));
  line += "\"kind\": " + json_quote(kind) +
          ", \"msg\": " + json_quote(message);
  for (const Field& f : fields) {
    line += ", " + json_quote(f.key) + ": " + f.json;
  }
  line += "}\n";
  if (capture_ != nullptr) {
    *capture_ += line;
  } else {
    std::FILE* sink = file_ != nullptr ? file_ : stderr;
    std::fwrite(line.data(), 1, line.size(), sink);
    std::fflush(sink);
  }
  ++events_written_;
  if (registry_ != nullptr) {
    if (metrics::Counter* counter = registry_->counter(
            "reese_log_events_total", {{"kind", std::string(kind)}},
            "Structured log events by kind")) {
      counter->inc();
    }
  }
}

Logger& global() {
  static Logger logger;
  return logger;
}

}  // namespace reese::log
