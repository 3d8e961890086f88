#include "common/flags.h"

#include <cstdio>
#include <cstdlib>

#include <fstream>
#include <sstream>

#include "common/strutil.h"

namespace reese {

Result<bool> FlagSet::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.size() < 2 || token[0] != '-') {
      positional_.push_back(token);
      continue;
    }
    usize name_start = (token[1] == '-') ? 2 : 1;
    std::string body = token.substr(name_start);

    // "-name:value" or "--name=value" forms.
    for (char sep : {':', '='}) {
      const usize pos = body.find(sep);
      if (pos != std::string::npos) {
        values_[body.substr(0, pos)] = body.substr(pos + 1);
        body.clear();
        break;
      }
    }
    if (body.empty()) continue;

    // "-name value" form; a bare trailing "-name" is treated as boolean true.
    if (i + 1 < argc && argv[i + 1][0] != '-') {
      values_[body] = argv[i + 1];
      ++i;
    } else {
      values_[body] = "true";
    }
  }
  return true;
}

Result<bool> FlagSet::parse_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) return errorf("cannot open config file '%s'", path.c_str());
  std::vector<std::string> tokens;
  std::string line;
  while (std::getline(file, line)) {
    const usize comment = line.find('#');
    if (comment != std::string::npos) line = line.substr(0, comment);
    for (std::string_view token : split_whitespace(line)) {
      tokens.emplace_back(token);
    }
  }
  // Reuse the argv parser; command-line values win over file values.
  FlagSet from_file;
  std::vector<const char*> argv = {"config"};
  for (const std::string& token : tokens) argv.push_back(token.c_str());
  if (auto parsed = from_file.parse(static_cast<int>(argv.size()),
                                    argv.data());
      !parsed.ok()) {
    return parsed.error();
  }
  for (const auto& [name, value] : from_file.values()) {
    values_.emplace(name, value);  // emplace: does not overwrite existing
  }
  for (const std::string& positional : from_file.positional()) {
    positional_.push_back(positional);
  }
  return true;
}

bool FlagSet::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string FlagSet::get_string(const std::string& name,
                                const std::string& def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

i64 FlagSet::get_i64(const std::string& name, i64 def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  i64 out = 0;
  if (!parse_int(it->second, &out)) {
    std::fprintf(stderr, "flag -%s: '%s' is not an integer\n", name.c_str(),
                 it->second.c_str());
    std::exit(2);
  }
  return out;
}

u64 FlagSet::get_u64(const std::string& name, u64 def) const {
  const i64 v = get_i64(name, static_cast<i64>(def));
  if (v < 0) {
    std::fprintf(stderr, "flag -%s: must be non-negative\n", name.c_str());
    std::exit(2);
  }
  return static_cast<u64>(v);
}

double FlagSet::get_double(const std::string& name, double def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  double v = 0.0;
  if (!parse_double(it->second, &v)) {
    std::fprintf(stderr, "flag -%s: '%s' is not a number\n", name.c_str(),
                 it->second.c_str());
    std::exit(2);
  }
  return v;
}

bool FlagSet::get_bool(const std::string& name, bool def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string v = to_lower(it->second);
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

i64 int_flag_value(const char* tool, const char* flag, const char* value,
                   i64 lo, i64 hi) {
  i64 parsed = 0;
  if (parse_int(value, &parsed) && parsed >= lo && parsed <= hi) {
    return parsed;
  }
  if (lo == INT64_MIN && hi == INT64_MAX) {
    std::fprintf(stderr, "%s: %s must be an integer, got %s\n", tool, flag,
                 value);
  } else {
    std::fprintf(stderr, "%s: %s must be an integer in [%lld, %lld], got %s\n",
                 tool, flag, static_cast<long long>(lo),
                 static_cast<long long>(hi), value);
  }
  std::exit(2);
}

double double_flag_value(const char* tool, const char* flag,
                         const char* value, double lo, double hi,
                         bool exclude_lo) {
  double parsed = 0.0;
  if (parse_double(value, &parsed) &&
      (exclude_lo ? parsed > lo : parsed >= lo) && parsed <= hi) {
    return parsed;
  }
  std::fprintf(stderr, "%s: %s must be a number in %c%g, %g], got %s\n", tool,
               flag, exclude_lo ? '(' : '[', lo, hi, value);
  std::exit(2);
}

}  // namespace reese
