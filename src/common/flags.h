// Tiny command-line flag parser used by the example CLI and the bench
// harnesses. Supports "-name value" and "-name:value" in the SimpleScalar
// style, plus "--name=value". The free functions below check one numeric
// value for CLIs that walk argv themselves.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/types.h"

namespace reese {

class FlagSet {
 public:
  /// Parse argv; unknown tokens that do not start with '-' become positional
  /// arguments. Returns an Error for a dangling "-name" with no value.
  Result<bool> parse(int argc, const char* const* argv);

  /// Parse a SimpleScalar-style config file: whitespace-separated
  /// "-flag value" tokens, '#' comments, blank lines. Values already set
  /// (e.g. from the command line) take precedence over file values.
  Result<bool> parse_file(const std::string& path);

  bool has(const std::string& name) const;

  /// Typed getters with defaults. get_i64/get_u64 abort the program with a
  /// clear message on malformed numbers (a CLI usage error, not a bug).
  std::string get_string(const std::string& name, const std::string& def) const;
  i64 get_i64(const std::string& name, i64 def) const;
  u64 get_u64(const std::string& name, u64 def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// All "-name value" pairs seen, for echoing configuration in reports.
  const std::map<std::string, std::string>& values() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// `value`, given to command-line flag `flag` of program `tool`, as an
/// integer in [lo, hi] (parse_int syntax: decimal, 0x or 0b). Anything else
/// is a usage error: one stderr line naming the tool and the flag, then
/// exit 2. A value read as its numeric prefix would run something else.
i64 int_flag_value(const char* tool, const char* flag, const char* value,
                   i64 lo = INT64_MIN, i64 hi = INT64_MAX);

/// As int_flag_value, for a finite number in [lo, hi]; with `exclude_lo`
/// the range is (lo, hi].
double double_flag_value(const char* tool, const char* flag,
                         const char* value, double lo, double hi,
                         bool exclude_lo = false);

}  // namespace reese
