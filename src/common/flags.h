// Command-line flags. Each program declares every flag it takes once: its
// spelling, the variable it sets, and the range or choices of its value.
// One parse then applies one rule to every CLI:
//
//  * "-name" and "--name" are the same flag; "-name=VALUE" and
//    "--name=VALUE" give the value inline.
//  * A flag that takes a value takes the next token, whatever it is, so
//    "-fault_rate -0.5" works. With nothing after it, or an empty value:
//    "TOOL: FLAG needs a value". A switch takes no value.
//  * A bad value: "TOOL: FLAG must be ..., got VALUE", naming the range or
//    the choices. A flag given twice keeps its last value.
//  * An undeclared flag, or an operand given to a program that declares
//    none: "TOOL: unknown argument ARG".
//
// parse never exits: it applies every token it can and returns the first
// message, which the program prints before it exits 2.
#pragma once

#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"

namespace reese {

class Flags {
 public:
  /// `tool` starts every message: "reese_cli: -ruu must be ...".
  explicit Flags(std::string tool) : tool_(std::move(tool)) {}

  // Declarations. `name` is the flag's spelling, dashes included ("-ruu",
  // "--jobs"); messages use it, and either spelling matches it. A variable
  // keeps its value unless its flag is given. tools/doc_check.py finds the
  // declarations as calls on a variable named `flags`.

  /// An integer in [lo, hi] (parse_int syntax: decimal, 0x or 0b). The
  /// range never exceeds what T holds.
  template <typename T>
  void integer(const char* name, T* out,
               i64 lo = std::numeric_limits<i64>::min(),
               i64 hi = std::numeric_limits<i64>::max()) {
    static_assert(std::is_integral_v<T>);
    constexpr T kLowest = std::numeric_limits<T>::min();
    constexpr T kHighest = std::numeric_limits<T>::max();
    if (std::cmp_less(lo, kLowest)) lo = static_cast<i64>(kLowest);
    if (std::cmp_greater(hi, kHighest)) hi = static_cast<i64>(kHighest);
    declare_integer(name, lo, hi, [out](i64 value) {
      *out = static_cast<T>(value);
    });
  }
  /// A finite number in [lo, hi], or (lo, hi] with `exclude_lo`.
  void number(const char* name, double* out, double lo, double hi,
              bool exclude_lo = false);
  /// Any non-empty text. `*given`, when passed, becomes true once the flag
  /// is given.
  void text(const char* name, std::string* out, bool* given = nullptr);
  /// One of `choices`.
  void choice(const char* name, std::string* out,
              std::vector<std::string> choices);
  /// Non-empty text, appended each time the flag is given.
  void repeated(const char* name, std::vector<std::string>* out);
  /// 0 or 1.
  void binary(const char* name, bool* out);
  /// A switch: no value; sets `*out` to true.
  void toggle(const char* name, bool* out);
  /// A worker count: any integer; one outside [1, kMaxJobRequest] warns
  /// and means auto (sanitize_job_count).
  void jobs(const char* name, u32* out);
  /// Operands (tokens that are not flags) are appended to `*out`. Without
  /// this declaration an operand is an unknown argument.
  void operands(std::vector<std::string>* out) { operands_ = out; }

  /// Apply argv[1] .. argv[argc - 1]. Empty on success, else the message.
  std::string parse(int argc, const char* const* argv);
  /// Apply a config file: whitespace-separated tokens, '#' comments. A
  /// flag already given to parse keeps its command-line value.
  std::string parse_file(const std::string& path);

 private:
  struct Flag {
    std::string name;  ///< spelling, dashes included
    std::string key;   ///< name without its dashes
    bool takes_value;
    bool given;  ///< given on the command line
    /// Sets the variable from a value; for a bad one, returns what it must
    /// be ("an integer in [1, 4096]") and sets nothing.
    std::function<std::string(const std::string&)> set;
  };

  void declare(const char* name, bool takes_value,
               std::function<std::string(const std::string&)> set);
  void declare_integer(const char* name, i64 lo, i64 hi,
                       std::function<void(i64)> store);
  std::string apply(const std::vector<std::string>& tokens, bool from_file);

  std::string tool_;
  std::vector<Flag> flags_;
  std::vector<std::string>* operands_ = nullptr;
};

}  // namespace reese
