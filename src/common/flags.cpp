#include "common/flags.h"

#include <algorithm>
#include <cassert>
#include <fstream>

#include "common/strutil.h"
#include "common/thread_pool.h"

namespace reese {

void Flags::declare(const char* name, bool takes_value,
                    std::function<std::string(const std::string&)> set) {
  Flag flag{name, "", takes_value, false, std::move(set)};
  flag.key = flag.name.substr(flag.name.find_first_not_of('-'));
  assert(std::none_of(flags_.begin(), flags_.end(),
                      [&](const Flag& f) { return f.key == flag.key; }));
  flags_.push_back(std::move(flag));
}

void Flags::declare_integer(const char* name, i64 lo, i64 hi,
                            std::function<void(i64)> store) {
  const bool any = lo == std::numeric_limits<i64>::min() &&
                   hi == std::numeric_limits<i64>::max();
  const std::string expected =
      any ? "an integer"
          : format("an integer in [%lld, %lld]", static_cast<long long>(lo),
                   static_cast<long long>(hi));
  declare(name, true, [=, store = std::move(store)](const std::string& v) {
    i64 parsed = 0;
    if (!parse_int(v, &parsed) || parsed < lo || parsed > hi) return expected;
    store(parsed);
    return std::string();
  });
}

void Flags::number(const char* name, double* out, double lo, double hi,
                   bool exclude_lo) {
  const std::string expected =
      format("a number in %c%g, %g]", exclude_lo ? '(' : '[', lo, hi);
  declare(name, true, [=](const std::string& v) {
    double parsed = 0.0;
    if (!parse_double(v, &parsed) || parsed < lo || parsed > hi ||
        (exclude_lo && parsed == lo)) {
      return expected;
    }
    *out = parsed;
    return std::string();
  });
}

void Flags::text(const char* name, std::string* out, bool* given) {
  declare(name, true, [=](const std::string& v) {
    *out = v;
    if (given != nullptr) *given = true;
    return std::string();
  });
}

void Flags::choice(const char* name, std::string* out,
                   std::vector<std::string> choices) {
  std::string expected;  // "gshare, taken or nottaken"
  for (usize i = 0; i < choices.size(); ++i) {
    if (i > 0) expected += i + 1 == choices.size() ? " or " : ", ";
    expected += choices[i];
  }
  declare(name, true, [=, choices = std::move(choices)](const std::string& v) {
    if (std::find(choices.begin(), choices.end(), v) == choices.end()) {
      return expected;
    }
    *out = v;
    return std::string();
  });
}

void Flags::repeated(const char* name, std::vector<std::string>* out) {
  declare(name, true, [=](const std::string& v) {
    out->push_back(v);
    return std::string();
  });
}

void Flags::binary(const char* name, bool* out) {
  declare(name, true, [=](const std::string& v) {
    if (v != "0" && v != "1") return std::string("0 or 1");
    *out = v == "1";
    return std::string();
  });
}

void Flags::toggle(const char* name, bool* out) {
  declare(name, false, [=](const std::string&) {
    *out = true;
    return std::string();
  });
}

void Flags::jobs(const char* name, u32* out) {
  declare_integer(name, std::numeric_limits<i64>::min(),
                  std::numeric_limits<i64>::max(),
                  [=, flag = std::string(name)](i64 value) {
                    *out = sanitize_job_count(value, flag.c_str());
                  });
}

std::string Flags::parse(int argc, const char* const* argv) {
  return apply(std::vector<std::string>(argv + std::min(argc, 1), argv + argc),
               /*from_file=*/false);
}

std::string Flags::parse_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) return tool_ + ": cannot open config file " + path;
  std::vector<std::string> tokens;
  for (std::string line; std::getline(file, line);) {
    for (std::string_view token :
         split_whitespace(std::string_view(line).substr(0, line.find('#')))) {
      tokens.emplace_back(token);
    }
  }
  return apply(tokens, /*from_file=*/true);
}

std::string Flags::apply(const std::vector<std::string>& tokens,
                         bool from_file) {
  std::string first_error;
  const auto fail = [&](const std::string& message) {
    if (first_error.empty()) first_error = tool_ + ": " + message;
  };
  for (usize i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    const bool is_flag = token.size() > 1 && token[0] == '-';
    const usize start = is_flag && token[1] == '-' ? 2 : 1;
    const usize equals = token.find('=');
    const std::string key = is_flag ? token.substr(start, equals - start) : "";
    const auto flag = std::find_if(flags_.begin(), flags_.end(), [&](auto& f) {
      return is_flag && f.key == key;
    });
    if (flag == flags_.end()) {
      if (!is_flag && operands_ != nullptr) {
        operands_->push_back(token);
      } else {
        fail("unknown argument " + token);
      }
      continue;
    }
    std::string value;
    if (equals != std::string::npos) {
      value = token.substr(equals + 1);
    } else if (flag->takes_value && i + 1 < tokens.size()) {
      value = tokens[++i];
    }
    if (!flag->takes_value && equals != std::string::npos) {
      fail(flag->name + " takes no value, got " + value);
    } else if (flag->takes_value && value.empty()) {
      fail(flag->name + " needs a value");
    } else if (!from_file || !flag->given) {  // the command line wins
      if (!from_file) flag->given = true;
      const std::string expected = flag->set(value);
      if (!expected.empty()) {
        fail(flag->name + " must be " + expected + ", got " + value);
      }
    }
  }
  return first_error;
}

}  // namespace reese
