#include "common/strutil.h"

#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace reese {

std::string_view trim(std::string_view s) {
  usize begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  usize end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::vector<std::string_view> split(std::string_view s, char delim) {
  std::vector<std::string_view> parts;
  usize start = 0;
  for (usize i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      parts.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

std::vector<std::string_view> split_whitespace(std::string_view s) {
  std::vector<std::string_view> parts;
  usize i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    const usize start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    if (i > start) parts.push_back(s.substr(start, i - start));
  }
  return parts;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool parse_int(std::string_view s, i64* out) {
  s = trim(s);
  if (s.empty()) return false;

  bool negative = false;
  if (s[0] == '+' || s[0] == '-') {
    negative = (s[0] == '-');
    s.remove_prefix(1);
    if (s.empty()) return false;
  }

  int base = 10;
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    base = 16;
    s.remove_prefix(2);
  } else if (s.size() > 2 && s[0] == '0' && (s[1] == 'b' || s[1] == 'B')) {
    base = 2;
    s.remove_prefix(2);
  }
  if (s.empty()) return false;

  u64 magnitude = 0;
  for (char c : s) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = 10 + (c - 'a');
    } else if (c >= 'A' && c <= 'F') {
      digit = 10 + (c - 'A');
    } else {
      return false;
    }
    if (digit >= base) return false;
    const u64 b = static_cast<u64>(base);
    const u64 d = static_cast<u64>(digit);
    if (magnitude > (UINT64_MAX - d) / b) return false;  // overflow
    magnitude = magnitude * b + d;
  }

  if (negative) {
    if (magnitude > (u64{1} << 63)) return false;
    // Negate in u64: -static_cast<i64>(2^63) would overflow for INT64_MIN.
    *out = static_cast<i64>(0 - magnitude);
  } else {
    if (magnitude > static_cast<u64>(INT64_MAX)) return false;
    *out = static_cast<i64>(magnitude);
  }
  return true;
}

bool parse_double(std::string_view s, double* out) {
  // strtod needs a terminated string and would skip only leading blanks.
  const std::string text(trim(s));
  if (text.empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

std::string format(const char* fmt, ...) {
  char buf[2048];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return std::string(buf);
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool write_text_file(const std::string& path, std::string_view text) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const bool written =
      std::fwrite(text.data(), 1, text.size(), file) == text.size();
  return std::fclose(file) == 0 && written;
}

}  // namespace reese
