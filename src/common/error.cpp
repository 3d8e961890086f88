#include "common/error.h"

#include <cstdarg>
#include <cstdio>

namespace reese {

std::string Error::to_string() const {
  if (line <= 0) return message;
  // Appended piece by piece, as json_quote is: g++ 12 at -O3 can warn a
  // false -Wrestrict inside libstdc++ for a literal plus a temporary string.
  std::string text = "line ";
  text += std::to_string(line);
  text += ": ";
  text += message;
  return text;
}

Error errorf(const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return Error{std::string(buf), 0};
}

}  // namespace reese
