#include "common/diag.h"

#include "common/strutil.h"

namespace reese {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += format("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_quote(std::string_view s) {
  // Appended, not `"\"" + json_escape(s) + "\""`: for a literal plus a
  // temporary string, g++ 12 at -O3 warns a false -Wrestrict inside
  // libstdc++.
  std::string out = "\"";
  out += json_escape(s);
  out += '"';
  return out;
}

}  // namespace reese
