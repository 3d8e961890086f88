// String helpers shared by the assembler, flag parser and report printers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace reese {

/// Remove leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Split on a single delimiter character; empty fields preserved.
std::vector<std::string_view> split(std::string_view s, char delim);

/// Split on runs of whitespace; no empty fields.
std::vector<std::string_view> split_whitespace(std::string_view s);

/// Case-sensitive prefix/suffix checks (C++20 has starts_with; kept for
/// symmetry and readability at call sites).
bool starts_with(std::string_view s, std::string_view prefix);

/// Parse a signed 64-bit integer with optional 0x/0b prefix and sign.
/// Returns false on any trailing garbage or overflow.
bool parse_int(std::string_view s, i64* out);

/// Parse a finite floating-point number (strtod syntax: 0.5, 5e-3, ...).
/// Returns false on trailing garbage, overflow, NaN or infinity.
bool parse_double(std::string_view s, double* out);

/// printf into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Lower-case an ASCII string.
std::string to_lower(std::string_view s);

/// Write `text` to `path`, replacing the file. False when the file cannot
/// be opened, written or closed; a full device may fail only at the close.
bool write_text_file(const std::string& path, std::string_view text);

}  // namespace reese
