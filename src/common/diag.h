// JSON string escaping for the reports, traces, logs and HTTP bodies that
// build JSON documents by hand.
#pragma once

#include <string>
#include <string_view>

namespace reese {

/// Escape a string for embedding in a JSON string literal (no surrounding
/// quotes).
std::string json_escape(std::string_view s);

}  // namespace reese
