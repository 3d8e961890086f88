// srv-vuln: static AVF/vulnerability analyzer for SRV assembly programs.
//
//   $ ./build/tools/srv-vuln examples/srv/sieve.srv
//   $ ./build/tools/srv-vuln --format=json examples/srv/gcd.srv
//   $ ./build/tools/srv-vuln --top=10 examples/asm/fib.s
//
// Assembles each input file and runs the srv-vuln pass family (liveness
// window + demanded bits + loop-frequency ranking, see
// src/analysis/vuln.h) over the decoded image. Flags:
//   --format=text|json      output format (default text)
//   --top=N                 text mode: show only the N highest-ranked
//                           instructions (default 0 = all)
//
// Exit status: 0 = analyzed, 1 = a file failed to assemble, 2 = usage
// error. The JSON output is one reese-avf-v1 "static" document per file.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/vuln.h"
#include "common/flags.h"
#include "isa/assembler.h"

using namespace reese;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: srv-vuln [--format=text|json] [--top=N]\n"
               "                file.srv [file2.srv ...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string format = "text";
  usize top = 0;
  std::vector<std::string> paths;
  Flags flags("srv-vuln");
  flags.choice("--format", &format, {"text", "json"});
  flags.integer("--top", &top);
  flags.operands(&paths);
  if (const std::string error = flags.parse(argc, argv); !error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return usage();
  }
  if (paths.empty()) return usage();

  bool failed = false;
  for (const std::string& path : paths) {
    std::ifstream file(path);
    if (!file) {
      std::fprintf(stderr, "srv-vuln: cannot open %s\n", path.c_str());
      failed = true;
      continue;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    auto assembled = isa::assemble(buffer.str());
    if (!assembled.ok()) {
      std::fprintf(stderr, "srv-vuln: %s: line %d: %s\n", path.c_str(),
                   assembled.error().line,
                   assembled.error().message.c_str());
      failed = true;
      continue;
    }
    const analysis::VulnReport report =
        analysis::analyze_vulnerability(assembled.value());
    const std::string rendered =
        format == "json" ? report.json(path)
                         : report.table(path, top);
    std::fputs(rendered.c_str(), stdout);
  }
  return failed ? 1 : 0;
}
