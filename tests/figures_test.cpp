// End-to-end tests of the figure driver, bench/reese_figs: the binary runs
// at a 5k-instruction budget (path via REESE_FIGS_BIN) and its stdout,
// exit status and --out report are checked.
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/strutil.h"

namespace reese {
namespace {

struct Output {
  int status = -1;
  std::string out;
};

/// Runs reese_figs with `args` at a 5k budget and captures stdout, plus
/// stderr when `with_stderr`.
Output run_figs(const std::string& args, bool with_stderr = false) {
  const std::string command =
      format("REESE_SIM_INSTR=5000 %s --jobs 2 %s %s", REESE_FIGS_BIN,
             args.c_str(), with_stderr ? "2>&1" : "2>/dev/null");
  Output run;
  FILE* stream = popen(command.c_str(), "r");
  if (stream == nullptr) return run;
  char buffer[4096];
  usize n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), stream)) > 0) {
    run.out.append(buffer, n);
  }
  const int status = pclose(stream);
  run.status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

TEST(ReeseFigs, AllPrintsTheSixFiguresInOrder) {
  const Output all = run_figs("--figure all");
  ASSERT_EQ(all.status, 0);
  std::string concatenated;
  for (const char* figure : {"fig2", "fig3", "fig4", "fig5", "fig6", "fig7"}) {
    const Output one = run_figs(std::string("--figure ") + figure);
    ASSERT_EQ(one.status, 0) << figure;
    concatenated += one.out;
  }
  EXPECT_EQ(all.out, concatenated);
  // Figure 6 reuses the Figure 5 grid, which has no +2ALU+1Mult bar.
  const usize row = all.out.find("  MemPorts ");
  ASSERT_NE(row, std::string::npos);
  const std::string line = all.out.substr(row, all.out.find('\n', row) - row);
  EXPECT_NE(line.find("             -"), std::string::npos) << line;
}

TEST(ReeseFigs, UnknownFigureExits2NamingTheValidOnes) {
  const Output run = run_figs("--figure fig8", /*with_stderr=*/true);
  EXPECT_EQ(run.status, 2);
  EXPECT_NE(run.out.find("'fig8'"), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("fig2, fig3, fig4, fig5, fig6, fig7, all"),
            std::string::npos)
      << run.out;
}

TEST(ReeseFigs, OutReportsEveryGridAndTheFigure6Summary) {
  const std::string path = ::testing::TempDir() + "reese_figs_report.json";
  std::remove(path.c_str());
  ASSERT_EQ(run_figs("--figure all --out " + path).status, 0);
  std::ifstream file(path);
  std::stringstream text;
  text << file.rdbuf();
  const Result<json::Value> parsed = json::parse_json(text.str());
  ASSERT_TRUE(parsed.ok()) << text.str();
  const json::Value& report = parsed.value();
  ASSERT_NE(report.find("schema"), nullptr);
  EXPECT_EQ(report.find("schema")->string, "reese-overnight-v1");

  const json::Value* figures = report.find("figures");
  ASSERT_NE(figures, nullptr);
  std::vector<std::string> names;
  for (const json::Value& figure : figures->array) {
    names.push_back(figure.find("name")->string);
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "fig2", "fig3", "fig4", "fig5", "fig7_ruu64",
                       "fig7_ruu64_fus", "fig7_ruu256", "fig7_ruu256_fus"}));

  // One row per figure 2-5 grid, holding that grid's averages.
  const json::Value* summary = report.find("fig6_summary");
  ASSERT_NE(summary, nullptr);
  ASSERT_EQ(summary->array.size(), 4u);
  const char* kVariations[] = {"None", "RUU,LSQ 2X", "Ex.Q 2X", "MemPorts"};
  for (usize row = 0; row < 4; ++row) {
    const json::Value& entry = summary->array[row];
    EXPECT_EQ(entry.find("variation")->string, kVariations[row]);
    const std::vector<json::Value>& average = entry.find("average")->array;
    const std::vector<json::Value>& grid_average =
        figures->array[row].find("average")->array;
    ASSERT_EQ(average.size(), row == 3 ? 4u : 5u);
    ASSERT_EQ(average.size(), grid_average.size());
    for (usize m = 0; m < average.size(); ++m) {
      EXPECT_EQ(average[m].number, grid_average[m].number);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace reese
