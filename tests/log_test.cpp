// Structured event log tests (common/log.h): exact line bytes under an
// injected clock, level names, field rendering/escaping, the
// reese_log_events_total counter, file sinks, and serialization under
// concurrent emitters.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/log.h"
#include "common/metrics.h"

namespace reese {
namespace {

using log::Field;
using log::Level;
using log::Logger;

/// A logger frozen at a fixed instant, writing into `capture`.
void freeze(Logger* logger, std::string* capture, double at = 1234.5) {
  logger->set_clock([at] { return at; });
  logger->set_capture(capture);
}

TEST(Log, LevelNamesRoundTrip) {
  EXPECT_STREQ(log::level_name(Level::kInfo), "info");
  EXPECT_STREQ(log::level_name(Level::kWarn), "warn");
  EXPECT_STREQ(log::level_name(Level::kError), "error");
}

TEST(Log, EmitsExactJsonLines) {
  Logger logger;
  std::string capture;
  freeze(&logger, &capture);
  logger.info("job_finished", "job 3 finished in state done",
              {log::field("state", "done"),
               log::field("id", static_cast<u64>(3)),
               log::field("kips", 12.5),
               log::field("cancelled", false)});
  EXPECT_EQ(capture,
            "{\"ts\": 1234.500000, \"level\": \"info\", "
            "\"kind\": \"job_finished\", "
            "\"msg\": \"job 3 finished in state done\", "
            "\"state\": \"done\", \"id\": 3, "
            "\"kips\": 12.500000, \"cancelled\": false}\n");
  // Every line is one standalone JSON object.
  EXPECT_TRUE(json::parse_json(capture).ok()) << capture;
}

TEST(Log, EscapesHostileMessagesAndFieldValues) {
  Logger logger;
  std::string capture;
  freeze(&logger, &capture);
  logger.warn("config",
              "a \"quoted\"\nmessage\\with\tcontrol\x01" "chars",
              {log::field("path", "/tmp/\"log\".json")});
  ASSERT_EQ(capture.find('\n'), capture.size() - 1)
      << "embedded newlines must be escaped, one event = one line";
  EXPECT_TRUE(json::parse_json(capture).ok()) << capture;
  EXPECT_NE(capture.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(capture.find("\\u0001"), std::string::npos);
}

TEST(Log, EveryEventBumpsTheKindCounter) {
  Logger logger;
  std::string capture;
  freeze(&logger, &capture);
  metrics::Registry registry;
  logger.set_registry(&registry);
  EXPECT_EQ(logger.registry(), &registry);
  logger.info("job_submitted", "one");
  logger.info("job_submitted", "two");
  logger.info("job_finished", "three");
  logger.set_registry(nullptr);
  logger.info("untracked", "after detach: not counted");

  metrics::Counter* submitted = registry.counter(
      "reese_log_events_total", {{"kind", "job_submitted"}});
  metrics::Counter* finished = registry.counter(
      "reese_log_events_total", {{"kind", "job_finished"}});
  ASSERT_NE(submitted, nullptr);
  ASSERT_NE(finished, nullptr);
  EXPECT_EQ(submitted->value(), 2u);
  EXPECT_EQ(finished->value(), 1u);
  EXPECT_EQ(registry.size(), 2u) << "detached events add no series";
}

TEST(Log, FileSinkAppendsAcrossReopen) {
  char path[] = "/tmp/reese_log_test_XXXXXX";
  const int fd = ::mkstemp(path);
  ASSERT_GE(fd, 0);
  ::close(fd);

  Logger logger;
  logger.set_clock([] { return 1.0; });
  ASSERT_TRUE(logger.open_file(path));
  logger.info("first", "one");
  // Reopening the same path (a restarted daemon) must append, not clobber.
  ASSERT_TRUE(logger.open_file(path));
  logger.info("second", "two");

  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("\"kind\": \"first\""), std::string::npos);
  EXPECT_NE(content.str().find("\"kind\": \"second\""), std::string::npos);

  EXPECT_FALSE(logger.open_file("/no/such/dir/event.log"))
      << "an unopenable path must fail without losing the current sink";
  logger.info("third", "still landing in the original file");
  std::ifstream again(path);
  std::stringstream later;
  later << again.rdbuf();
  EXPECT_NE(later.str().find("\"kind\": \"third\""), std::string::npos);
  ::unlink(path);
}

TEST(Log, ConcurrentEmittersNeverInterleaveWithinALine) {
  Logger logger;
  std::string capture;
  freeze(&logger, &capture);
  constexpr int kThreads = 8;
  constexpr int kEvents = 250;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&logger, t] {
      for (int i = 0; i < kEvents; ++i) {
        logger.info("stress", "event",
                    {log::field("thread", t), log::field("i", i)});
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(logger.events_written(),
            static_cast<u64>(kThreads) * kEvents);
  // Each line parses on its own: interleaved writes would corrupt one.
  usize lines = 0;
  std::istringstream stream(capture);
  std::string line;
  while (std::getline(stream, line)) {
    ++lines;
    EXPECT_TRUE(json::parse_json(line).ok()) << line;
  }
  EXPECT_EQ(lines, static_cast<usize>(kThreads) * kEvents);
}

}  // namespace
}  // namespace reese
