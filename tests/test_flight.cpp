// The flight recorder's crash hooks: a child that crashes by SIGSEGV, by
// abort() or by std::terminate() dies by the expected signal and leaves
// exactly one dump, which parses, names the trigger and holds the event the
// child recorded before it crashed. Kept out of the ThreadSanitizer job: the
// hooks allocate and write files inside a signal handler by design.
#include <gtest/gtest.h>

#include "json_check.hpp"

#include <csignal>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/flight.hpp"

namespace {

namespace fs = std::filesystem;
using appfl::obs::FlightRecorder;

/// An empty directory for one test's dumps.
std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  return dir.string();
}

/// The child's body: arm the global recorder, record one event, crash.
void record_then(const std::string& dir, void (*crash)()) {
  FlightRecorder& rec = FlightRecorder::global();
  rec.set_dump_dir(dir);
  rec.record("test.before_crash", "{\"marker\":7}");
  FlightRecorder::install_crash_hooks();
  crash();
}

/// Checks that `dir` holds one dump naming `reason`, then removes `dir`.
void expect_one_dump(const std::string& dir, const std::string& reason) {
  std::vector<fs::path> dumps;
  if (fs::exists(dir)) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      dumps.push_back(entry.path());
    }
  }
  ASSERT_EQ(dumps.size(), 1U) << "dumps in " << dir;
  EXPECT_NE(dumps[0].filename().string().find("-" + reason + ".json"),
            std::string::npos)
      << dumps[0];
  std::ifstream in(dumps[0]);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  EXPECT_TRUE(appfl::testutil::json_well_formed(text)) << text;
  EXPECT_NE(text.find("\"reason\":\"" + reason + "\""), std::string::npos)
      << text;
  EXPECT_NE(text.find("\"events_recorded\":1"), std::string::npos) << text;
  EXPECT_NE(text.find("\"kind\":\"test.before_crash\",\"data\":{\"marker\":7}"),
            std::string::npos)
      << text;
  fs::remove_all(dir);
}

TEST(FlightCrashDeathTest, SigsegvLeavesOneDump) {
  const std::string dir = fresh_dir("appfl_flight_sigsegv");
  EXPECT_EXIT(record_then(dir, [] { std::raise(SIGSEGV); }),
              testing::KilledBySignal(SIGSEGV), "");
  expect_one_dump(dir, "sigsegv");
}

TEST(FlightCrashDeathTest, AbortLeavesOneDump) {
  const std::string dir = fresh_dir("appfl_flight_abort");
  EXPECT_EXIT(record_then(dir, [] { std::abort(); }),
              testing::KilledBySignal(SIGABRT), "");
  expect_one_dump(dir, "sigabrt");
}

TEST(FlightCrashDeathTest, TerminateLeavesOneDump) {
  // The default terminate handler aborts: one "terminate" dump, no second
  // "sigabrt" one for that abort.
  const std::string dir = fresh_dir("appfl_flight_terminate");
  EXPECT_EXIT(record_then(dir, [] { std::terminate(); }),
              testing::KilledBySignal(SIGABRT), "");
  expect_one_dump(dir, "terminate");
}

}  // namespace
