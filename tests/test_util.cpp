// Unit tests for the util module: checks, logging, thread pool, tables.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "util/check.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using appfl::Error;
using appfl::util::CsvWriter;
using appfl::util::Stopwatch;
using appfl::util::TextTable;
using appfl::util::ThreadPool;

TEST(Check, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(APPFL_CHECK(1 + 1 == 2));
}

TEST(Check, FailingCheckThrowsError) {
  EXPECT_THROW(APPFL_CHECK(false), Error);
}

TEST(Check, MessageCarriesContext) {
  try {
    APPFL_CHECK_MSG(false, "value was " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_util.cpp"), std::string::npos);
  }
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for(100, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(64, [&](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(8,
                                 [](std::size_t i) {
                                   if (i == 3) throw Error("boom");
                                 }),
               Error);
}

TEST(ThreadPool, ZeroTasksIsNoop) {
  ThreadPool pool(2);
  EXPECT_NO_THROW(pool.parallel_for(0, [](std::size_t) { FAIL(); }));
}

TEST(ThreadPool, SubmitReturnsUsableFuture) {
  ThreadPool pool(2);
  auto fut = pool.submit([] {});
  EXPECT_NO_THROW(fut.get());
}

TEST(ThreadPool, DefaultThreadsAtLeastTwo) {
  EXPECT_GE(ThreadPool::default_threads(), 2U);
}

TEST(ThreadPool, ParallelForRangeCoversPartition) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(97);
  std::atomic<int> chunks{0};
  pool.parallel_for_range(97, [&](std::size_t begin, std::size_t end) {
    ASSERT_LT(begin, end);
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
    ++chunks;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  // At most ~4 chunks per worker.
  EXPECT_LE(chunks.load(), 12);
  EXPECT_GE(chunks.load(), 1);
}

TEST(ThreadPool, OnWorkerThreadDetectsPoolContext) {
  EXPECT_FALSE(ThreadPool::on_worker_thread());
  ThreadPool pool(2);
  std::atomic<int> seen_on_worker{0};
  pool.parallel_for(8, [&](std::size_t) {
    if (ThreadPool::on_worker_thread()) ++seen_on_worker;
  });
  EXPECT_EQ(seen_on_worker.load(), 8);
  EXPECT_FALSE(ThreadPool::on_worker_thread());  // caller is unaffected
}

TEST(Stopwatch, MeasuresNonNegativeTime) {
  Stopwatch sw;
  EXPECT_GE(sw.elapsed_seconds(), 0.0);
  sw.reset();
  EXPECT_GE(sw.elapsed_seconds(), 0.0);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2U);
}

TEST(TextTable, RejectsWrongArity) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(CsvWriter, EscapesSpecialCharacters) {
  CsvWriter w({"k", "v"});
  w.add_row({"comma,here", "quote\"here"});
  std::ostringstream os;
  w.print(os);
  EXPECT_NE(os.str().find("\"comma,here\""), std::string::npos);
  EXPECT_NE(os.str().find("\"quote\"\"here\""), std::string::npos);
}

TEST(CsvWriter, WritesFile) {
  CsvWriter w({"x"});
  w.add_row({"1"});
  const std::string path = testing::TempDir() + "/appfl_csv_test.csv";
  EXPECT_NO_THROW(w.write_file(path));
}

TEST(Fmt, FormatsFixedDigits) {
  EXPECT_EQ(appfl::util::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(appfl::util::fmt(2.0, 0), "2");
}

TEST(Env, EmptyMeansUnsetAndBadValuesWarnInOneFormat) {
  ::setenv("APPFL_TEST_ENV", "", 1);
  EXPECT_FALSE(appfl::util::env_value("APPFL_TEST_ENV").has_value());
  ::setenv("APPFL_TEST_ENV", "loud", 1);
  testing::internal::CaptureStderr();
  constexpr std::array<std::string_view, 2> kNames = {"quiet", "verbose"};
  EXPECT_FALSE(appfl::util::env_choice("APPFL_TEST_ENV", kNames).has_value());
  EXPECT_FALSE(appfl::util::env_uint("APPFL_TEST_ENV", 1, 9).has_value());
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "warning: ignoring invalid APPFL_TEST_ENV='loud' "
            "(need quiet|verbose)\n"
            "warning: ignoring invalid APPFL_TEST_ENV='loud' "
            "(need an integer in [1, 9])\n");
  ::setenv("APPFL_TEST_ENV", "verbose", 1);
  EXPECT_EQ(appfl::util::env_choice("APPFL_TEST_ENV", kNames), 1U);
  ::unsetenv("APPFL_TEST_ENV");
}

TEST(Env, ParseUintIsStrict) {
  using appfl::util::parse_uint;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(parse_uint("42", 0, kMax), 42U);
  for (const char* bad : {"", "-3", "+3", " 3", "3x", "abc",
                          "99999999999999999999"}) {
    EXPECT_FALSE(parse_uint(bad, 0, kMax).has_value()) << bad;
  }
  EXPECT_FALSE(parse_uint("0", 1, kMax).has_value());
  EXPECT_FALSE(parse_uint("1025", 0, 1024).has_value());
  EXPECT_EQ(appfl::util::describe_uint(1, kMax), "a positive integer");
}

}  // namespace
