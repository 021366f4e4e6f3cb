// Command-line flag parser.
#include <gtest/gtest.h>

#include "util/check.hpp"

#include "util/args.hpp"

namespace {

using appfl::util::ArgParser;

ArgParser parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, SpaceSeparatedValues) {
  const auto p = parse({"--rounds", "50", "--algorithm", "iiadmm"});
  EXPECT_EQ(p.get_int("rounds", 0), 50);
  EXPECT_EQ(p.get_string("algorithm", ""), "iiadmm");
}

TEST(Args, EqualsSeparatedValues) {
  const auto p = parse({"--epsilon=3.5", "--name=test run"});
  EXPECT_DOUBLE_EQ(p.get_double("epsilon", 0.0), 3.5);
  EXPECT_EQ(p.get_string("name", ""), "test run");
}

TEST(Args, DefaultsWhenAbsent) {
  const auto p = parse({});
  EXPECT_EQ(p.get_int("rounds", 7), 7);
  EXPECT_EQ(p.get_string("x", "d"), "d");
  EXPECT_DOUBLE_EQ(p.get_double("y", 1.5), 1.5);
  EXPECT_FALSE(p.has("rounds"));
}

TEST(Args, PositionalArguments) {
  const auto p = parse({"run", "--rounds", "3", "extra"});
  ASSERT_EQ(p.positional().size(), 2U);
  EXPECT_EQ(p.positional()[0], "run");
  EXPECT_EQ(p.positional()[1], "extra");
}

TEST(Args, ValuelessFlagFollowedByFlag) {
  const auto p = parse({"--verbose", "--rounds", "3"});
  EXPECT_TRUE(p.has("verbose"));
  EXPECT_EQ(p.get_int("rounds", 0), 3);
}

TEST(Args, MalformedNumbersThrow) {
  const auto p = parse({"--rounds", "abc", "--lr", "x1"});
  EXPECT_THROW(p.get_int("rounds", 0), appfl::Error);
  EXPECT_THROW(p.get_double("lr", 0.0), appfl::Error);
}

TEST(Args, UnknownFlagDetection) {
  const auto p = parse({"--rounds", "3", "--typo-flag", "7"});
  (void)p.get_int("rounds", 0);
  const auto unknown = p.unknown_flags();
  ASSERT_EQ(unknown.size(), 1U);
  EXPECT_EQ(unknown[0], "typo-flag");
}

}  // namespace
