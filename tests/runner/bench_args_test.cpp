// The shared bench CLI (bench/bench_util.h): every runner-based bench
// parses --threads/--trials/--seed/--json/--flight-limit through
// parse_bench_args, which exits 2 with a diagnostic on anything it does
// not understand. The exits run as death tests in the "threadsafe" style
// (the child re-executes this binary), so the TSan job can run them too.
#include "bench_util.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace {

using silence::bench::BenchArgs;
using silence::bench::parse_bench_args;

BenchArgs parse(std::vector<std::string> words) {
  std::string program = "bench";
  std::vector<char*> argv{program.data()};
  for (std::string& word : words) argv.push_back(word.data());
  argv.push_back(nullptr);
  return parse_bench_args(static_cast<int>(argv.size()) - 1, argv.data(),
                          "fig10_detection");
}

// `text` as an extended regular expression that matches itself.
std::string literal(const std::string& text) {
  std::string re;
  for (const char c : text) {
    if (std::strchr(".[]{}()*+?^$|\\", c) != nullptr) re += '\\';
    re += c;
  }
  return re;
}

class BenchArgsExit : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  }
};

TEST(BenchArgs, ValidCommandLineParses) {
  const BenchArgs args =
      parse({"--threads", "3", "--trials", "12", "--seed",
             "18446744073709551615", "--flight-limit", "0", "--json",
             "out/f10.json"});
  EXPECT_EQ(args.threads, 3);
  EXPECT_EQ(args.trials, 12);
  EXPECT_EQ(args.seed, UINT64_MAX);
  EXPECT_EQ(args.flight_limit, 0u);
  EXPECT_TRUE(args.json);
  EXPECT_EQ(args.json_path, "out/f10.json");
  EXPECT_TRUE(args.trace_path.empty());
  EXPECT_TRUE(args.flight_dir.empty());

  // Zero keeps its documented meaning (all hardware threads, the
  // bench's default trial count), and a bare --json names the default
  // result path.
  const BenchArgs defaults = parse({"--threads", "0", "--trials", "0",
                                    "--seed", "0", "--json"});
  EXPECT_EQ(defaults.threads, 0);
  EXPECT_EQ(defaults.trials, 0);
  EXPECT_EQ(defaults.seed, 0u);
  EXPECT_EQ(defaults.json_path, "results/fig10_detection.json");
}

TEST_F(BenchArgsExit, RetiredProcessFlagsAreUnknown) {
  const std::vector<std::vector<std::string>> retired = {
      {"--fabric", "4"},
      {"--fabric-shards", "8"},
      {"--fabric-spool", "spool"},
      {"--fabric-timeout", "10"},
      {"--fabric-retries", "1"},
      {"--shard-spec", "fig10_detection.b:0/2:0-10"},
      {"--shard-out", "shard.json"},
  };
  for (const std::vector<std::string>& words : retired) {
    EXPECT_EXIT(parse(words), ::testing::ExitedWithCode(2),
                literal("unknown argument '" + words[0] + "'"))
        << words[0];
  }
}

TEST_F(BenchArgsExit, MalformedCountsExitTwo) {
  const std::vector<std::vector<std::string>> malformed = {
      {"--threads", "abc"},
      {"--threads", ""},
      {"--threads", "2147483648"},
      {"--trials", "-3"},
      {"--trials", "+4"},
      {"--trials", " 4"},
      {"--seed", "7x"},
      {"--seed", "-1"},
      {"--seed", "18446744073709551616"},
      {"--flight-limit", "5k"},
  };
  for (const std::vector<std::string>& words : malformed) {
    EXPECT_EXIT(parse(words), ::testing::ExitedWithCode(2),
                literal("bad value '" + words[1] + "' for " + words[0]))
        << words[0] << " '" << words[1] << "'";
  }
}

TEST_F(BenchArgsExit, MissingValueExitsTwo) {
  for (const char* flag : {"--threads", "--trials", "--seed"}) {
    EXPECT_EXIT(parse({flag}), ::testing::ExitedWithCode(2),
                std::string("missing value for ") + flag)
        << flag;
  }
}

}  // namespace
