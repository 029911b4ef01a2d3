// Tests for src/common/flags: each entry type's accepted values and bounds, the
// usage errors of the parser (unknown, repeated, malformed and missing flags, all
// exit 2) and the generated --help text.
#include "src/common/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace alert::flags {
namespace {

void ParseArgs(const Parser& parser, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  parser.Parse(static_cast<int>(args.size()), args.data());
}

TEST(FlagsIntTest, AcceptsExactlyTheInclusiveRange) {
  int port = 0;
  Flag flag = Int("--port=N", &port, 1, 65535, "port");
  EXPECT_EQ(flag.name, "--port");
  EXPECT_EQ(flag.metavar, "N");
  EXPECT_EQ(flag.expect, "an integer in [1, 65535]");
  EXPECT_EQ(flag.default_text, "");  // 0 is outside the range: no default shown
  EXPECT_TRUE(flag.set("1"));
  EXPECT_EQ(port, 1);
  EXPECT_TRUE(flag.set("65535"));
  EXPECT_EQ(port, 65535);
  for (const char* bad : {"0", "65536", "-1", "abc", "", "nan", "inf", "1e999", "1.5",
                          "7 ", "0x10", "99999999999999999999"}) {
    EXPECT_FALSE(flag.set(bad)) << bad;
    EXPECT_EQ(port, 65535) << "a refused value must not be stored: " << bad;
  }
}

TEST(FlagsIntTest, LowerBoundOnlyAndDefault) {
  int threads = 0;
  const Flag flag = Int("--threads=N", &threads, 0, "threads");
  EXPECT_EQ(flag.expect, "an integer >= 0");
  EXPECT_EQ(flag.default_text, "0");
  EXPECT_TRUE(flag.set("2147483647"));
  EXPECT_FALSE(flag.set("2147483648"));
  EXPECT_FALSE(flag.set("-1"));
}

TEST(FlagsIntTest, Int64AndUint64Bounds) {
  int64_t wide = 5;
  const Flag signed_flag = Int("--wide=N", &wide, int64_t{-10}, int64_t{1} << 40, "");
  EXPECT_EQ(signed_flag.default_text, "5");
  EXPECT_TRUE(signed_flag.set("-10"));
  EXPECT_TRUE(signed_flag.set("1099511627776"));
  EXPECT_EQ(wide, int64_t{1} << 40);
  EXPECT_FALSE(signed_flag.set("-11"));
  EXPECT_FALSE(signed_flag.set("1099511627777"));

  uint64_t seed = 1;
  const Flag seed_flag = Int("--seed=N", &seed, 0, "seed");
  EXPECT_EQ(seed_flag.expect, "an integer >= 0");
  EXPECT_TRUE(seed_flag.set("18446744073709551615"));
  EXPECT_EQ(seed, std::numeric_limits<uint64_t>::max());
  EXPECT_FALSE(seed_flag.set("-1"));  // strtoull would wrap this to 2^64 - 1
  EXPECT_FALSE(seed_flag.set("18446744073709551616"));
}

TEST(FlagsIntTest, RefusesALeadingBlank) {
  // strtoll/strtoull skip leading whitespace; the flag value must be the number.
  int count = 3;
  const Flag int_flag = Int("--count=N", &count, 0, "count");
  int64_t wide = 3;
  const Flag wide_flag = Int("--wide=N", &wide, int64_t{-10}, int64_t{10}, "wide");
  uint64_t seed = 3;
  const Flag seed_flag = Int("--seed=N", &seed, 0, "seed");
  for (const char* bad : {" 7", "\t7", "\n7", "\v7", "\f7", "\r7", "  7"}) {
    EXPECT_FALSE(int_flag.set(bad)) << bad;
    EXPECT_FALSE(wide_flag.set(bad)) << bad;
    EXPECT_FALSE(seed_flag.set(bad)) << bad;
  }
  // A blank before the sign used to slip past the unsigned sign check, and strtoull
  // wrapped " -1" to 2^64 - 1.
  EXPECT_FALSE(seed_flag.set(" -1"));
  EXPECT_FALSE(seed_flag.set("\t+1"));
  EXPECT_FALSE(wide_flag.set(" -1"));
  EXPECT_EQ(count, 3);
  EXPECT_EQ(wide, 3);
  EXPECT_EQ(seed, 3u);
  EXPECT_TRUE(seed_flag.set("7"));
  EXPECT_EQ(seed, 7u);
}

TEST(FlagsDoubleTest, InclusiveAndExclusiveLowerBounds) {
  double rate = 0.0;
  const Flag inclusive = Double("--rate=R", &rate, 0.0, kUnbounded, "rate");
  EXPECT_EQ(inclusive.expect, "a finite number >= 0");
  EXPECT_EQ(inclusive.default_text, "0");
  EXPECT_TRUE(inclusive.set("0"));
  EXPECT_TRUE(inclusive.set("1e300"));

  double budget = 100.0;
  const Flag exclusive =
      Double("--budget=W", &budget, 0.0, kUnbounded, "budget", Bound::kExclusive);
  EXPECT_EQ(exclusive.expect, "a finite number > 0");
  EXPECT_EQ(exclusive.default_text, "100");
  EXPECT_FALSE(exclusive.set("0"));
  EXPECT_FALSE(exclusive.set("-0.5"));
  EXPECT_TRUE(exclusive.set("5e-324"));
  for (const char* bad : {"abc", "", "nan", "inf", "-inf", "1e999", "1.5x", " 1",
                          "\t2.5", "\n2.5", " -0.5"}) {
    EXPECT_FALSE(inclusive.set(bad)) << bad;
    EXPECT_FALSE(exclusive.set(bad)) << bad;
  }
  EXPECT_EQ(budget, 5e-324);
}

TEST(FlagsDoubleTest, UpperBounds) {
  double goal = 0.0;
  const Flag closed = Double("--goal=X", &goal, 0.0, 1.0, "goal");
  EXPECT_EQ(closed.expect, "a number in [0, 1]");
  EXPECT_TRUE(closed.set("1"));
  EXPECT_FALSE(closed.set("1.0000001"));

  double threshold = 0.35;
  const Flag open = Double("--threshold=F", &threshold, 0.0, 1.0, "threshold",
                           Bound::kExclusive, Bound::kExclusive);
  EXPECT_EQ(open.expect, "a number in (0, 1)");
  EXPECT_EQ(open.default_text, "0.35");
  EXPECT_FALSE(open.set("0"));
  EXPECT_FALSE(open.set("1"));
  EXPECT_TRUE(open.set("0.999"));
}

enum class Color { kRed, kGreen };
std::string_view ColorName(Color c) { return c == Color::kRed ? "red" : "green"; }

TEST(FlagsChoiceTest, TokensFromATableOrANameFunction) {
  constexpr std::pair<std::string_view, int> kLevels[] = {{"low", 1}, {"high", 9}};
  int level = 9;
  const Flag table_flag = Choice("--level=NAME", &level, kLevels, "level");
  EXPECT_EQ(table_flag.expect, "one of low, high");
  EXPECT_EQ(table_flag.default_text, "high");
  EXPECT_TRUE(table_flag.set("low"));
  EXPECT_EQ(level, 1);
  for (const char* bad : {"LOW", "", "lo", "low ", "1"}) {
    EXPECT_FALSE(table_flag.set(bad)) << bad;
  }
  EXPECT_EQ(level, 1);

  // An optional destination has no default until the flag is given.
  std::optional<Color> color;
  const Flag named = Choice("--color=C", &color, Named({Color::kRed, Color::kGreen},
                                                       ColorName), "color");
  EXPECT_EQ(named.expect, "one of red, green");
  EXPECT_EQ(named.default_text, "");
  EXPECT_TRUE(named.set("green"));
  EXPECT_EQ(color, Color::kGreen);
}

TEST(FlagsStringTest, RefusesAnEmptyValue) {
  std::string host = "127.0.0.1";
  const Flag flag = String("--host=H", &host, "host");
  EXPECT_EQ(flag.default_text, "127.0.0.1");
  EXPECT_FALSE(flag.set(""));
  EXPECT_TRUE(flag.set("example"));
  EXPECT_EQ(host, "example");
}

TEST(FlagsParserTest, AppliesEveryEntryType) {
  int count = 0;
  double rate = 0.0;
  std::string out;
  bool print = false;
  std::map<int, int> injections;
  std::vector<std::string> files;
  const Parser parser(
      "prog", "[options] FILE...",
      {Int("--count=N", &count, 0, "count"),
       Double("--rate=R", &rate, 0.0, kUnbounded, "rate"),
       String("--out=FILE", &out, "out").Required(), Switch("--print", &print, "print"),
       Value("--inject=I:N", "I:N",
             [&](std::string_view v) {
               const size_t colon = v.find(':');
               if (colon == std::string_view::npos) {
                 return false;
               }
               injections[std::stoi(std::string(v.substr(0, colon)))] =
                   std::stoi(std::string(v.substr(colon + 1)));
               return true;
             },
             "inject")
           .Repeatable(),
       Positional("FILE...", &files, "files")});
  ParseArgs(parser, {"a.txt", "--count=3", "--inject=0:1", "--rate=2.5", "--out=o.csv",
                     "b.txt", "--inject=2:7", "--print"});
  EXPECT_EQ(count, 3);
  EXPECT_EQ(rate, 2.5);
  EXPECT_EQ(out, "o.csv");
  EXPECT_TRUE(print);
  EXPECT_EQ(injections, (std::map<int, int>{{0, 1}, {2, 7}}));
  EXPECT_EQ(files, (std::vector<std::string>{"a.txt", "b.txt"}));
}

TEST(FlagsParserDeathTest, UsageErrorsExitTwoAndNameTheFlag) {
  int shards = 1;
  int shard = 0;
  bool print = false;
  std::string spec;
  const Parser parser("prog", "[options]",
                      {Int("--shards=K", &shards, 1, "shards"),
                       Int("--shard=I", &shard, 0, "shard"),
                       Switch("--print", &print, "print"),
                       String("--spec=FILE", &spec, "spec").Required()});
  const auto code2 = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(ParseArgs(parser, {"--spec=s", "--shards=abc"}), code2,
              "prog: --shards: expected an integer >= 1, got 'abc'");
  EXPECT_EXIT(ParseArgs(parser, {"--spec=s", "--shard=-1"}), code2,
              "prog: --shard: expected an integer >= 0, got '-1'");
  EXPECT_EXIT(ParseArgs(parser, {"--spec=s", "--shards"}), code2,
              "prog: --shards: expected an integer >= 1, got ''");
  EXPECT_EXIT(ParseArgs(parser, {"--spec=s", "--shards=2", "--shards=3"}), code2,
              "prog: --shards: given more than once");
  EXPECT_EXIT(ParseArgs(parser, {"--spec=s", "--print", "--print"}), code2,
              "prog: --print: given more than once");
  EXPECT_EXIT(ParseArgs(parser, {"--spec=s", "--print=1"}), code2,
              "prog: --print: expected no value, got '1'");
  EXPECT_EXIT(ParseArgs(parser, {"--spec=s", "--shardz=1"}), code2,
              "prog: unknown flag '--shardz=1'");
  EXPECT_EXIT(ParseArgs(parser, {"--spec=s", "-v"}), code2, "prog: unknown flag '-v'");
  EXPECT_EXIT(ParseArgs(parser, {"--spec=s", "stray"}), code2,
              "prog: unexpected argument 'stray'");
  EXPECT_EXIT(ParseArgs(parser, {"--spec="}), code2,
              "prog: --spec: expected a value, got ''");
  EXPECT_EXIT(ParseArgs(parser, {"--shards=2"}), code2, "prog: missing --spec=FILE");
  EXPECT_EXIT(parser.Fail("--shard must be below --shards"), code2,
              "prog: --shard must be below --shards");
}

TEST(FlagsParserDeathTest, MissingRequiredPositional) {
  std::vector<std::string> files;
  const Parser parser("prog", "FILE...", {Positional("FILE...", &files, "").Required()});
  EXPECT_EXIT(ParseArgs(parser, {}), ::testing::ExitedWithCode(2), "prog: missing FILE...");
}

TEST(FlagsParserDeathTest, HelpListsEveryEntryAndExitsZero) {
  int port = 0;
  double budget = 100.0;
  std::string log;
  bool verbose = false;
  std::vector<std::string> files;
  constexpr std::pair<std::string_view, int> kPolicies[] = {{"proportional", 0},
                                                            {"slack", 1}};
  int policy = 0;
  const Parser parser(
      "prog", "[options] FILE...",
      {Int("--port=N", &port, 0, 65535, "listen port"),
       Double("--budget=W", &budget, 0.0, kUnbounded, "power budget",
              Bound::kExclusive),
       Choice("--policy=NAME", &policy, kPolicies, "split policy"),
       String("--log=PATH", &log, "event log\nspanning two lines"),
       Switch("-v", &verbose, "verbose"), Positional("FILE...", &files, "inputs")});
  const std::string usage = parser.Usage();
  EXPECT_EQ(usage.rfind("usage: prog [options] FILE...\n", 0), 0u) << usage;
  for (const char* needle :
       {"--port=N", "listen port", "(an integer in [0, 65535]; default 0)", "--budget=W",
        "(a finite number > 0; default 100)", "--policy=NAME",
        "(one of proportional, slack; default proportional)", "--log=PATH",
        "event log\n", "spanning two lines", "  -v ", "FILE...", "--help"}) {
    EXPECT_NE(usage.find(needle), std::string::npos) << needle << "\n" << usage;
  }
  // --help ends parsing at once: the bad value after it is never looked at.
  EXPECT_EXIT(ParseArgs(parser, {"--help", "--port=abc"}), ::testing::ExitedWithCode(0),
              "");
}

}  // namespace
}  // namespace alert::flags
