#include "support/argparse.h"

#include <gtest/gtest.h>

namespace dgc {
namespace {

struct LoaderFlags {
  std::string file;
  std::int64_t instances = 1;
  std::int64_t threads = 1024;
  bool verbose = false;
};

ArgParser MakeLoaderParser(LoaderFlags& f) {
  ArgParser p("ensemble loader");
  p.AddString("file", 'f', "argument file", &f.file, /*required=*/true)
      .AddInt("num-instances", 'n', "instances", &f.instances)
      .AddInt("thread-limit", 't', "threads per instance", &f.threads)
      .AddFlag("verbose", 'v', "verbose output", &f.verbose);
  return p;
}

TEST(ArgParser, PaperStyleInvocation) {
  // "./user_app_gpu -f arguments.txt -n 4 -t 128" (Fig. 5c).
  LoaderFlags f;
  auto p = MakeLoaderParser(f);
  ASSERT_TRUE(p.Parse({"-f", "arguments.txt", "-n", "4", "-t", "128"}).ok());
  EXPECT_EQ(f.file, "arguments.txt");
  EXPECT_EQ(f.instances, 4);
  EXPECT_EQ(f.threads, 128);
  EXPECT_FALSE(f.verbose);
}

TEST(ArgParser, LongNamesAndEquals) {
  LoaderFlags f;
  auto p = MakeLoaderParser(f);
  ASSERT_TRUE(
      p.Parse({"--file=a.txt", "--num-instances", "8", "--verbose"}).ok());
  EXPECT_EQ(f.file, "a.txt");
  EXPECT_EQ(f.instances, 8);
  EXPECT_TRUE(f.verbose);
}

TEST(ArgParser, ShortOptionGluedValue) {
  LoaderFlags f;
  auto p = MakeLoaderParser(f);
  ASSERT_TRUE(p.Parse({"-fargs.txt", "-n64"}).ok());
  EXPECT_EQ(f.file, "args.txt");
  EXPECT_EQ(f.instances, 64);
}

TEST(ArgParser, MissingRequired) {
  LoaderFlags f;
  auto p = MakeLoaderParser(f);
  Status s = p.Parse({"-n", "4"});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(s.message().find("--file"), std::string::npos);
}

TEST(ArgParser, UnknownOption) {
  LoaderFlags f;
  auto p = MakeLoaderParser(f);
  EXPECT_FALSE(p.Parse({"-f", "x", "--bogus"}).ok());
  EXPECT_FALSE(p.Parse({"-f", "x", "-z"}).ok());
}

TEST(ArgParser, MissingValue) {
  LoaderFlags f;
  auto p = MakeLoaderParser(f);
  EXPECT_FALSE(p.Parse({"-f"}).ok());
}

TEST(ArgParser, BadIntValue) {
  LoaderFlags f;
  auto p = MakeLoaderParser(f);
  EXPECT_FALSE(p.Parse({"-f", "x", "-n", "four"}).ok());
}

TEST(ArgParser, FlagRejectsValue) {
  LoaderFlags f;
  auto p = MakeLoaderParser(f);
  EXPECT_FALSE(p.Parse({"-f", "x", "--verbose=1"}).ok());
}

TEST(ArgParser, PositionalsAndDashDash) {
  // "--" ends option parsing: "-n" after it is a positional, which no
  // parser accepts.
  LoaderFlags f;
  auto p = MakeLoaderParser(f);
  ASSERT_TRUE(p.Parse({"-f", "x", "--"}).ok());
  const Status s = p.Parse({"-f", "x", "--", "-n", "4"});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "unexpected positional argument: -n");
  EXPECT_EQ(f.instances, 1);  // -n after -- is not an option
}

TEST(ArgParser, UnexpectedPositionalFails) {
  LoaderFlags f;
  auto p = MakeLoaderParser(f);
  EXPECT_FALSE(p.Parse({"-f", "x", "stray"}).ok());
}

TEST(ArgParser, DoubleOption) {
  double rate = 0;
  ArgParser p;
  p.AddDouble("rate", 'r', "sample rate", &rate, 0.0, 1.0);
  ASSERT_TRUE(p.Parse({"-r", "0.25"}).ok());
  EXPECT_DOUBLE_EQ(rate, 0.25);
}

// A real option's interval rejects NaN like any other value outside it,
// and the error names the flag as typed.
TEST(ArgParser, BoundedDoublesRejectNanAndNameTheFlag) {
  double damping = 0.85, headroom = 90;
  ArgParser p;
  p.AddDouble("damping", 'a', "damping", &damping, 0.0, 1.0)
      .AddDouble("headroom", 0, "percent", &headroom, 0.0, 100.0,
                 /*hi_closed=*/true);
  EXPECT_EQ(p.Parse({"-a", "nan"}).message(), "-a must be in (0, 1), got nan");
  EXPECT_EQ(p.Parse({"-a", "1"}).message(), "-a must be in (0, 1), got 1");
  EXPECT_EQ(p.Parse({"--damping=0"}).message(),
            "--damping must be in (0, 1), got 0");
  EXPECT_EQ(p.Parse({"--headroom", "nan"}).message(),
            "--headroom must be in (0, 100], got nan");
  EXPECT_EQ(p.Parse({"--headroom", "100.5"}).message(),
            "--headroom must be in (0, 100], got 100.5");
  EXPECT_DOUBLE_EQ(damping, 0.85);  // a rejected value is not stored
  ASSERT_TRUE(p.Parse({"-a", "0.5", "--headroom", "100"}).ok());
  EXPECT_DOUBLE_EQ(damping, 0.5);
  EXPECT_DOUBLE_EQ(headroom, 100.0);
}

TEST(ArgParser, LastOccurrenceWins) {
  LoaderFlags f;
  auto p = MakeLoaderParser(f);
  ASSERT_TRUE(p.Parse({"-f", "a", "-f", "b"}).ok());
  EXPECT_EQ(f.file, "b");
}

TEST(ArgParser, BoundedIntsNameTheFlagAsSpelled) {
  std::uint32_t threads = 1024;
  std::uint64_t budget = 0;
  ArgParser p;
  p.AddInt("thread-limit", 't', "threads", &threads, 1)
      .AddInt("watchdog", 0, "cycles", &budget, 0);
  ASSERT_TRUE(p.Parse({"-t", "4294967295", "--watchdog=18446744073709551615"})
                  .ok());
  EXPECT_EQ(threads, 4294967295u);
  EXPECT_EQ(budget, 18446744073709551615ull);
  EXPECT_EQ(p.Parse({"-t", "4294967328"}).message(),
            "-t must be in 1..4294967295, got 4294967328");
  EXPECT_EQ(p.Parse({"--thread-limit=0"}).message(),
            "--thread-limit must be in 1..4294967295, got 0");
  EXPECT_EQ(p.Parse({"-t-5"}).message(),
            "-t must be in 1..4294967295, got -5");
  EXPECT_EQ(p.Parse({"--watchdog", "18446744073709551616"}).message(),
            "--watchdog must be in 0..18446744073709551615, got "
            "18446744073709551616");
  EXPECT_FALSE(p.Parse({"-t", "four"}).ok());
  EXPECT_FALSE(p.Parse({"-t", ""}).ok());
  EXPECT_EQ(threads, 4294967295u);  // failed parses left the field alone
}

TEST(ArgParser, IntListBoundsEachValue) {
  std::vector<std::uint32_t> counts;
  ArgParser p;
  p.AddIntList("sweep", "instance counts", &counts, 1);
  ASSERT_TRUE(p.Parse({"--sweep", "1,2,4"}).ok());
  EXPECT_EQ(counts, (std::vector<std::uint32_t>{1, 2, 4}));
  EXPECT_EQ(p.Parse({"--sweep", "1,4294967296"}).message(),
            "--sweep must be in 1..4294967295, got 4294967296");
  EXPECT_EQ(p.Parse({"--sweep=0"}).message(),
            "--sweep must be in 1..4294967295, got 0");
  EXPECT_FALSE(p.Parse({"--sweep", ""}).ok());
  EXPECT_FALSE(p.Parse({"--sweep", "1,,2"}).ok());
}

TEST(ArgParser, SwitchTakesOnOrOff) {
  bool share = true;
  ArgParser p;
  p.AddSwitch("share-data", "share inputs", &share);
  ASSERT_TRUE(p.Parse({"--share-data", "off"}).ok());
  EXPECT_FALSE(share);
  ASSERT_TRUE(p.Parse({"--share-data=on"}).ok());
  EXPECT_TRUE(share);
  EXPECT_EQ(p.Parse({"--share-data", "yes"}).message(),
            "--share-data must be 'on' or 'off'");
}

TEST(ArgParser, UsageShowsEachDefault) {
  std::string device = "a100", log;
  std::uint32_t scale = 512;
  std::int64_t seed = -3;
  double headroom = 90;
  bool stats = false, share = true;
  ArgParser p("demo tool");
  p.AddString("device", 0, "device preset", &device)
      .AddString("log", 0, "log path", &log)
      .AddInt("memory-scale", 'm', "scale divisor", &scale, 1)
      .AddInt("seed", 0, "seed", &seed)
      .AddDouble("headroom", 0, "percent", &headroom, 0.0, 100.0, true)
      .AddFlag("stats", 0, "print stats", &stats)
      .AddSwitch("share-data", "share inputs", &share);
  scale = 7;  // defaults are read at registration
  const std::string usage = p.Usage("demo");
  EXPECT_NE(usage.find("usage: demo [options]\ndemo tool\n"),
            std::string::npos);
  EXPECT_NE(usage.find("device preset (default a100)"), std::string::npos);
  EXPECT_NE(usage.find("log path (default none)"), std::string::npos);
  EXPECT_NE(usage.find("-m, --memory-scale <n>"), std::string::npos);
  EXPECT_NE(usage.find("scale divisor (default 512)"), std::string::npos);
  EXPECT_NE(usage.find("seed (default -3)"), std::string::npos);
  EXPECT_NE(usage.find("percent (default 90)"), std::string::npos);
  EXPECT_NE(usage.find("print stats (default off)"), std::string::npos);
  EXPECT_NE(usage.find("--share-data <on|off>"), std::string::npos);
  EXPECT_NE(usage.find("share inputs (default on)"), std::string::npos);
}

TEST(ArgParser, UsageWrapsLongHelp) {
  bool flag = false;
  ArgParser p;
  p.AddFlag("long", 0, std::string(30, 'a') + " " + std::string(30, 'b'),
            &flag);
  const std::string usage = p.Usage("demo");
  EXPECT_NE(usage.find(std::string(30, 'a') + "\n" + std::string(33, ' ') +
                       std::string(30, 'b')),
            std::string::npos)
      << usage;
}

TEST(ArgParser, UsageMentionsOptions) {
  LoaderFlags f;
  auto p = MakeLoaderParser(f);
  const std::string usage = p.Usage("loader");
  EXPECT_NE(usage.find("--file"), std::string::npos);
  EXPECT_NE(usage.find("-n"), std::string::npos);
  EXPECT_NE(usage.find("required"), std::string::npos);
}

}  // namespace
}  // namespace dgc
