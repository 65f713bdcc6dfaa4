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
  p.AddDouble("rate", 'r', "sample rate", &rate);
  ASSERT_TRUE(p.Parse({"-r", "0.25"}).ok());
  EXPECT_DOUBLE_EQ(rate, 0.25);
}

TEST(ArgParser, LastOccurrenceWins) {
  LoaderFlags f;
  auto p = MakeLoaderParser(f);
  ASSERT_TRUE(p.Parse({"-f", "a", "-f", "b"}).ok());
  EXPECT_EQ(f.file, "b");
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
