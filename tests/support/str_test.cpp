#include "support/str.h"

#include <gtest/gtest.h>

namespace dgc {
namespace {

TEST(Trim, Basics) {
  EXPECT_EQ(TrimWhitespace("  a b \t"), "a b");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace(" \n\t "), "");
  EXPECT_EQ(TrimWhitespace("x"), "x");
}

TEST(SplitChar, KeepsEmptyFields) {
  auto parts = SplitChar("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitWhitespace, CollapsesRuns) {
  auto parts = SplitWhitespace("  -a  1 \t -b\n");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "-a");
  EXPECT_EQ(parts[1], "1");
  EXPECT_EQ(parts[2], "-b");
}

TEST(SplitWhitespace, EmptyInput) {
  EXPECT_TRUE(SplitWhitespace("").empty());
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(Tokenize, PlainArgs) {
  auto r = TokenizeCommandLine("-a 1 -b -c data-1.bin");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<std::string>{"-a", "1", "-b", "-c", "data-1.bin"}));
}

TEST(Tokenize, SingleQuotesPreserveSpaces) {
  auto r = TokenizeCommandLine("-m 'hello world' x");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<std::string>{"-m", "hello world", "x"}));
}

TEST(Tokenize, DoubleQuoteEscapes) {
  auto r = TokenizeCommandLine(R"(-m "say \"hi\" now")");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<std::string>{"-m", "say \"hi\" now"}));
}

TEST(Tokenize, BackslashEscapesSpace) {
  auto r = TokenizeCommandLine(R"(a\ b c)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<std::string>{"a b", "c"}));
}

TEST(Tokenize, EmptyQuotedToken) {
  auto r = TokenizeCommandLine("a '' b");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<std::string>{"a", "", "b"}));
}

TEST(Tokenize, UnterminatedQuoteFails) {
  EXPECT_FALSE(TokenizeCommandLine("a 'b").ok());
  EXPECT_FALSE(TokenizeCommandLine(R"(a "b)").ok());
}

TEST(Tokenize, TrailingBackslashFails) {
  EXPECT_FALSE(TokenizeCommandLine("a b\\").ok());
}

TEST(Tokenize, EmptyLineGivesNoTokens) {
  auto r = TokenizeCommandLine("   ");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(Join, Basics) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"x"}, ","), "x");
}

TEST(ParseInt, Valid) {
  EXPECT_EQ(*ParseInt("42"), 42);
  EXPECT_EQ(*ParseInt("-7"), -7);
  EXPECT_EQ(*ParseInt("  123 "), 123);
  EXPECT_EQ(*ParseInt("0"), 0);
}

TEST(ParseInt, Invalid) {
  EXPECT_FALSE(ParseInt("").ok());
  EXPECT_FALSE(ParseInt("12x").ok());
  EXPECT_FALSE(ParseInt("4.5").ok());
  EXPECT_FALSE(ParseInt("99999999999999999999999").ok());
}

TEST(ParseDouble, Valid) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-1e3"), -1000.0);
  EXPECT_DOUBLE_EQ(*ParseDouble(" 2 "), 2.0);
}

TEST(ParseDouble, Invalid) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("x").ok());
  EXPECT_FALSE(ParseDouble("1.2.3").ok());
}

TEST(StartsEndsWith, Basics) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-", "--"));
}

TEST(StrFormat, Basics) {
  EXPECT_EQ(StrFormat("x=%d y=%s", 3, "abc"), "x=3 y=abc");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

}  // namespace
}  // namespace dgc
