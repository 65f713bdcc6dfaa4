#include "ensemble/argscript.h"

#include <gtest/gtest.h>

namespace dgc::ensemble {
namespace {

TEST(ArgScript, PlainLinesPassThrough) {
  auto args = ExpandScriptToArgs("-a 1 -b\n-a 2\n");
  ASSERT_TRUE(args.ok());
  ASSERT_EQ(args->size(), 2u);
  EXPECT_EQ((*args)[0], (std::vector<std::string>{"-a", "1", "-b"}));
}

TEST(ArgScript, RepeatWithIndexExpression) {
  // The paper's Fig. 5b inputs, generated instead of hand-written.
  auto text = ExpandScript("@repeat 4 : -a {i%3+1} -b -c data-{i+1}.bin\n");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text,
            "-a 1 -b -c data-1.bin\n"
            "-a 2 -b -c data-2.bin\n"
            "-a 3 -b -c data-3.bin\n"
            "-a 1 -b -c data-4.bin\n");
}

TEST(ArgScript, SeqGeneratesOneInstancePerElement) {
  auto args = ExpandScriptToArgs("-g {seq 100 400 100} -p 5\n");
  ASSERT_TRUE(args.ok());
  ASSERT_EQ(args->size(), 4u);
  EXPECT_EQ((*args)[0], (std::vector<std::string>{"-g", "100", "-p", "5"}));
  EXPECT_EQ((*args)[3], (std::vector<std::string>{"-g", "400", "-p", "5"}));
}

TEST(ArgScript, SeqDefaultStepIsOne) {
  auto args = ExpandScriptToArgs("-k {seq 3 5}\n");
  ASSERT_TRUE(args.ok());
  ASSERT_EQ(args->size(), 3u);
}

TEST(ArgScript, NegativeStepSeq) {
  auto text = ExpandScript("-k {seq 3 1 -1}\n");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "-k 3\n-k 2\n-k 1\n");
}

TEST(ArgScript, TwoSeqsMustAgreeOnLength) {
  EXPECT_TRUE(ExpandScript("-a {seq 1 3} -b {seq 10 30 10}\n").ok());
  auto bad = ExpandScript("-a {seq 1 3} -b {seq 1 2}\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("conflicts"), std::string::npos);
}

TEST(ArgScript, RepeatAndSeqMustAgree) {
  EXPECT_TRUE(ExpandScript("@repeat 3 : -a {seq 1 3}\n").ok());
  EXPECT_FALSE(ExpandScript("@repeat 4 : -a {seq 1 3}\n").ok());
}

TEST(ArgScript, RandIsDeterministicPerSeed) {
  const char* script = "@repeat 8 : -s {rand 1 1000}\n";
  auto a = ExpandScript(script, 7);
  auto b = ExpandScript(script, 7);
  auto c = ExpandScript(script, 8);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_NE(*a, *c);
}

TEST(ArgScript, SeedDirectiveOverridesDefault) {
  auto a = ExpandScript("@seed 5\n@repeat 4 : -s {rand 1 100}\n", 1);
  auto b = ExpandScript("@seed 5\n@repeat 4 : -s {rand 1 100}\n", 2);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, *b);  // @seed wins over the default seed
}

TEST(ArgScript, RandStaysInRange) {
  auto args = ExpandScriptToArgs("@repeat 100 : -s {rand 5 9}\n", 3);
  ASSERT_TRUE(args.ok());
  for (const auto& row : *args) {
    const int v = std::stoi(row[1]);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(ArgScript, ChoiceCycles) {
  auto text = ExpandScript("@repeat 4 : -m {choice small|large}\n");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "-m small\n-m large\n-m small\n-m large\n");
}

TEST(ArgScript, ArithmeticWithPrecedenceAndParens) {
  auto text = ExpandScript("@repeat 2 : -k {(i+1)*10-2} -j {i*2+3*4}\n");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "-k 8 -j 12\n-k 18 -j 14\n");
}

TEST(ArgScript, NVariableIsCount) {
  auto text = ExpandScript("@repeat 3 : -frac {i}/{n}\n");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "-frac 0/3\n-frac 1/3\n-frac 2/3\n");
}

TEST(ArgScript, DivisionByZeroRejected) {
  auto bad = ExpandScript("@repeat 2 : -k {1/i}\n");  // i = 0 divides
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("division"), std::string::npos);
}

TEST(ArgScript, ErrorsCarryLineNumbers) {
  auto bad = ExpandScript("-a 1\n-b {seq }\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos);
}

TEST(ArgScript, UnterminatedGeneratorRejected) {
  EXPECT_FALSE(ExpandScript("-a {seq 1 3\n").ok());
}

TEST(ArgScript, UnknownDirectiveRejected) {
  EXPECT_FALSE(ExpandScript("@frobnicate 3\n").ok());
}

TEST(ArgScript, EmptyScriptRejected) {
  EXPECT_FALSE(ExpandScript("# nothing\n").ok());
}

TEST(ArgScript, MultipleLinesConcatenate) {
  auto args = ExpandScriptToArgs(
      "@repeat 2 : -a {i}\n"
      "-g {seq 7 8}\n"
      "-z fixed\n");
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args->size(), 5u);  // 2 + 2 + 1
}

// --- Checked arithmetic and the expansion cap -------------------------------

// Expands `script` and expects an error whose message contains `what`.
void ExpectRejected(const std::string& script, const std::string& what) {
  auto result = ExpandScript(script);
  ASSERT_FALSE(result.ok()) << script;
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find(what), std::string::npos)
      << result.status().message();
}

TEST(ArgScript, Int64MinDividedByMinusOneIsRejected) {
  // Both once died of SIGFPE.
  ExpectRejected("-s {(0-9223372036854775807-1)/(0-1)}\n", "integer overflow");
  ExpectRejected("-s {(0-9223372036854775807-1)%(0-1)}\n", "integer overflow");
  auto ok = ExpandScript("-s {(0-9223372036854775807-1)/1}\n");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, "-s -9223372036854775808\n");
}

TEST(ArgScript, ArithmeticOverflowIsRejected) {
  ExpectRejected("-s {9223372036854775808}\n", "integer overflow");
  ExpectRejected("-s {9223372036854775807+1}\n", "integer overflow");
  ExpectRejected("-s {0-9223372036854775807-2}\n", "integer overflow");
  ExpectRejected("-s {4611686018427387904*2}\n", "integer overflow");
  ExpectRejected("-s {-(0-9223372036854775807-1)}\n", "integer overflow");
  auto edge = ExpandScript("-s {9223372036854775807} {-9223372036854775807}\n");
  ASSERT_TRUE(edge.ok());
  EXPECT_EQ(*edge, "-s 9223372036854775807 -9223372036854775807\n");
}

TEST(ArgScript, DeepNestingIsRejected) {
  // Once overflowed the host stack (SIGSEGV) at a few thousand levels.
  const std::string deep = "-s {" + std::string(100000, '(') + "1" +
                           std::string(100000, ')') + "}\n";
  ExpectRejected(deep, "nests too deeply");
  ExpectRejected("-s {" + std::string(100000, '-') + "1}\n",
                 "nests too deeply");
  auto shallow = ExpandScript("-s {((((((((((-(-1)))))))))))}\n");
  ASSERT_TRUE(shallow.ok());
  EXPECT_EQ(*shallow, "-s 1\n");
}

TEST(ArgScript, SeqRangeOverflowIsRejected) {
  ExpectRejected("-k {seq -9223372036854775807 9223372036854775807}\n",
                 "seq range overflows");
}

TEST(ArgScript, RandOverTheWholeInt64RangeIsDefined) {
  EXPECT_TRUE(
      ExpandScript("-s {rand 0-9223372036854775807-1 9223372036854775807}\n")
          .ok());
}

TEST(ArgScript, ExpansionCapRejectsHugeCountsBeforeExpanding) {
  // Both once ran for minutes.
  ExpectRejected("@repeat 99999999999 : -s {i}\n", "more than 65536 instances");
  ExpectRejected("-s {seq 1 99999999999 1}\n", "more than 65536 instances");
  // The cap is on the whole script, and exactly the cap is allowed.
  auto full = ExpandScriptToArgs("@repeat 65535 : -s {i}\n-s last\n");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->size(), kMaxScriptInstances);
  ExpectRejected("@repeat 65536 : -s {i}\n-s one-too-many\n",
                 "script line 2: script expands to more than 65536");
}

}  // namespace
}  // namespace dgc::ensemble
