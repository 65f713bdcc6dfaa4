#include "support/status.h"

#include <gtest/gtest.h>

namespace dgc {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s(ErrorCode::kNotFound, "no such app");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.message(), "no such app");
  EXPECT_EQ(s.ToString(), "NotFound: no such app");
}

TEST(Status, AllCodesHaveNames) {
  for (ErrorCode c : {ErrorCode::kOk, ErrorCode::kInvalidArgument,
                      ErrorCode::kOutOfMemory, ErrorCode::kNotFound,
                      ErrorCode::kFailedPrecondition, ErrorCode::kUnsupported,
                      ErrorCode::kInternal}) {
    EXPECT_FALSE(ToString(c).empty());
    EXPECT_NE(ToString(c), "Unknown");
  }
}

TEST(StatusOr, HoldsValue) {
  const StatusOr<int> v(42);
  // Both observers are read before the ASSERT's early return; reading them
  // after it makes GCC 12 warn (-Wmaybe-uninitialized) about the variant's
  // Status alternative in v's destructor.
  const bool ok = v.ok();
  const Status status = v.status();
  ASSERT_TRUE(ok);
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(status.ok());
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v(Status(ErrorCode::kInvalidArgument, "bad"));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), ErrorCode::kInvalidArgument);
  // Dereferencing the error fails a check that prints the status.
  EXPECT_DEATH((void)*v, "InvalidArgument: bad");
}

TEST(StatusOr, OkStatusIsRejected) {
  StatusOr<int> v(Status::Ok());
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), ErrorCode::kInternal);
}

TEST(StatusOr, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v(std::make_unique<int>(7));
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> out = std::move(v).value();
  EXPECT_EQ(*out, 7);
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return Status(ErrorCode::kInvalidArgument, "not positive");
  return x;
}

Status UsesAssignOrReturn(int x, int& out) {
  DGC_ASSIGN_OR_RETURN(out, ParsePositive(x));
  return Status::Ok();
}

TEST(StatusMacros, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UsesAssignOrReturn(5, out).ok());
  EXPECT_EQ(out, 5);
  Status err = UsesAssignOrReturn(-1, out);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), ErrorCode::kInvalidArgument);
}

TEST(StatusMacros, ReturnIfErrorPropagates) {
  auto f = [](bool fail) -> Status {
    DGC_RETURN_IF_ERROR(fail ? Status(ErrorCode::kInternal, "x") : Status::Ok());
    return Status(ErrorCode::kNotFound, "reached end");
  };
  EXPECT_EQ(f(true).code(), ErrorCode::kInternal);
  EXPECT_EQ(f(false).code(), ErrorCode::kNotFound);
}

TEST(StatusMacros, CheckAbortsOnFailure) {
  EXPECT_DEATH({ DGC_CHECK(1 == 2); }, "DGC_CHECK failed");
}

}  // namespace
}  // namespace dgc
