// Lightweight error-handling vocabulary used across the library.
//
// The library is exception-free on its hot paths: fallible operations return
// `Status` or `StatusOr<T>` and callers decide how to react. `DGC_CHECK` is
// reserved for programmer errors (broken invariants), not user input.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace dgc {

/// Coarse error taxonomy; mirrors the failure classes the runtime can hit.
enum class ErrorCode {
  kOk = 0,
  kInvalidArgument,   ///< malformed user input (flags, argument files, ...)
  kOutOfMemory,       ///< device or host allocation failure
  kNotFound,          ///< missing file, symbol, or registered application
  kFailedPrecondition,///< operation not legal in the current state
  kUnsupported,       ///< feature outside the implemented subset
  kInternal,          ///< bug: an invariant the library promised was violated
};

/// Human-readable name of an error code ("OutOfMemory", ...).
std::string_view ToString(ErrorCode code);

/// A success-or-error result with a message. Cheap to move, comparable to ok.
class [[nodiscard]] Status {
 public:
  Status() = default;  // OK
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return {}; }

  bool ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
};

namespace detail {
[[noreturn]] void CheckFailed(const char* file, int line, const char* expr,
                              const std::string& extra);
}  // namespace detail

/// Aborts with a diagnostic when a library invariant is violated.
#define DGC_CHECK(expr)                                                  \
  do {                                                                   \
    if (!(expr)) {                                                       \
      ::dgc::detail::CheckFailed(__FILE__, __LINE__, #expr, {});         \
    }                                                                    \
  } while (0)

#define DGC_CHECK_MSG(expr, msg)                                         \
  do {                                                                   \
    if (!(expr)) {                                                       \
      ::dgc::detail::CheckFailed(__FILE__, __LINE__, #expr, (msg));      \
    }                                                                    \
  } while (0)

/// Either a value or a Status error. A minimal `expected`-style type.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(T value) : rep_(std::move(value)) {}
  StatusOr(Status status) : rep_(std::move(status)) {
    if (std::get<Status>(rep_).ok()) {
      // An OK status carries no value; treat as a caller bug.
      rep_ = Status(ErrorCode::kInternal, "StatusOr constructed from OK status");
    }
  }

  bool ok() const { return std::holds_alternative<T>(rep_); }

  const Status& status() const {
    static const Status kOk;
    return ok() ? kOk : std::get<Status>(rep_);
  }

  /// The value; on an error status, a check failure that prints it.
  T& value() & {
    CheckOk();
    return *std::get_if<T>(&rep_);
  }
  const T& value() const& {
    CheckOk();
    return *std::get_if<T>(&rep_);
  }
  T&& value() && {
    CheckOk();
    return std::move(*std::get_if<T>(&rep_));
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  void CheckOk() const { DGC_CHECK_MSG(ok(), status().ToString()); }

  std::variant<T, Status> rep_;
};

/// Propagates a non-OK Status to the caller.
#define DGC_RETURN_IF_ERROR(expr)              \
  do {                                         \
    ::dgc::Status dgc_status_ = (expr);        \
    if (!dgc_status_.ok()) return dgc_status_; \
  } while (0)

/// Unwraps a StatusOr into `lhs`, propagating errors.
#define DGC_ASSIGN_OR_RETURN(lhs, expr)                \
  DGC_ASSIGN_OR_RETURN_IMPL_(                          \
      DGC_STATUS_CONCAT_(dgc_statusor_, __LINE__), lhs, expr)
#define DGC_STATUS_CONCAT_INNER_(a, b) a##b
#define DGC_STATUS_CONCAT_(a, b) DGC_STATUS_CONCAT_INNER_(a, b)
#define DGC_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                               \
  if (!tmp.ok()) return tmp.status();              \
  lhs = std::move(tmp).value()

}  // namespace dgc
