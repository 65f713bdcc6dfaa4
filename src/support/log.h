// Minimal leveled logger.
//
// Severity is filtered by a process-wide level (default: Warning, override
// with the DGC_LOG env var or SetLogLevel). Output goes to stderr so that
// simulated-application stdout (device printf via RPC) stays clean.
#pragma once

#include <sstream>
#include <string_view>

namespace dgc {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kOff = 4 };

/// Sets the global level; messages below it are discarded.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

/// Parses "debug"/"info"/"warning"/"error"/"off" (case-insensitive).
bool ParseLogLevel(std::string_view text, LogLevel& out);

namespace detail {
void Emit(LogLevel level, std::string_view message);

/// Stream-style single-message sink; emits on destruction.
class LogMessage {
 public:
  explicit LogMessage(LogLevel level) : level_(level) {}
  ~LogMessage() { Emit(level_, stream_.str()); }
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Lets DGC_LOG end in a void expression: `&` binds looser than `<<`, so it
/// takes the finished message chain.
struct Voidify {
  void operator&(const LogMessage&) const {}
};
}  // namespace detail

/// `DGC_LOG(kError) << ...;` is one expression, so it nests in an unbraced
/// if/else like any statement. A filtered message evaluates no operand.
#define DGC_LOG(level)                                    \
  (::dgc::LogLevel::level < ::dgc::GetLogLevel())         \
      ? (void)0                                           \
      : ::dgc::detail::Voidify() &                        \
            ::dgc::detail::LogMessage(::dgc::LogLevel::level)

}  // namespace dgc
