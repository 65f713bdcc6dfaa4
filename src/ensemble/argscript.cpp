#include "ensemble/argscript.h"

#include <cstdint>
#include <optional>

#include "ensemble/argfile.h"
#include "support/rng.h"
#include "support/str.h"

namespace dgc::ensemble {
namespace {

// ---------------------------------------------------------------------------
// Integer expression evaluator: + - * / % ( ) over int64, variables i and n.
// Recursive descent; whole input must be consumed. Every operation that
// would overflow int64 is an error, and so is nesting past kMaxDepth.
// ---------------------------------------------------------------------------
class ExprParser {
 public:
  ExprParser(std::string_view text, std::int64_t i, std::int64_t n)
      : text_(text), i_(i), n_(n) {}

  StatusOr<std::int64_t> Evaluate() {
    DGC_ASSIGN_OR_RETURN(std::int64_t v, ParseSum());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("unexpected trailing characters");
    }
    return v;
  }

 private:
  Status Overflow() const { return Error("integer overflow"); }

  Status Error(std::string_view what) const {
    return Status(ErrorCode::kInvalidArgument,
                  StrFormat("expression '%.*s': %.*s at offset %zu",
                            int(text_.size()), text_.data(), int(what.size()),
                            what.data(), pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() && text_[pos_] == ' ') ++pos_;
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  StatusOr<std::int64_t> ParseSum() {
    DGC_ASSIGN_OR_RETURN(std::int64_t lhs, ParseProduct());
    while (true) {
      if (Consume('+')) {
        DGC_ASSIGN_OR_RETURN(std::int64_t rhs, ParseProduct());
        if (__builtin_add_overflow(lhs, rhs, &lhs)) return Overflow();
      } else if (Consume('-')) {
        DGC_ASSIGN_OR_RETURN(std::int64_t rhs, ParseProduct());
        if (__builtin_sub_overflow(lhs, rhs, &lhs)) return Overflow();
      } else {
        return lhs;
      }
    }
  }

  StatusOr<std::int64_t> ParseProduct() {
    DGC_ASSIGN_OR_RETURN(std::int64_t lhs, ParseUnary());
    while (true) {
      if (Consume('*')) {
        DGC_ASSIGN_OR_RETURN(std::int64_t rhs, ParseUnary());
        if (__builtin_mul_overflow(lhs, rhs, &lhs)) return Overflow();
      } else if (Consume('/')) {
        DGC_ASSIGN_OR_RETURN(std::int64_t rhs, ParseUnary());
        if (rhs == 0) return Error("division by zero");
        if (rhs == -1 && lhs == INT64_MIN) return Overflow();
        lhs /= rhs;
      } else if (Consume('%')) {
        DGC_ASSIGN_OR_RETURN(std::int64_t rhs, ParseUnary());
        if (rhs == 0) return Error("modulo by zero");
        if (rhs == -1 && lhs == INT64_MIN) return Overflow();
        lhs %= rhs;
      } else {
        return lhs;
      }
    }
  }

  // Every level of nesting, '(' or unary '-', passes through here.
  StatusOr<std::int64_t> ParseUnary() {
    if (++depth_ > kMaxDepth) return Error("expression nests too deeply");
    std::int64_t v = 0;
    if (Consume('-')) {
      DGC_ASSIGN_OR_RETURN(std::int64_t operand, ParseUnary());
      if (__builtin_sub_overflow(0, operand, &v)) return Overflow();
    } else {
      DGC_ASSIGN_OR_RETURN(v, ParseAtom());
    }
    --depth_;
    return v;
  }

  StatusOr<std::int64_t> ParseAtom() {
    SkipSpace();
    if (Consume('(')) {
      DGC_ASSIGN_OR_RETURN(std::int64_t v, ParseSum());
      if (!Consume(')')) return Error("expected ')'");
      return v;
    }
    if (pos_ >= text_.size()) return Error("expected a value");
    const char c = text_[pos_];
    if (c == 'i') {
      ++pos_;
      return i_;
    }
    if (c == 'n') {
      ++pos_;
      return n_;
    }
    if (c >= '0' && c <= '9') {
      std::int64_t v = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        if (__builtin_mul_overflow(v, 10, &v) ||
            __builtin_add_overflow(v, text_[pos_] - '0', &v)) {
          return Overflow();
        }
        ++pos_;
      }
      return v;
    }
    return Error("expected a value");
  }

  std::string_view text_;
  static constexpr int kMaxDepth = 64;  // argscript.h documents the limit

  std::size_t pos_ = 0;
  int depth_ = 0;
  std::int64_t i_, n_;
};

// One {...} generator occurrence within a template line.
struct Generator {
  std::size_t begin;  ///< offset of '{'
  std::size_t end;    ///< offset past '}'
  std::string_view body;
};

StatusOr<std::vector<Generator>> FindGenerators(std::string_view line) {
  std::vector<Generator> out;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] != '{') continue;
    const std::size_t close = line.find('}', i);
    if (close == std::string_view::npos) {
      return Status(ErrorCode::kInvalidArgument, "unterminated '{' generator");
    }
    out.push_back({i, close + 1, line.substr(i + 1, close - i - 1)});
    i = close;
  }
  return out;
}

/// Length a seq generator expands to; nullopt for per-instance generators.
StatusOr<std::optional<std::uint64_t>> GeneratorLength(std::string_view body) {
  body = TrimWhitespace(body);
  if (StartsWith(body, "seq ")) {
    auto parts = SplitWhitespace(body.substr(4));
    if (parts.size() != 2 && parts.size() != 3) {
      return Status(ErrorCode::kInvalidArgument,
                    "seq needs 'seq first last [step]'");
    }
    std::int64_t vals[3] = {0, 0, 1};
    for (std::size_t k = 0; k < parts.size(); ++k) {
      DGC_ASSIGN_OR_RETURN(vals[k], (ExprParser(parts[k], 0, 1).Evaluate()));
    }
    const std::int64_t first = vals[0], last = vals[1], step = vals[2];
    if (step == 0 || (step > 0 && last < first) || (step < 0 && last > first)) {
      return Status(ErrorCode::kInvalidArgument, "empty or diverging seq");
    }
    std::int64_t span = 0;
    if (__builtin_sub_overflow(last, first, &span)) {
      return Status(ErrorCode::kInvalidArgument, "seq range overflows int64");
    }
    return std::optional<std::uint64_t>(std::uint64_t(span / step) + 1);
  }
  return std::optional<std::uint64_t>();
}

StatusOr<std::string> EvaluateGenerator(std::string_view body, std::uint64_t i,
                                        std::uint64_t n, Rng& rng) {
  body = TrimWhitespace(body);
  if (StartsWith(body, "seq ")) {
    auto parts = SplitWhitespace(body.substr(4));
    std::int64_t vals[3] = {0, 0, 1};
    for (std::size_t k = 0; k < parts.size() && k < 3; ++k) {
      DGC_ASSIGN_OR_RETURN(vals[k], (ExprParser(parts[k], 0, 1).Evaluate()));
    }
    return StrFormat("%lld", (long long)(vals[0] + std::int64_t(i) * vals[2]));
  }
  if (StartsWith(body, "rand ")) {
    auto parts = SplitWhitespace(body.substr(5));
    if (parts.size() != 2) {
      return Status(ErrorCode::kInvalidArgument, "rand needs 'rand lo hi'");
    }
    std::int64_t lo, hi;
    DGC_ASSIGN_OR_RETURN(lo, (ExprParser(parts[0], std::int64_t(i),
                                         std::int64_t(n)).Evaluate()));
    DGC_ASSIGN_OR_RETURN(hi, (ExprParser(parts[1], std::int64_t(i),
                                         std::int64_t(n)).Evaluate()));
    if (hi < lo) {
      return Status(ErrorCode::kInvalidArgument, "rand range is empty");
    }
    return StrFormat("%lld", (long long)rng.NextInRange(lo, hi));
  }
  if (StartsWith(body, "choice ")) {
    auto items = SplitChar(body.substr(7), '|');
    if (items.empty()) {
      return Status(ErrorCode::kInvalidArgument, "choice needs items");
    }
    return std::string(TrimWhitespace(items[i % items.size()]));
  }
  DGC_ASSIGN_OR_RETURN(
      std::int64_t v,
      (ExprParser(body, std::int64_t(i), std::int64_t(n)).Evaluate()));
  return StrFormat("%lld", (long long)v);
}

}  // namespace

StatusOr<std::string> ExpandScript(std::string_view script,
                                   std::uint64_t default_seed) {
  Rng rng(default_seed);
  std::string out;
  std::size_t line_no = 0;
  std::uint64_t expanded_lines = 0;  // instances emitted so far

  for (std::string_view raw : SplitChar(script, '\n')) {
    ++line_no;
    auto fail = [&](const Status& s) {
      return Status(s.code(), StrFormat("script line %zu: %s", line_no,
                                        s.message().c_str()));
    };

    std::string_view line = TrimWhitespace(raw);
    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) {
      line = TrimWhitespace(line.substr(0, hash));
    }
    if (line.empty()) continue;

    std::uint64_t repeat = 0;  // 0: derive from seq generators
    if (line[0] == '@') {
      if (StartsWith(line, "@seed ")) {
        auto seed = ParseInt(line.substr(6));
        if (!seed.ok()) return fail(seed.status());
        rng = Rng(std::uint64_t(*seed));
        continue;
      }
      if (StartsWith(line, "@repeat ")) {
        const std::size_t colon = line.find(':');
        if (colon == std::string_view::npos) {
          return fail(Status(ErrorCode::kInvalidArgument,
                             "@repeat needs '@repeat N : template'"));
        }
        auto count = ParseInt(TrimWhitespace(line.substr(8, colon - 8)));
        if (!count.ok()) return fail(count.status());
        if (*count <= 0) {
          return fail(Status(ErrorCode::kInvalidArgument,
                             "@repeat count must be positive"));
        }
        repeat = std::uint64_t(*count);
        line = TrimWhitespace(line.substr(colon + 1));
      } else {
        return fail(Status(ErrorCode::kInvalidArgument,
                           "unknown directive (expected @seed or @repeat)"));
      }
    }

    auto generators = FindGenerators(line);
    if (!generators.ok()) return fail(generators.status());

    // Determine the line's instance count from seq generators / @repeat.
    std::uint64_t count = repeat;
    for (const Generator& g : *generators) {
      auto len = GeneratorLength(g.body);
      if (!len.ok()) return fail(len.status());
      if (!len->has_value()) continue;
      if (count == 0) {
        count = **len;
      } else if (count != **len) {
        return fail(Status(
            ErrorCode::kInvalidArgument,
            StrFormat("seq length %llu conflicts with line count %llu",
                      (unsigned long long)**len, (unsigned long long)count)));
      }
    }
    if (count == 0) count = 1;
    if (count > kMaxScriptInstances - expanded_lines) {
      return fail(Status(
          ErrorCode::kInvalidArgument,
          StrFormat("script expands to more than %llu instances",
                    (unsigned long long)kMaxScriptInstances)));
    }
    expanded_lines += count;

    for (std::uint64_t i = 0; i < count; ++i) {
      std::string expanded;
      std::size_t cursor = 0;
      for (const Generator& g : *generators) {
        expanded.append(line.substr(cursor, g.begin - cursor));
        auto value = EvaluateGenerator(g.body, i, count, rng);
        if (!value.ok()) return fail(value.status());
        expanded.append(*value);
        cursor = g.end;
      }
      expanded.append(line.substr(cursor));
      out += expanded;
      out += '\n';
    }
  }
  if (out.empty()) {
    return Status(ErrorCode::kInvalidArgument, "script produced no instances");
  }
  return out;
}

StatusOr<std::vector<std::vector<std::string>>> ExpandScriptToArgs(
    std::string_view script, std::uint64_t default_seed) {
  DGC_ASSIGN_OR_RETURN(std::string text, ExpandScript(script, default_seed));
  return ParseArgumentLines(text);
}

}  // namespace dgc::ensemble
