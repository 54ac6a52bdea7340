// Minimal JSON helpers shared by the telemetry exporters/parsers.
//
// The engine's machine-readable artifacts (Chrome traces, metric
// snapshots, bench results) are all emitted by hand-rolled writers over a
// small JSON subset: objects, arrays, strings with ASCII escapes, and
// numbers.  JsonReader is the matching pull parser — enough to round-trip
// everything the writers produce, with positioned errors so schema
// violations are debuggable.  JsonEscape is the writer-side escape shared
// by every exporter.

#ifndef FUSEME_COMMON_JSON_UTIL_H_
#define FUSEME_COMMON_JSON_UTIL_H_

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/result.h"

namespace fuseme {

/// Escapes `s` for embedding in a double-quoted JSON string.
inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Pull parser over the exporters' subset of JSON: objects, arrays,
/// strings (with the escapes JsonEscape produces), and integer/float
/// numbers.  `context` prefixes error messages ("trace JSON", "metrics
/// JSON", ...).
class JsonReader {
 public:
  explicit JsonReader(const std::string& text, std::string context = "JSON")
      : text_(text), context_(std::move(context)) {}

  [[nodiscard]] Status Error(const std::string& message) const {
    return Status::InvalidArgument(context_ + ": " + message + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Peek(char c) {
    SkipSpace();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  Status Expect(char c) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return Error(std::string("expected '") + c + "'");
    }
    ++pos_;
    return Status::OK();
  }

  bool TryConsume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<std::string> ReadString() {
    FUSEME_RETURN_IF_ERROR(Expect('"'));
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return Error("truncated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad \\u escape");
            }
          }
          // The exporters only emit \u00XX control codes; anything wider
          // would need UTF-8 encoding, which this reader doesn't do.
          if (code > 0x7f) return Error("non-ASCII \\u escape");
          out += static_cast<char>(code);
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    FUSEME_RETURN_IF_ERROR(Expect('"'));
    return out;
  }

  /// Reads a finite number; malformed tokens ("-", "--1", "1-2") and
  /// values that overflow a double ("1e999") are errors.
  Result<double> ReadNumber() {
    FUSEME_ASSIGN_OR_RETURN(const std::string token, ReadNumberToken());
    return ParseDouble(token);
  }

  /// Reads a number that the writer emitted as an integer, exactly (no
  /// round-trip through double, which loses precision past 2^53).  Floats
  /// are accepted and truncated toward zero; values outside the int64
  /// range are errors.
  Result<std::int64_t> ReadInt() {
    FUSEME_ASSIGN_OR_RETURN(const std::string token, ReadNumberToken());
    if (token.find_first_of(".eE") == std::string::npos) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (end != token.c_str() + token.size()) {
        return Error("malformed integer '" + token + "'");
      }
      if (errno == ERANGE) return Error("integer out of range '" + token + "'");
      return static_cast<std::int64_t>(v);
    }
    FUSEME_ASSIGN_OR_RETURN(const double v, ParseDouble(token));
    // [-2^63, 2^63): the doubles whose truncation fits an int64.
    constexpr double kTwo63 = 9223372036854775808.0;
    if (!(v >= -kTwo63 && v < kTwo63)) {
      return Error("integer out of range '" + token + "'");
    }
    return static_cast<std::int64_t>(v);
  }

  /// Deepest array/object nesting SkipValue descends into; deeper input
  /// is an error instead of a stack overflow.  The writers' schemas nest
  /// a handful of levels.
  static constexpr int kMaxNestingDepth = 256;

  /// Skips one value of any supported type (used for ignored keys).
  /// `depth` is the number of enclosing containers already being skipped.
  Status SkipValue(int depth = 0) {
    SkipSpace();
    if (pos_ >= text_.size()) return Error("truncated value");
    const char c = text_[pos_];
    if (c == '"') return ReadString().status();
    if (c == '{' || c == '[') {
      if (depth >= kMaxNestingDepth) {
        return Error("value nests deeper than the limit of " +
                     std::to_string(kMaxNestingDepth) + " levels");
      }
      const char close = c == '{' ? '}' : ']';
      FUSEME_RETURN_IF_ERROR(Expect(c));
      if (TryConsume(close)) return Status::OK();
      do {
        if (c == '{') {
          FUSEME_RETURN_IF_ERROR(ReadString().status());
          FUSEME_RETURN_IF_ERROR(Expect(':'));
        }
        FUSEME_RETURN_IF_ERROR(SkipValue(depth + 1));
      } while (TryConsume(','));
      return Expect(close);
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-') {
      return ReadNumber().status();
    }
    for (const char* lit : {"true", "false", "null"}) {
      const std::size_t len = std::char_traits<char>::length(lit);
      if (text_.compare(pos_, len, lit) == 0) {
        pos_ += len;
        return Status::OK();
      }
    }
    return Error("unsupported value");
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size();
  }

 private:
  Result<std::string> ReadNumberToken() {
    SkipSpace();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected number");
    return text_.substr(start, pos_ - start);
  }

  /// strtod over the whole token.  Underflow to zero or a subnormal is
  /// accepted (errno ERANGE with a finite result); overflow is not.
  Result<double> ParseDouble(const std::string& token) const {
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return Error("malformed number '" + token + "'");
    }
    if (!std::isfinite(v)) return Error("number out of range '" + token + "'");
    return v;
  }

  const std::string& text_;
  std::string context_;
  std::size_t pos_ = 0;
};

}  // namespace fuseme

#endif  // FUSEME_COMMON_JSON_UTIL_H_
