// Minimal JSON emission for the benchmark's result lines.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

namespace e2e::json {

inline std::string quote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Shortest round-tripping rendering; non-finite values (never expected)
/// become 0 so the line stays valid JSON.
inline std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char text[32];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

/// Insertion-ordered object writer.
class Object {
 public:
  Object& raw(std::string_view key, std::string_view value) {
    body_ += body_.empty() ? "" : ", ";
    body_ += quote(key);
    body_ += ": ";
    body_ += value;
    return *this;
  }
  Object& num(std::string_view key, double value) {
    return raw(key, number(value));
  }
  Object& str(std::string_view key, std::string_view value) {
    return raw(key, quote(value));
  }
  Object& flag(std::string_view key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace e2e::json
