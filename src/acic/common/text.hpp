// Response text without streams: a string built with ostream-style `<<`
// that formats numbers exactly as a default-constructed std::ostream
// does (integers in decimal, floating point as printf "%.6g"), through
// std::to_chars into one reserved string — no stream, locale or
// temporary per value.  The query service's answers and the metrics
// text export are built with it.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>

namespace acic {

class TextWriter {
 public:
  explicit TextWriter(std::size_t capacity = 256) { out_.reserve(capacity); }

  TextWriter& operator<<(std::string_view text) {
    out_.append(text);
    return *this;
  }
  TextWriter& operator<<(char c) {
    out_.push_back(c);
    return *this;
  }
  /// "%.6g": what `std::ostream << double` prints by default.
  TextWriter& operator<<(double v) {
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 6);
    out_.append(buf, r.ptr);
    return *this;
  }
  /// Decimal.  bool and the character types are excluded: a stream
  /// prints those as 0/1 and as characters.
  template <std::integral Int>
    requires(!std::same_as<Int, bool> && sizeof(Int) > 1)
  TextWriter& operator<<(Int v) {
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    out_.append(buf, r.ptr);
    return *this;
  }

  std::string str() && { return std::move(out_); }

 private:
  std::string out_;
};

}  // namespace acic
