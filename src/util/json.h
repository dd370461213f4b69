// The one JSON reader and the one JSON writer of the tree. Job files
// (svc/svc_json), chaos plans (chaos/plan) and collective schedules
// (routing/schedule) are read with Reader; every document the tree emits —
// bench reports, Chrome traces and metrics, job results, chaos plans and
// schedules — is built with Writer. Neither is a DOM: the reader walks
// members with callbacks, the writer appends them in order, and both take
// each value as the type it is stored in. Neither has a dependency.
//
// Every number is read exactly or rejected: integer<T>() accepts only a
// plain decimal integer inside T's range (no fraction, no exponent, no sign
// on an unsigned T), so a u64 seed survives a to_json -> parse round trip
// bit for bit and "-1" never wraps into a disk count. Strings carry no
// escapes and no raw control characters, an object may not repeat a key,
// and finish() rejects bytes after the document. Every failure is an
// IoError(kConfig) naming the document and the byte offset.
//
// Writer has one layout and no style option: members are written
// "key":value with no spaces, and an object that is an array element starts
// a new line, indented two spaces per open array; nothing else breaks a
// line. Doubles take the shortest form that reads back to the same bits.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace emcgm::json {

/// Parse all of `s` as a plain decimal integer of type T (what std::from_chars
/// accepts, with nothing left over); nullopt when it is not one or does not
/// fit. Shared by the reader and the command-line tools' numeric flags.
template <typename T>
  requires std::is_integral_v<T> && (!std::is_same_v<T, bool>)
std::optional<T> parse_integer(std::string_view s) {
  T value{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// `s` as a JSON string literal, quotes included: `"` and `\` escaped, '\n'
/// as \n, any other control character as \u00XX.
std::string quote(std::string_view s);

class Writer {
 public:
  Writer& begin_object() { return open('{'); }
  Writer& end_object() { return close('{'); }
  Writer& begin_array() { return open('['); }
  Writer& end_array() { return close('['); }

  /// The key of the next member of the innermost object.
  Writer& key(std::string_view k);

  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(bool b);
  /// The shortest decimal that reads back to `d` bit for bit. A non-finite
  /// `d` has no JSON spelling and throws Error.
  Writer& value(double d);
  template <typename T>
    requires std::is_integral_v<T> && (!std::is_same_v<T, bool>)
  Writer& value(T v) {
    return integer(std::conditional_t<std::is_signed_v<T>, std::int64_t,
                                      std::uint64_t>{v});
  }

  template <typename T>
  Writer& field(std::string_view k, const T& v) {
    return key(k).value(v);
  }

  /// The finished document, ending in one newline.
  std::string take();

 private:
  /// Place the comma and line break a value (or key) needs at the cursor.
  void separate(bool is_object);
  Writer& open(char brace);
  Writer& close(char brace);
  Writer& token(std::string_view text);
  template <typename T>  // std::int64_t or std::uint64_t, in json.cpp
  Writer& integer(T v);

  std::string out_;
  std::string open_;  ///< the brace of every open container, outermost first
};

class Reader {
 public:
  /// `doc` names the document in error messages ("job file", ...); it must
  /// outlive the reader, as must `text`.
  Reader(std::string_view text, std::string_view doc)
      : text_(text), doc_(doc) {}

  /// Walk an object: member(key) runs once per member with the cursor on
  /// its value, and must consume exactly that value. A repeated key is
  /// rejected.
  template <typename F>
  void object(F&& member) {
    expect('{');
    std::vector<std::string> keys;
    if (!peek('}')) {
      do {
        std::string key = string();
        for (const std::string& k : keys) {
          if (k == key) fail("duplicate key '" + key + "'");
        }
        expect(':');
        member(key);
        keys.push_back(std::move(key));
      } while (accept(','));
    }
    expect('}');
  }

  /// Walk an array: element() runs once per element with the cursor on it,
  /// and must consume exactly that element.
  template <typename F>
  void array(F&& element) {
    expect('[');
    if (!peek(']')) {
      do {
        element();
      } while (accept(','));
    }
    expect(']');
  }

  template <typename T>
  T integer() {
    const std::string_view tok = number_token();
    if (const std::optional<T> v = parse_integer<T>(tok)) return *v;
    pos_ -= tok.size();  // point the error at the value, not past it
    fail("expected an integer in [" +
         std::to_string(std::numeric_limits<T>::min()) + ", " +
         std::to_string(std::numeric_limits<T>::max()) + "], got '" +
         std::string(tok) + "'");
  }

  /// A finite double.
  double number();
  /// A string without escapes or raw control characters.
  std::string string();
  bool boolean();
  /// A balanced {...} object, verbatim — a nested document handed to its
  /// own parser later (the per-job chaos plan).
  std::string raw_object();
  /// Reject anything but whitespace after the document.
  void finish();

  [[noreturn]] void fail(const std::string& what) const;

 private:
  void skip_ws();
  bool peek(char c);
  bool accept(char c);
  void expect(char c);
  std::string_view number_token();

  std::string_view text_;
  std::string_view doc_;
  std::size_t pos_ = 0;
};

}  // namespace emcgm::json
