#include "util/json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/error.h"

namespace emcgm::json {

std::string quote(std::string_view s) {
  std::string out = "\"";
  out.reserve(s.size() + 2);
  for (char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof esc, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += esc;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
  return out;
}

void Reader::fail(const std::string& what) const {
  throw IoError(IoErrorKind::kConfig, std::string(doc_) + " JSON at byte " +
                                          std::to_string(pos_) + ": " + what);
}

void Reader::skip_ws() {
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
          text_[pos_] == '\r')) {
    ++pos_;
  }
}

bool Reader::peek(char c) {
  skip_ws();
  return pos_ < text_.size() && text_[pos_] == c;
}

bool Reader::accept(char c) {
  if (!peek(c)) return false;
  ++pos_;
  return true;
}

void Reader::expect(char c) {
  if (!accept(c)) fail(std::string("expected '") + c + "'");
}

std::string_view Reader::number_token() {
  skip_ws();
  const std::size_t start = pos_;
  while (pos_ < text_.size() &&
         std::string_view("+-.0123456789eE").find(text_[pos_]) !=
             std::string_view::npos) {
    ++pos_;
  }
  if (pos_ == start) fail("expected a number");
  return text_.substr(start, pos_ - start);
}

double Reader::number() {
  const std::string_view tok = number_token();
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), value);
  if (ec != std::errc() || ptr != tok.data() + tok.size() ||
      !std::isfinite(value)) {
    pos_ -= tok.size();
    fail("expected a finite number, got '" + std::string(tok) + "'");
  }
  return value;
}

std::string Reader::string() {
  expect('"');
  const std::size_t start = pos_;
  while (pos_ < text_.size() && text_[pos_] != '"') {
    if (text_[pos_] == '\\') fail("escape sequences unsupported");
    if (static_cast<unsigned char>(text_[pos_]) < 0x20) {
      fail("raw control character in a string");
    }
    ++pos_;
  }
  if (pos_ >= text_.size()) fail("unterminated string");
  return std::string(text_.substr(start, pos_++ - start));
}

bool Reader::boolean() {
  skip_ws();
  if (text_.substr(pos_, 4) == "true") {
    pos_ += 4;
    return true;
  }
  if (text_.substr(pos_, 5) == "false") {
    pos_ += 5;
    return false;
  }
  fail("expected true or false");
}

std::string Reader::raw_object() {
  skip_ws();
  if (pos_ >= text_.size() || text_[pos_] != '{') fail("expected '{'");
  const std::size_t start = pos_;
  int depth = 0;
  bool in_str = false;
  while (pos_ < text_.size()) {
    const char c = text_[pos_++];
    if (in_str) {
      if (c == '"') in_str = false;
      continue;
    }
    if (c == '"') in_str = true;
    if (c == '{') ++depth;
    if (c == '}' && --depth == 0) {
      return std::string(text_.substr(start, pos_ - start));
    }
  }
  fail("unterminated object");
}

void Reader::finish() {
  skip_ws();
  if (pos_ != text_.size()) fail("trailing bytes after the document");
}

void Writer::separate(bool is_object) {
  const char last = out_.empty() ? ':' : out_.back();
  if (last != ':' && last != '{' && last != '[') out_ += ',';
  if (is_object && !open_.empty() && open_.back() == '[') {
    out_ += '\n';
    out_.append(2 * static_cast<std::size_t>(std::ranges::count(open_, '[')),
                ' ');
  }
}

Writer& Writer::open(char brace) {
  separate(brace == '{');
  out_ += brace;
  open_ += brace;
  return *this;
}

Writer& Writer::close(char brace) {
  EMCGM_CHECK_MSG(!open_.empty() && open_.back() == brace,
                  "a JSON container closed out of order");
  out_ += brace == '{' ? '}' : ']';
  open_.pop_back();
  return *this;
}

Writer& Writer::token(std::string_view text) {
  separate(false);
  out_ += text;
  return *this;
}

Writer& Writer::key(std::string_view k) { return token(quote(k) + ':'); }

Writer& Writer::value(std::string_view s) { return token(quote(s)); }

Writer& Writer::value(bool b) { return token(b ? "true" : "false"); }

template <typename T>
Writer& Writer::integer(T v) {
  char buf[24];
  return token(std::string_view(buf, std::to_chars(buf, buf + 24, v).ptr));
}
template Writer& Writer::integer(std::int64_t);
template Writer& Writer::integer(std::uint64_t);

Writer& Writer::value(double d) {
  if (!std::isfinite(d)) throw Error("JSON cannot hold a non-finite number");
  char buf[32];
  return token(std::string_view(buf, std::to_chars(buf, buf + 32, d).ptr));
}

std::string Writer::take() {
  EMCGM_CHECK_MSG(open_.empty(), "an unfinished JSON document");
  out_ += '\n';
  return std::move(out_);
}

}  // namespace emcgm::json
