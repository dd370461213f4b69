// Byte-oriented serialization used for virtual-processor contexts and
// messages. Contexts must round-trip exactly: the EM engine destroys the
// in-memory state of a virtual processor after each compound superstep and
// rebuilds it from disk, so every Program state type lists its fields once
// (a std::tie of its members) and put_fields/get_fields derive both
// directions from that list.
//
// The format is a flat little-endian byte stream with no framing; writer and
// reader must agree on the sequence of fields (they are the same class).
// Trivially-copyable types and vectors of them take the memcpy fast path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "util/error.h"

namespace emcgm {

/// Append-only output archive backed by a growable byte buffer.
class WriteArchive {
 public:
  WriteArchive() = default;

  /// Make room for `more` bytes past size() in one allocation.
  void reserve(std::size_t more) { buf_.reserve(buf_.size() + more); }

  void write_raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::byte*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put(const T& value) {
    write_raw(&value, sizeof(T));
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put_span(std::span<const T> items) {
    put<std::uint64_t>(items.size());
    write_raw(items.data(), items.size_bytes());
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put_vec(const std::vector<T>& v) {
    put_span(std::span<const T>(v));
  }

  void put_string(const std::string& s) {
    put<std::uint64_t>(s.size());
    write_raw(s.data(), s.size());
  }

  void put_bytes(std::span<const std::byte> bytes) {
    put<std::uint64_t>(bytes.size());
    write_raw(bytes.data(), bytes.size());
  }

  /// Write a field list (a std::tie of members) in order: a vector of
  /// trivially copyable items as put_vec, any other trivially copyable
  /// field as put. Other field types do not compile.
  template <typename... Fs>
  void put_fields(const std::tuple<Fs&...>& fields) {
    std::apply([this](const auto&... f) { (put_field(f), ...); }, fields);
  }

  /// The bytes put_fields(fields) writes, by the same per-field rule.
  template <typename... Fs>
  static std::size_t fields_bytes(const std::tuple<Fs&...>& fields) {
    return std::apply(
        [](const auto&... f) { return (std::size_t{0} + ... + field_bytes(f)); },
        fields);
  }

  std::size_t size() const { return buf_.size(); }
  const std::vector<std::byte>& buffer() const { return buf_; }

  /// Relinquish the underlying buffer (archive becomes empty).
  std::vector<std::byte> take() { return std::move(buf_); }

 private:
  template <typename T>
  void put_field(const std::vector<T>& f) { put_vec(f); }
  template <typename T>
  void put_field(const T& f) { put(f); }
  template <typename T>
  static std::size_t field_bytes(const std::vector<T>& f) {
    return sizeof(std::uint64_t) + f.size() * sizeof(T);
  }
  template <typename T>
  static std::size_t field_bytes(const T&) {
    return sizeof(T);
  }

  std::vector<std::byte> buf_;
};

/// Sequential input archive over a borrowed byte range.
class ReadArchive {
 public:
  explicit ReadArchive(std::span<const std::byte> data) : data_(data) {}

  void read_raw(void* out, std::size_t n) {
    // Compared here, not through need(), so that the compiler sees the
    // memcpy's bound.
    if (n > remaining()) underrun(n, 1);
    if (n == 0) return;  // `out` may be null: an empty vector's data()
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T get() {
    T value;
    read_raw(&value, sizeof(T));
    return value;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> get_vec() {
    const auto n = get<std::uint64_t>();
    need(n, sizeof(T));  // before a corrupt length can size the buffer
    std::vector<T> v(static_cast<std::size_t>(n));
    read_raw(v.data(), v.size() * sizeof(T));
    return v;
  }

  std::string get_string() {
    const auto n = get<std::uint64_t>();
    need(n, 1);
    std::string s(static_cast<std::size_t>(n), '\0');
    read_raw(s.data(), s.size());
    return s;
  }

  std::vector<std::byte> get_bytes() { return get_vec<std::byte>(); }

  /// Read a field list written by put_fields, in the same order.
  template <typename... Fs>
  void get_fields(std::tuple<Fs&...> fields) {
    std::apply([this](auto&... f) { (get_field(f), ...); }, fields);
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }
  std::size_t position() const { return pos_; }

 private:
  template <typename T>
  void get_field(std::vector<T>& f) { f = get_vec<T>(); }
  template <typename T>
  void get_field(T& f) { f = get<T>(); }

  /// Typed underrun unless `n` items of `size` bytes remain. Written as a
  /// division so that no length, however corrupt, can wrap the check.
  void need(std::uint64_t n, std::size_t size) const {
    if (n > remaining() / size) underrun(n, size);
  }

  [[noreturn]] void underrun(std::uint64_t n, std::size_t size) const {
    std::ostringstream os;
    os << "archive underrun: need " << n << " x " << size << " bytes at "
       << pos_ << " of " << data_.size();
    detail::raise("n <= remaining() / size", __FILE__, __LINE__, os.str());
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// Reinterpret a vector of trivially-copyable items as raw bytes.
template <typename T>
  requires std::is_trivially_copyable_v<T>
std::span<const std::byte> as_bytes_span(const std::vector<T>& v) {
  return std::as_bytes(std::span<const T>(v));
}

/// Decode a raw byte range as a vector of items; size must divide evenly.
template <typename T>
  requires std::is_trivially_copyable_v<T>
std::vector<T> bytes_to_vec(std::span<const std::byte> bytes) {
  EMCGM_CHECK_MSG(bytes.size() % sizeof(T) == 0,
                  "byte range of " << bytes.size()
                                   << " not a multiple of item size "
                                   << sizeof(T));
  std::vector<T> v(bytes.size() / sizeof(T));
  if (v.empty()) return v;  // an empty span's data() may be null
  std::memcpy(v.data(), bytes.data(), bytes.size());
  return v;
}

/// Encode a vector of items as an owned byte buffer (no length header).
template <typename T>
  requires std::is_trivially_copyable_v<T>
std::vector<std::byte> vec_to_bytes(const std::vector<T>& v) {
  auto b = as_bytes_span(v);
  return std::vector<std::byte>(b.begin(), b.end());
}

}  // namespace emcgm
