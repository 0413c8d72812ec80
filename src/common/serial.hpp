// Bounds-checked binary serialization.
//
// All protocol messages, certificates and signatures cross module (and, in
// the threaded runtime, thread) boundaries as flat octet buffers encoded by
// Writer and decoded by Reader.  Decoding is fully defensive: a Byzantine
// peer controls the buffer contents, so every read is bounds-checked and
// every length field is validated before allocation.  Malformed input
// raises SerialError, which the receiving module translates into a
// "syntactically incorrect message" verdict (paper §3).
//
// Encoding: fixed-width little-endian integers, length-prefixed byte
// strings and sequences.  No varints: simplicity and a canonical (unique)
// encoding matter more than compactness, and canonical encodings are what
// make signature verification over re-serialized messages sound.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/bytes.hpp"

namespace modubft {

/// Raised by Reader on any malformed or truncated input.
class SerialError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends primitive values to a growing byte buffer.
class Writer {
 public:
  Writer() = default;

  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed byte string.
  void bytes(const Bytes& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  /// Length-prefixed UTF-8/opaque string.
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Raw append without a length prefix (caller manages framing).
  void raw(const Bytes& b) { buf_.insert(buf_.end(), b.begin(), b.end()); }

  const Bytes& data() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Sequentially decodes a byte buffer written by Writer.
/// Every accessor throws SerialError instead of reading out of bounds.
///
/// A Reader is a non-owning view (pointer + length): `nested()` carves a
/// length-prefixed sub-view out of the same buffer without copying, so
/// nested structures (e.g. a message core inside a signed message) decode
/// straight from the original allocation.  The viewed buffer must outlive
/// the Reader and every sub-Reader derived from it.
class Reader {
 public:
  explicit Reader(const Bytes& buf) : data_(buf.data()), size_(buf.size()) {}
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint16_t u16() {
    need(2);
    std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                      static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
    pos_ += 2;
    return v;
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }

  bool boolean() {
    std::uint8_t v = u8();
    if (v > 1) throw SerialError("boolean field out of range");
    return v == 1;
  }

  Bytes bytes() {
    std::uint32_t len = u32();
    need(len);
    Bytes out(data_ + pos_, data_ + pos_ + len);
    pos_ += len;
    return out;
  }

  std::string str() {
    std::uint32_t len = u32();
    need(len);
    std::string out(data_ + pos_, data_ + pos_ + len);
    pos_ += len;
    return out;
  }

  /// Reads a length prefix and returns a sub-Reader aliasing the next `len`
  /// bytes of this buffer — the copy-free counterpart of `bytes()` for
  /// nested length-prefixed structures.  Advances past the sub-range.
  Reader nested() {
    std::uint32_t len = u32();
    need(len);
    Reader sub(data_ + pos_, len);
    pos_ += len;
    return sub;
  }

  /// Reads a sequence length and validates it against a sanity cap so a
  /// hostile length prefix cannot trigger a huge allocation.
  std::uint32_t seq_len(std::uint32_t max_elems) {
    std::uint32_t len = u32();
    if (len > max_elems) throw SerialError("sequence length exceeds cap");
    return len;
  }

  /// Advances past `n` bytes without reading them.
  void skip(std::size_t n) {
    need(n);
    pos_ += n;
  }

  /// The next unread byte (one past the end once at_end()).
  const std::uint8_t* cursor() const { return data_ + pos_; }

  bool at_end() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

  /// Decoders for complete messages call this to reject trailing garbage —
  /// a canonical encoding has exactly one valid byte string per value.
  void expect_end() const {
    if (!at_end()) throw SerialError("trailing bytes after message");
  }

 private:
  void need(std::size_t n) const {
    if (size_ - pos_ < n) throw SerialError("truncated input");
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace modubft
