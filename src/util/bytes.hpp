// Portable binary packing for cross-process and on-disk byte streams.
//
// The checkpoint journal, the supervisor's worker pipe protocol and the
// result/registry/series codecs all move structured data between processes
// (or across a crash) and must reproduce it bit-exactly: doubles travel as
// their IEEE-754 bit patterns, integers in fixed little-endian byte order,
// strings length-prefixed.  BinaryReader throws on any underflow or
// malformed length instead of reading garbage, which is what makes a torn
// or corrupted record detectable instead of silently wrong.
//
// A record's layout is written once, as a field visitor
//
//   template <class Io, class R> void fields(Io& io, R& record) {
//     io(record.a, record.b);
//     io.seq(record.items, [](Io& io, auto& item) { io(item.x); });
//   }
//
// called with a BinaryWriter to encode and a BinaryReader to decode, so the
// two directions cannot drift apart.  Each C++ type has exactly one wire
// encoding (`field`); a type without one is a compile error, never a silent
// integral conversion.  A type with its own to_bytes()/from_bytes() codec
// nests as a length-prefixed blob.
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/hash.hpp"

namespace eab {

/// A type that carries its own byte codec (MetricsRegistry, Telemetry, ...).
template <class T>
concept SelfEncoding = requires(const T& v, std::string_view bytes) {
  { v.to_bytes() } -> std::same_as<std::string>;
  { T::from_bytes(bytes) } -> std::same_as<T>;
};

/// Appends fixed-layout fields to a byte string (little-endian, doubles as
/// bit patterns).  The layout matches BinaryReader exactly.
class BinaryWriter {
 public:
  static constexpr bool kReading = false;

  explicit BinaryWriter(std::string& out) : out_(out), start_(out.size()) {}

  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    out_.append(s);
  }

  void field(std::int32_t v) { i32(v); }
  void field(std::uint32_t v) { u32(v); }
  void field(std::uint64_t v) { u64(v); }
  void field(std::int64_t v) { i64(v); }
  void field(double v) { f64(v); }
  void field(bool v) { u8(v ? 1 : 0); }
  void field(const std::string& v) { str(v); }
  template <SelfEncoding T>
  void field(const T& v) { str(v.to_bytes()); }
  template <class T>
  void field(const T&) = delete;

  template <class... T>
  void operator()(const T&... v) { (field(v), ...); }

  /// A u64 element count, then `each(*this, element)` per element.
  template <class T, class Each>
  void seq(const std::vector<T>& items, Each&& each) {
    u64(items.size());
    for (const T& item : items) each(*this, item);
  }

  /// Appends the crc32 of everything this writer appended as a u32 tail;
  /// BinaryReader::open_sealed checks and strips it.
  void seal() {
    u32(crc32(std::string_view(out_).substr(start_)));
  }

 private:
  std::string& out_;
  std::size_t start_;
};

/// Consumes fields written by BinaryWriter.  Every accessor throws
/// std::runtime_error("truncated binary record") on underflow; str() and
/// seq() also reject lengths and counts that run past the end of the buffer.
class BinaryReader {
 public:
  static constexpr bool kReading = true;

  explicit BinaryReader(std::string_view bytes) : bytes_(bytes) {}

  /// A reader over the payload of a BinaryWriter::seal()ed record.  Throws
  /// std::runtime_error(`mismatch`) when the crc32 tail does not match.
  static BinaryReader open_sealed(std::string_view bytes,
                                  const char* mismatch) {
    if (bytes.size() < 4) throw std::runtime_error("truncated binary record");
    const std::string_view payload = bytes.substr(0, bytes.size() - 4);
    if (BinaryReader(bytes.substr(payload.size())).u32() != crc32(payload)) {
      throw std::runtime_error(mismatch);
    }
    return BinaryReader(payload);
  }

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(bytes_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  void field(std::int32_t& v) { v = i32(); }
  void field(std::uint32_t& v) { v = u32(); }
  void field(std::uint64_t& v) { v = u64(); }
  void field(std::int64_t& v) { v = i64(); }
  void field(double& v) { v = f64(); }
  void field(bool& v) { v = u8() != 0; }
  void field(std::string& v) { v = str(); }
  template <SelfEncoding T>
  void field(T& v) { v = T::from_bytes(str()); }
  template <class T>
  void field(T&) = delete;

  template <class... T>
  void operator()(T&... v) { (field(v), ...); }

  /// Reads a u64 element count — every element takes at least one byte, so
  /// a count beyond remaining() is a corrupt record, rejected before any
  /// allocation — then replaces `items` with that many elements, each
  /// default-constructed and filled by `each(*this, element)`.
  template <class T, class Each>
  void seq(std::vector<T>& items, Each&& each) {
    const std::uint64_t n = u64();
    need(n);
    items.clear();
    for (std::uint64_t i = 0; i < n; ++i) each(*this, items.emplace_back());
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool done() const { return pos_ == bytes_.size(); }

  /// Throws unless the whole buffer was consumed — a record with trailing
  /// bytes is as malformed as a short one.
  void expect_done() const {
    if (!done()) throw std::runtime_error("trailing bytes in binary record");
  }

 private:
  void need(std::uint64_t n) const {
    if (n > bytes_.size() - pos_) {
      throw std::runtime_error("truncated binary record");
    }
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace eab
