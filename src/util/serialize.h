// Minimal binary (de)serialization over std::iostream.
//
// Fixed little-endian encoding so artifacts are portable across machines;
// readers validate eagerly and surface Status instead of throwing. Used
// by bloom_io.h / tree_io.h to persist Bloom filters and BloomSampleTrees
// (the tree is built once and reused forever — reloading beats rebuilding
// for any namespace that takes seconds to index).
#ifndef BLOOMSAMPLE_UTIL_SERIALIZE_H_
#define BLOOMSAMPLE_UTIL_SERIALIZE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace bloomsample {

inline constexpr bool kLittleEndianHost =
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__;

/// Converts `count` little-endian words in place to host order (nothing to
/// do on a little-endian host).
inline void LittleEndianToHost(uint64_t* words, size_t count) {
  if constexpr (!kLittleEndianHost) {
    for (size_t i = 0; i < count; ++i) words[i] = __builtin_bswap64(words[i]);
  }
}

class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream* out) : out_(out) {
    BSR_CHECK(out != nullptr, "BinaryWriter needs a stream");
  }

  void WriteU32(uint32_t value) {
    uint8_t buf[4];
    for (int i = 0; i < 4; ++i) buf[i] = static_cast<uint8_t>(value >> (8 * i));
    out_->write(reinterpret_cast<const char*>(buf), 4);
  }

  void WriteU64(uint64_t value) {
    uint8_t buf[8];
    for (int i = 0; i < 8; ++i) buf[i] = static_cast<uint8_t>(value >> (8 * i));
    out_->write(reinterpret_cast<const char*>(buf), 8);
  }

  void WriteI64(int64_t value) { WriteU64(static_cast<uint64_t>(value)); }

  void WriteDouble(double value) {
    uint64_t bits;
    std::memcpy(&bits, &value, 8);
    WriteU64(bits);
  }

  void WriteU64Vector(const std::vector<uint64_t>& values) {
    WriteU64Array(values.data(), values.size());
  }

  /// Same wire format as WriteU64Vector for word payloads that live in
  /// arena-backed spans rather than vectors.
  void WriteU64Array(const uint64_t* values, size_t count) {
    WriteU64(count);
    for (size_t i = 0; i < count; ++i) WriteU64(values[i]);
  }

  void WriteTag(const char tag[4]) { out_->write(tag, 4); }

  bool ok() const { return out_->good(); }

 private:
  std::ostream* out_;
};

class BinaryReader {
 public:
  /// Words per bulk read in ReadU64Vector (512 KiB).
  static constexpr size_t kBulkWords = size_t{1} << 16;

  explicit BinaryReader(std::istream* in) : in_(in) {
    BSR_CHECK(in != nullptr, "BinaryReader needs a stream");
  }

  Result<uint32_t> ReadU32() {
    uint8_t buf[4];
    in_->read(reinterpret_cast<char*>(buf), 4);
    if (!in_->good()) return Status::OutOfRange("truncated stream (u32)");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) value |= static_cast<uint32_t>(buf[i]) << (8 * i);
    return value;
  }

  Result<uint64_t> ReadU64() {
    uint8_t buf[8];
    in_->read(reinterpret_cast<char*>(buf), 8);
    if (!in_->good()) return Status::OutOfRange("truncated stream (u64)");
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i) value |= static_cast<uint64_t>(buf[i]) << (8 * i);
    return value;
  }

  Result<int64_t> ReadI64() {
    Result<uint64_t> value = ReadU64();
    if (!value.ok()) return value.status();
    return static_cast<int64_t>(value.value());
  }

  Result<double> ReadDouble() {
    Result<uint64_t> bits = ReadU64();
    if (!bits.ok()) return bits.status();
    double value;
    const uint64_t raw = bits.value();
    std::memcpy(&value, &raw, 8);
    return value;
  }

  /// Reads a u64 count and then that many words with bulk reads of up to
  /// kBulkWords each, so a hostile count within `max_size` only grows the
  /// vector as far as the stream really goes.
  Result<std::vector<uint64_t>> ReadU64Vector(uint64_t max_size) {
    Result<uint64_t> size = ReadU64();
    if (!size.ok()) return size.status();
    if (size.value() > max_size) {
      return Status::OutOfRange("vector size exceeds sanity bound");
    }
    const size_t count = static_cast<size_t>(size.value());
    std::vector<uint64_t> values;
    values.reserve(count);
    while (values.size() < count) {
      const size_t done = values.size();
      const size_t chunk = std::min(count - done, kBulkWords);
      values.resize(done + chunk);
      in_->read(reinterpret_cast<char*>(values.data() + done),
                static_cast<std::streamsize>(chunk * sizeof(uint64_t)));
      if (!in_->good()) return Status::OutOfRange("truncated stream (u64)");
    }
    LittleEndianToHost(values.data(), values.size());
    return values;
  }

  Status ExpectTag(const char tag[4]) {
    char buf[4];
    in_->read(buf, 4);
    if (!in_->good()) return Status::OutOfRange("truncated stream (tag)");
    if (std::memcmp(buf, tag, 4) != 0) {
      return Status::InvalidArgument(std::string("bad magic tag; expected '") +
                                     std::string(tag, 4) + "'");
    }
    return Status::OK();
  }

 private:
  std::istream* in_;
};

}  // namespace bloomsample

#endif  // BLOOMSAMPLE_UTIL_SERIALIZE_H_
