#include "src/bloom/bloom_io.h"

#include <cstring>
#include <string>
#include <vector>

#include "src/util/serialize.h"

namespace bloomsample {

namespace {
constexpr char kFilterTag[4] = {'B', 'S', 'B', 'F'};
constexpr uint32_t kFilterVersion = 1;
/// Tag, version, m, k, seed, family name and word count.
constexpr size_t kHeaderBytes = 48;

uint64_t LoadLittleEndian(const uint8_t* p, int bytes) {
  uint64_t value = 0;
  for (int i = 0; i < bytes; ++i) value |= static_cast<uint64_t>(p[i]) << (8 * i);
  return value;
}

/// Validates the first `len` bytes of an encoding against `family`, field
/// by field in wire order, and returns the payload's word count. A header
/// cut short fails at the first field it cuts.
Result<uint64_t> CheckHeader(const uint8_t* header, size_t len,
                             const HashFamily& family) {
  if (len < 4) return Status::OutOfRange("truncated stream (tag)");
  if (std::memcmp(header, kFilterTag, 4) != 0) {
    return Status::InvalidArgument("bad magic tag; expected '" +
                                   std::string(kFilterTag, 4) + "'");
  }
  if (len < 8) return Status::OutOfRange("truncated stream (u32)");
  if (LoadLittleEndian(header + 4, 4) != kFilterVersion) {
    return Status::Unsupported("unknown Bloom filter format version");
  }
  if (len < 32) return Status::OutOfRange("truncated stream (u64)");
  if (len < 40) return Status::OutOfRange("truncated stream (name)");
  const char* name = reinterpret_cast<const char*>(header + 32);
  if (LoadLittleEndian(header + 8, 8) != family.m() ||
      LoadLittleEndian(header + 16, 8) != family.k() ||
      LoadLittleEndian(header + 24, 8) != family.seed() ||
      std::string(name, strnlen(name, 8)) != family.Name()) {
    return Status::InvalidArgument(
        "stored filter fingerprint does not match the supplied hash family");
  }
  if (len < kHeaderBytes) return Status::OutOfRange("truncated stream (u64)");
  const uint64_t words = LoadLittleEndian(header + 40, 8);
  if (words > (family.m() + 63) / 64) {
    return Status::OutOfRange("vector size exceeds sanity bound");
  }
  return words;
}

/// Builds the filter from `count` little-endian words at `words` (any
/// alignment): one bulk copy, one check of the last word.
Result<BloomFilter> FilterFromWords(const uint8_t* words, uint64_t count,
                                    std::shared_ptr<const HashFamily> family) {
  if (count != (family->m() + 63) / 64) {
    return Status::InvalidArgument("bit payload has wrong word count");
  }
  BitVector bits(family->m());
  bool clean = false;
  if constexpr (kLittleEndianHost) {
    clean = bits.AssignWords(words, count);
  } else {
    std::vector<uint64_t> host(count);
    std::memcpy(host.data(), words, count * sizeof(uint64_t));
    LittleEndianToHost(host.data(), host.size());
    clean = bits.AssignWords(host.data(), count);
  }
  if (!clean) {
    return Status::InvalidArgument("bit payload has stray trailing bits");
  }
  return BloomFilter(std::move(family), std::move(bits));
}

}  // namespace

Status SerializeBloomFilter(const BloomFilter& filter, std::ostream* out) {
  if (out == nullptr) return Status::InvalidArgument("null output stream");
  BinaryWriter writer(out);
  writer.WriteTag(kFilterTag);
  writer.WriteU32(kFilterVersion);
  writer.WriteU64(filter.m());
  writer.WriteU64(filter.k());
  writer.WriteU64(filter.family().seed());
  // Family name as a fixed 8-byte field (padded with zeros).
  char name[8] = {0};
  const std::string family_name = filter.family().Name();
  for (size_t i = 0; i < family_name.size() && i < 8; ++i) {
    name[i] = family_name[i];
  }
  out->write(name, 8);
  writer.WriteU64Array(filter.bits().word_data(), filter.bits().word_count());
  return writer.ok() ? Status::OK() : Status::Internal("stream write failed");
}

Result<BloomFilter> DecodeBloomFilter(
    const uint8_t* data, size_t size,
    std::shared_ptr<const HashFamily> family) {
  if (data == nullptr && size > 0) {
    return Status::InvalidArgument("null input bytes");
  }
  if (family == nullptr) return Status::InvalidArgument("null hash family");
  const Result<uint64_t> words = CheckHeader(data, size, *family);
  if (!words.ok()) return words.status();
  if ((size - kHeaderBytes) / sizeof(uint64_t) < words.value()) {
    return Status::OutOfRange("truncated stream (u64)");
  }
  return FilterFromWords(data + kHeaderBytes, words.value(),
                         std::move(family));
}

Result<BloomFilter> DeserializeBloomFilter(
    std::istream* in, std::shared_ptr<const HashFamily> family) {
  if (in == nullptr) return Status::InvalidArgument("null input stream");
  if (family == nullptr) return Status::InvalidArgument("null hash family");
  uint8_t header[kHeaderBytes];
  in->read(reinterpret_cast<char*>(header), kHeaderBytes);
  const Result<uint64_t> count =
      CheckHeader(header, static_cast<size_t>(in->gcount()), *family);
  if (!count.ok()) return count.status();
  // CheckHeader bounds the count by the family's word count.
  std::vector<uint64_t> words(static_cast<size_t>(count.value()));
  if (!words.empty()) {
    in->read(reinterpret_cast<char*>(words.data()),
             static_cast<std::streamsize>(words.size() * sizeof(uint64_t)));
    if (!in->good()) return Status::OutOfRange("truncated stream (u64)");
  }
  return FilterFromWords(reinterpret_cast<const uint8_t*>(words.data()),
                         words.size(), std::move(family));
}

}  // namespace bloomsample
