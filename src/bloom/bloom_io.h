// Bloom filter persistence.
//
// A filter's bits are meaningless without its hash family, and two filters
// only interoperate when they share the same family OBJECT. Query filters
// are therefore serialized as bits-plus-parameter-fingerprint and
// deserialized AGAINST an existing family (usually the tree's): the
// fingerprint (m, k, seed, family name) is validated so a filter saved
// under different parameters is rejected instead of silently misread.
//
// Encoding (all integers little-endian; docs/PROTOCOL.md carries it on
// the wire, so the layout is frozen):
//
//   offset  size  field
//        0     4  tag 'BSBF'
//        4     4  u32 version (1)
//        8     8  u64 m
//       16     8  u64 k
//       24     8  u64 hash seed
//       32     8  family name, zero-padded
//       40     8  u64 word count W (must be ceil(m / 64))
//       48  8 × W  the filter's words; bits at or beyond m must be zero
//
// Bytes after the words are not read.
#ifndef BLOOMSAMPLE_BLOOM_BLOOM_IO_H_
#define BLOOMSAMPLE_BLOOM_BLOOM_IO_H_

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>

#include "src/bloom/bloom_filter.h"
#include "src/util/status.h"

namespace bloomsample {

/// Writes `filter` (parameter fingerprint + bit payload) to `out`.
Status SerializeBloomFilter(const BloomFilter& filter, std::ostream* out);

/// Decodes a filter written by SerializeBloomFilter from the `size` bytes
/// at `data`, binding it to `family`: the header is validated in place and
/// the words reach the filter in one bulk copy. Verdicts, status codes
/// included, are those of DeserializeBloomFilter on the same bytes:
///   * kOutOfRange — input cut short in any field, or a word count above
///     ceil(m / 64);
///   * kInvalidArgument — bad tag, a fingerprint (m, k, seed, family name)
///     that does not match `family`, a word count below ceil(m / 64), or a
///     set bit at or beyond m;
///   * kUnsupported — an unknown version.
Result<BloomFilter> DecodeBloomFilter(const uint8_t* data, size_t size,
                                      std::shared_ptr<const HashFamily> family);

/// Stream front end of DecodeBloomFilter: reads the header, then the words
/// in one read, and applies the same checks.
Result<BloomFilter> DeserializeBloomFilter(
    std::istream* in, std::shared_ptr<const HashFamily> family);

}  // namespace bloomsample

#endif  // BLOOMSAMPLE_BLOOM_BLOOM_IO_H_
