// Fixed-size bit vector with the word-level operations Bloom filters need:
// bitwise AND/OR against another vector, popcount, and set-bit iteration.
//
// Bits are stored little-endian within 64-bit words; bit i lives in word
// i / 64 at position i % 64. Trailing bits of the last word beyond size()
// are kept zero as an invariant so popcount and equality are O(words)
// without masking.
//
// Word storage comes in two flavors behind one type:
//   * owned   — the vector holds its own heap block (the default and the
//     historical behavior);
//   * span    — the words live in external storage (a BloomSampleTree's
//     FilterArena block) that must outlive the vector; see SpanOf().
// Every operation is storage-agnostic and the two flavors are bit- and
// behavior-identical; only ownership and copy/move mechanics differ:
//   * copy-construction always produces an owned deep copy;
//   * copy-assignment into a same-size span writes through the span (the
//     arena binding is preserved), otherwise the target becomes owned;
//   * moves transfer the span pointer (arena blocks are address-stable),
//     leaving the source empty.
// Word-level kernels (popcount, AND/OR, sparse walks) dispatch through
// src/util/simd.h, which picks the widest implementation the CPU supports.
#ifndef BLOOMSAMPLE_UTIL_BITVECTOR_H_
#define BLOOMSAMPLE_UTIL_BITVECTOR_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/status.h"

namespace bloomsample {

class BitVector {
 public:
  BitVector() = default;

  /// Creates an owned vector of `size` bits, all zero.
  explicit BitVector(size_t size)
      : size_(size),
        word_count_((size + 63) / 64),
        storage_((size + 63) / 64, 0) {
    data_ = storage_.data();
  }

  /// Creates a span vector of `size` bits over `words`, which must hold at
  /// least (size+63)/64 words, outlive the vector, and already satisfy the
  /// trailing-bit-zero invariant (arena blocks are handed out zeroed).
  static BitVector SpanOf(uint64_t* words, size_t size) {
    BSR_CHECK(words != nullptr || size == 0, "BitVector::SpanOf null words");
    BitVector v;
    v.size_ = size;
    v.word_count_ = (size + 63) / 64;
    v.data_ = words;
    assert((size % 64 == 0 || v.word_count_ == 0 ||
            (words[v.word_count_ - 1] >> (size % 64)) == 0) &&
           "BitVector::SpanOf block violates the trailing-bit invariant");
    return v;
  }

  /// SpanOf without the trailing-bit-invariant debug assert, for spans over
  /// storage the process does not control — an mmap'ed snapshot slab whose
  /// bytes are untrusted input, where a stray trailing bit must surface as
  /// (at worst) divergent query results, never an abort. Intersections
  /// against query filters are unaffected either way (the query's own
  /// trailing words are zero, so the AND masks stray bits); Popcount and
  /// equality on such a span do see them.
  static BitVector SpanOfUnchecked(uint64_t* words, size_t size) {
    BSR_CHECK(words != nullptr || size == 0,
              "BitVector::SpanOfUnchecked null words");
    BitVector v;
    v.size_ = size;
    v.word_count_ = (size + 63) / 64;
    v.data_ = words;
    return v;
  }

  BitVector(const BitVector& other)
      : size_(other.size_),
        word_count_(other.word_count_),
        storage_(other.data_, other.data_ + other.word_count_) {
    data_ = storage_.data();
  }

  BitVector(BitVector&& other) noexcept
      : size_(other.size_),
        word_count_(other.word_count_),
        data_(other.data_),
        storage_(std::move(other.storage_)) {
    if (!storage_.empty()) data_ = storage_.data();
    other.size_ = 0;
    other.word_count_ = 0;
    other.data_ = nullptr;
    other.storage_.clear();
  }

  BitVector& operator=(const BitVector& other);
  BitVector& operator=(BitVector&& other) noexcept;

  size_t size() const { return size_; }
  size_t word_count() const { return word_count_; }

  /// True when the words live in external (arena) storage.
  bool span_backed() const { return data_ != nullptr && storage_.empty(); }

  bool Get(size_t i) const {
    BSR_CHECK(i < size_, "BitVector::Get out of range");
    return (data_[i >> 6] >> (i & 63)) & 1ULL;
  }

  void Set(size_t i) {
    BSR_CHECK(i < size_, "BitVector::Set out of range");
    data_[i >> 6] |= (1ULL << (i & 63));
  }

  void Clear(size_t i) {
    BSR_CHECK(i < size_, "BitVector::Clear out of range");
    data_[i >> 6] &= ~(1ULL << (i & 63));
  }

  // Unchecked fast paths for hot loops whose indices are range-checked (or
  // guaranteed by construction, e.g. hash outputs in [0, m)) up front. The
  // checked Get/Set above remain the public default; Debug builds still
  // assert here so the bounds contract stays exercised under -DNDEBUG-less
  // CI runs.
  bool GetUnchecked(size_t i) const {
    assert(i < size_ && "BitVector::GetUnchecked out of range");
    return (data_[i >> 6] >> (i & 63)) & 1ULL;
  }

  void SetUnchecked(size_t i) {
    assert(i < size_ && "BitVector::SetUnchecked out of range");
    data_[i >> 6] |= (1ULL << (i & 63));
  }

  /// Sets bit i and returns 1 if it was 0 before, 0 if it was already set
  /// — the delta a caller keeping a running popcount adds.
  uint64_t TestAndSetUnchecked(size_t i) {
    assert(i < size_ && "BitVector::TestAndSetUnchecked out of range");
    uint64_t& word = data_[i >> 6];
    const uint64_t mask = 1ULL << (i & 63);
    const uint64_t was_clear = (word & mask) == 0 ? 1 : 0;
    word |= mask;
    return was_clear;
  }

  /// ORs `mask` into word `word_idx` in one store — the register-built
  /// word-mask idiom batched inserters use. Bits beyond size() must not be
  /// set in `mask` (would break the trailing-zero invariant).
  void SetWordMask(size_t word_idx, uint64_t mask) {
    assert(word_idx < word_count_ && "BitVector::SetWordMask out of range");
    assert((word_idx + 1 < word_count_ || size_ % 64 == 0 ||
            (mask >> (size_ % 64)) == 0) &&
           "BitVector::SetWordMask mask exceeds size");
    data_[word_idx] |= mask;
  }

  /// Sets all bits to zero.
  void Reset();

  /// Overwrites every word with `count` words copied in bulk from `words`
  /// (host byte order, any alignment); `count` must equal word_count().
  /// Returns false and leaves the vector untouched when the last source
  /// word sets a bit at or beyond size(), so untrusted input cannot break
  /// the trailing-bit-zero invariant. A span vector is written through.
  /// BloomFilter callers go through mutable_bits(), which drops the
  /// filter's memoized popcount.
  bool AssignWords(const void* words, size_t count);

  /// Number of set bits.
  size_t Popcount() const;

  /// True iff no bit is set.
  bool None() const;

  /// this &= other. Sizes must match.
  void AndWith(const BitVector& other);
  /// this |= other. Sizes must match.
  void OrWith(const BitVector& other);

  /// Popcount of (this & other) without materializing the intersection.
  /// Sizes must match.
  size_t AndPopcount(const BitVector& other) const;

  /// True iff (this & other) has no set bit. Sizes must match.
  bool AndIsZero(const BitVector& other) const;

  /// Compressed snapshot of a (typically sparse) vector: the indices and
  /// values of its nonzero words plus the total popcount. Intersection
  /// kernels against a view touch only the view's nonzero words —
  /// O(nnz words) instead of O(size/64) — and are bit-identical to the
  /// dense kernels because all-zero query words contribute nothing to an
  /// AND. A view is a value snapshot: it stays valid (but stale) if the
  /// source vector mutates afterwards.
  struct SparseView {
    size_t bit_size = 0;   ///< size() of the source vector
    size_t set_bits = 0;   ///< total popcount of the source vector
    std::vector<uint32_t> word_index;  ///< ascending indices of nonzero words
    std::vector<uint64_t> word_value;  ///< the corresponding word values
  };

  /// Builds a SparseView of this vector (one O(words) pass).
  SparseView ToSparseView() const;

  /// Popcount of (this & view's source), touching only the view's nonzero
  /// words. Bit-identical to AndPopcount(source). Sizes must match.
  size_t AndPopcountSparse(const SparseView& view) const;

  /// True iff the AND with the view's source has no set bit. Bit-identical
  /// to AndIsZero(source). Sizes must match.
  bool AndAllZeroSparse(const SparseView& view) const;

  /// True iff every set bit of this is also set in other (i.e. this is a
  /// bitwise subset of other). Sizes must match.
  bool IsSubsetOf(const BitVector& other) const;

  /// Indices of all set bits, ascending.
  std::vector<size_t> SetBits() const;
  /// Indices of all unset bits, ascending.
  std::vector<size_t> UnsetBits() const;

  /// Calls fn(i) for every set bit i in ascending order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (size_t w = 0; w < word_count_; ++w) {
      uint64_t word = data_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(w * 64 + static_cast<size_t>(bit));
        word &= word - 1;
      }
    }
  }

  bool operator==(const BitVector& other) const;
  bool operator!=(const BitVector& other) const { return !(*this == other); }

  /// Memory footprint of the payload in bytes (excludes the object header;
  /// span payloads are counted even though the arena owns them).
  size_t MemoryBytes() const { return word_count_ * sizeof(uint64_t); }

  /// Direct word access for serialization, kernels, and tests.
  const uint64_t* word_data() const { return data_; }

 private:
  size_t size_ = 0;
  size_t word_count_ = 0;
  uint64_t* data_ = nullptr;
  /// Owned-mode backing store; empty in span mode.
  std::vector<uint64_t> storage_;
};

/// Returns a & b (element-wise) as a new owned vector. Sizes must match.
BitVector And(const BitVector& a, const BitVector& b);
/// Returns a | b (element-wise) as a new owned vector. Sizes must match.
BitVector Or(const BitVector& a, const BitVector& b);

}  // namespace bloomsample

#endif  // BLOOMSAMPLE_UTIL_BITVECTOR_H_
