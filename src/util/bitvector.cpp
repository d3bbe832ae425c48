#include "src/util/bitvector.h"

#include <algorithm>
#include <cstring>

#include "src/util/simd.h"

namespace bloomsample {

BitVector& BitVector::operator=(const BitVector& other) {
  if (this == &other) return *this;
  if (span_backed() && size_ == other.size_) {
    // Write through the span so the arena binding survives assignment; the
    // source satisfies the trailing-zero invariant, so the copy does too.
    std::copy(other.data_, other.data_ + word_count_, data_);
    return *this;
  }
  size_ = other.size_;
  word_count_ = other.word_count_;
  storage_.assign(other.data_, other.data_ + other.word_count_);
  data_ = storage_.data();
  return *this;
}

BitVector& BitVector::operator=(BitVector&& other) noexcept {
  if (this == &other) return *this;
  size_ = other.size_;
  word_count_ = other.word_count_;
  data_ = other.data_;
  storage_ = std::move(other.storage_);
  if (!storage_.empty()) data_ = storage_.data();
  other.size_ = 0;
  other.word_count_ = 0;
  other.data_ = nullptr;
  other.storage_.clear();
  return *this;
}

void BitVector::Reset() { std::fill(data_, data_ + word_count_, 0); }

bool BitVector::AssignWords(const void* words, size_t count) {
  BSR_CHECK(count == word_count_, "BitVector::AssignWords word count mismatch");
  if (count == 0) return true;
  const size_t tail_bits = size_ % 64;
  if (tail_bits != 0) {
    uint64_t last;
    std::memcpy(&last,
                static_cast<const uint8_t*>(words) +
                    (count - 1) * sizeof(uint64_t),
                sizeof(last));
    if ((last >> tail_bits) != 0) return false;
  }
  std::memcpy(data_, words, count * sizeof(uint64_t));
  return true;
}

size_t BitVector::Popcount() const {
  return static_cast<size_t>(simd::Popcount(data_, word_count_));
}

bool BitVector::None() const {
  // (v & v) == 0 ⇔ v == 0, so the AND-emptiness kernel doubles as the
  // all-zero test.
  return simd::AndAllZero(data_, data_, word_count_);
}

void BitVector::AndWith(const BitVector& other) {
  BSR_CHECK(size_ == other.size_, "BitVector::AndWith size mismatch");
  simd::AndInto(data_, other.data_, word_count_);
}

void BitVector::OrWith(const BitVector& other) {
  BSR_CHECK(size_ == other.size_, "BitVector::OrWith size mismatch");
  simd::OrInto(data_, other.data_, word_count_);
}

size_t BitVector::AndPopcount(const BitVector& other) const {
  BSR_CHECK(size_ == other.size_, "BitVector::AndPopcount size mismatch");
  return static_cast<size_t>(simd::AndPopcount(data_, other.data_, word_count_));
}

bool BitVector::AndIsZero(const BitVector& other) const {
  BSR_CHECK(size_ == other.size_, "BitVector::AndIsZero size mismatch");
  return simd::AndAllZero(data_, other.data_, word_count_);
}

BitVector::SparseView BitVector::ToSparseView() const {
  // INT32_MAX, not UINT32_MAX: the AVX-512 sparse kernels gather through
  // sign-extended 32-bit indices, so word indices must stay below 2^31
  // (that is still a 16 GiB filter — far beyond any practical m).
  BSR_CHECK(word_count_ <= INT32_MAX, "vector too wide for a SparseView");
  SparseView view;
  view.bit_size = size_;
  for (size_t w = 0; w < word_count_; ++w) {
    const uint64_t word = data_[w];
    if (word == 0) continue;
    view.word_index.push_back(static_cast<uint32_t>(w));
    view.word_value.push_back(word);
    view.set_bits += static_cast<size_t>(__builtin_popcountll(word));
  }
  return view;
}

size_t BitVector::AndPopcountSparse(const SparseView& view) const {
  BSR_CHECK(size_ == view.bit_size, "BitVector::AndPopcountSparse size mismatch");
  return static_cast<size_t>(
      simd::AndPopcountSparse(data_, view.word_index.data(),
                              view.word_value.data(), view.word_index.size()));
}

bool BitVector::AndAllZeroSparse(const SparseView& view) const {
  BSR_CHECK(size_ == view.bit_size, "BitVector::AndAllZeroSparse size mismatch");
  return simd::AndAllZeroSparse(data_, view.word_index.data(),
                                view.word_value.data(), view.word_index.size());
}

bool BitVector::IsSubsetOf(const BitVector& other) const {
  BSR_CHECK(size_ == other.size_, "BitVector::IsSubsetOf size mismatch");
  for (size_t i = 0; i < word_count_; ++i) {
    if ((data_[i] & ~other.data_[i]) != 0) return false;
  }
  return true;
}

std::vector<size_t> BitVector::SetBits() const {
  std::vector<size_t> out;
  out.reserve(Popcount());
  ForEachSetBit([&out](size_t i) { out.push_back(i); });
  return out;
}

std::vector<size_t> BitVector::UnsetBits() const {
  std::vector<size_t> out;
  out.reserve(size_ - Popcount());
  for (size_t i = 0; i < size_; ++i) {
    if (!Get(i)) out.push_back(i);
  }
  return out;
}

bool BitVector::operator==(const BitVector& other) const {
  return size_ == other.size_ &&
         std::equal(data_, data_ + word_count_, other.data_);
}

BitVector And(const BitVector& a, const BitVector& b) {
  BitVector out = a;
  out.AndWith(b);
  return out;
}

BitVector Or(const BitVector& a, const BitVector& b) {
  BitVector out = a;
  out.OrWith(b);
  return out;
}

}  // namespace bloomsample
