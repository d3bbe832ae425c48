#include "src/bloom/bloom_filter.h"

namespace bloomsample {

BloomFilter::BloomFilter(std::shared_ptr<const HashFamily> family)
    : family_(std::move(family)), bits_(0) {
  BSR_CHECK(family_ != nullptr, "BloomFilter requires a hash family");
  BSR_CHECK(family_->k() <= kMaxK, "hash family k exceeds kMaxK");
  bits_ = BitVector(family_->m());
  cached_set_bits_.store(0, std::memory_order_relaxed);
}

BloomFilter::BloomFilter(std::shared_ptr<const HashFamily> family,
                         FilterArena* arena)
    : family_(std::move(family)), bits_(0) {
  BSR_CHECK(family_ != nullptr, "BloomFilter requires a hash family");
  BSR_CHECK(family_->k() <= kMaxK, "hash family k exceeds kMaxK");
  BSR_CHECK(arena != nullptr, "BloomFilter arena flavor requires an arena");
  BSR_CHECK(arena->words_per_block() == (family_->m() + 63) / 64,
            "arena block width does not match the filter's word count");
  bits_ = BitVector::SpanOf(arena->Allocate(), family_->m());
  cached_set_bits_.store(0, std::memory_order_relaxed);  // zeroed block
}

BloomFilter::BloomFilter(std::shared_ptr<const HashFamily> family,
                         BitVector bits)
    : family_(std::move(family)), bits_(std::move(bits)) {
  BSR_CHECK(family_ != nullptr, "BloomFilter requires a hash family");
  BSR_CHECK(family_->k() <= kMaxK, "hash family k exceeds kMaxK");
  BSR_CHECK(bits_.size() == family_->m(),
            "adopted payload size does not match the family's m");
}

void BloomFilter::Insert(uint64_t key) {
  uint64_t h[kMaxK];
  family_->HashAll(key, h);
  InsertHashes(h);
}

void BloomFilter::InsertHashes(const uint64_t* positions) {
  const size_t k = family_->k();
  // Hash outputs are < m == bits_.size() by the family contract, so the
  // hot loop can skip the per-bit range check.
  uint64_t count = cached_set_bits_.load(std::memory_order_relaxed);
  if (count == kSetBitsUnknown) {
    for (size_t i = 0; i < k; ++i) bits_.SetUnchecked(positions[i]);
    return;
  }
  // Test-and-set keeps the count exact in O(k), so SetBitCount() never
  // has to re-popcount the m bits; positions repeated within the k count
  // once.
  for (size_t i = 0; i < k; ++i) {
    count += bits_.TestAndSetUnchecked(positions[i]);
  }
  cached_set_bits_.store(count, std::memory_order_relaxed);
}

void BloomFilter::InsertBatch(const uint64_t* keys, size_t n) {
  BSR_CHECK(keys != nullptr || n == 0, "InsertBatch: null keys");
  if (n > 0) InvalidateSetBitCount();
  const size_t k = family_->k();
  uint64_t hashes[kHashBlock * kMaxK];
  for (size_t base = 0; base < n; base += kHashBlock) {
    const size_t block = n - base < kHashBlock ? n - base : kHashBlock;
    family_->HashBatch(keys + base, block, hashes);
    const uint64_t* h = hashes;
    for (size_t j = 0; j < block; ++j, h += k) {
      for (size_t i = 0; i < k; ++i) {
        bits_.SetWordMask(h[i] >> 6, 1ULL << (h[i] & 63));
      }
    }
  }
}

void BloomFilter::InsertRange(uint64_t lo, uint64_t hi) {
  BSR_CHECK(lo <= hi, "InsertRange: lo must be <= hi");
  uint64_t keys[kHashBlock];
  uint64_t base = lo;
  while (base < hi) {
    const uint64_t block =
        hi - base < kHashBlock ? hi - base : uint64_t{kHashBlock};
    for (uint64_t j = 0; j < block; ++j) keys[j] = base + j;
    InsertBatch(keys, static_cast<size_t>(block));
    base += block;  // block <= hi - base, so this can never wrap past hi
  }
}

bool BloomFilter::Contains(uint64_t key) const {
  // One virtual call computes all k hashes up front; the probe loop still
  // exits at the first unset bit. Trade-off: negatives no longer skip the
  // remaining hash *computations* the old lazy per-hash path avoided, but
  // they drop k-1 virtual dispatches — a clear win for the cheap families
  // that dominate production use (simple, murmur3).
  uint64_t h[kMaxK];
  family_->HashAll(key, h);
  const size_t k = family_->k();
  for (size_t i = 0; i < k; ++i) {
    if (!bits_.GetUnchecked(h[i])) return false;
  }
  return true;
}

void BloomFilter::FilterContained(const uint64_t* keys, size_t n,
                                  std::vector<uint64_t>* out) const {
  BSR_CHECK(keys != nullptr || n == 0, "FilterContained: null keys");
  BSR_CHECK(out != nullptr, "FilterContained: null output");
  const size_t k = family_->k();
  uint64_t hashes[kHashBlock * kMaxK];
  for (size_t base = 0; base < n; base += kHashBlock) {
    const size_t block = n - base < kHashBlock ? n - base : kHashBlock;
    family_->HashBatch(keys + base, block, hashes);
    const uint64_t* h = hashes;
    for (size_t j = 0; j < block; ++j, h += k) {
      bool hit = true;
      for (size_t i = 0; i < k; ++i) {
        if (!bits_.GetUnchecked(h[i])) {
          hit = false;
          break;
        }
      }
      if (hit) out->push_back(keys[base + j]);
    }
  }
}

void BloomFilter::UnionWith(const BloomFilter& other) {
  CheckCompatible(other);
  InvalidateSetBitCount();
  bits_.OrWith(other.bits_);
}

void BloomFilter::IntersectWith(const BloomFilter& other) {
  CheckCompatible(other);
  InvalidateSetBitCount();
  bits_.AndWith(other.bits_);
}

size_t BloomFilter::AndPopcount(const BloomQueryView& query) const {
  CheckCompatible(query.filter());
  if (query.sparse()) return bits_.AndPopcountSparse(query.sparse_view());
  return bits_.AndPopcount(query.filter().bits());
}

bool BloomFilter::AndIsZero(const BloomQueryView& query) const {
  CheckCompatible(query.filter());
  if (query.sparse()) return bits_.AndAllZeroSparse(query.sparse_view());
  return bits_.AndIsZero(query.filter().bits());
}

BloomQueryView::BloomQueryView(const BloomFilter& filter,
                               IntersectKernel kernel)
    : filter_(&filter) {
  // One pass over the words resolves the cached t2, the kernel, and (when
  // the sparse kernel will read it) the nonzero-word snapshot. Under
  // kAuto, materialization is abandoned the moment the nonzero count
  // crosses the sparse/dense break-even (half the words — past that the
  // dense kernel's linear scan beats the indirected walk), so a dense
  // query costs one count-only pass and a sparse query exactly one
  // materializing pass.
  const uint64_t* words = filter.bits().word_data();
  const size_t word_count = filter.bits().word_count();
  // INT32_MAX bound: sparse-view word indices feed sign-extended 32-bit
  // SIMD gathers (see BitVector::ToSparseView).
  BSR_CHECK(word_count <= INT32_MAX, "filter too wide for a query view");
  bool materialize = kernel != IntersectKernel::kDense;
  const size_t abandon_above =
      kernel == IntersectKernel::kAuto ? word_count / 2 : word_count;
  size_t nnz = 0;
  uint64_t pop = 0;
  for (size_t w = 0; w < word_count; ++w) {
    const uint64_t word = words[w];
    if (word == 0) continue;
    ++nnz;
    pop += static_cast<uint64_t>(__builtin_popcountll(word));
    if (materialize) {
      if (nnz > abandon_above) {
        materialize = false;
        view_.word_index = {};
        view_.word_value = {};
      } else {
        view_.word_index.push_back(static_cast<uint32_t>(w));
        view_.word_value.push_back(word);
      }
    }
  }
  set_bits_ = pop;
  switch (kernel) {
    case IntersectKernel::kDense:
      sparse_ = false;
      break;
    case IntersectKernel::kSparse:
      sparse_ = true;
      break;
    case IntersectKernel::kAuto:
      sparse_ = 2 * nnz <= word_count;
      break;
  }
  if (sparse_) {
    view_.bit_size = filter.bits().size();
    view_.set_bits = static_cast<size_t>(pop);
  }
  // Dense dispatch reads the filter's own bits; view_ stays empty then.
}

BloomFilter UnionOf(const BloomFilter& a, const BloomFilter& b) {
  BloomFilter out = a;
  out.UnionWith(b);
  return out;
}

BloomFilter IntersectionOf(const BloomFilter& a, const BloomFilter& b) {
  BloomFilter out = a;
  out.IntersectWith(b);
  return out;
}

BloomFilter MakeFilter(std::shared_ptr<const HashFamily> family,
                       const std::vector<uint64_t>& keys) {
  BloomFilter filter(std::move(family));
  filter.InsertBatch(keys);
  return filter;
}

}  // namespace bloomsample
