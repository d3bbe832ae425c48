// Bloom filter over 64-bit keys (Section 3.1 of the paper).
//
// A filter is an m-bit vector plus a shared hash family of k functions.
// Union and intersection are bitwise OR/AND and are only meaningful between
// filters built with the *same* (m, H) — the same shared_ptr<HashFamily> —
// which is exactly the invariant the BloomSampleTree relies on. Operations
// between incompatible filters abort (library-bug class of error).
#ifndef BLOOMSAMPLE_BLOOM_BLOOM_FILTER_H_
#define BLOOMSAMPLE_BLOOM_BLOOM_FILTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/hash/hash_family.h"
#include "src/util/bitvector.h"
#include "src/util/filter_arena.h"

namespace bloomsample {

class BloomQueryView;

/// Which intersection kernel a query view dispatches to.
///   * kDense — the classic O(m/64)-word AND-popcount.
///   * kSparse — the O(nnz-words) kernel over the view's nonzero words.
///   * kAuto — sparse when the query's nonzero words fill at most half the
///     filter (the regime where indirection beats the straight scan), dense
///     otherwise. Both kernels are bit-identical; this is purely a speed
///     dispatch.
enum class IntersectKernel { kAuto, kDense, kSparse };

class BloomFilter {
 public:
  /// Maximum k this library supports; keeps per-query hash buffers on the
  /// stack. The paper uses k = 3 throughout.
  static constexpr size_t kMaxK = 16;

  /// Creates an empty filter. `family` must be non-null with family->m()
  /// bits of output range; the filter allocates exactly that many bits.
  explicit BloomFilter(std::shared_ptr<const HashFamily> family);

  /// Creates an empty filter whose bit payload is a block allocated from
  /// `arena` (which must be configured for this family's word count and
  /// outlive the filter). Behaviorally identical to the owning flavor —
  /// the BloomSampleTree uses this so node filters pack contiguously.
  BloomFilter(std::shared_ptr<const HashFamily> family, FilterArena* arena);

  /// Adopts `bits` — typically a span over a snapshot slab the caller
  /// already filled — as the filter's payload. bits.size() must equal
  /// family->m(); the storage behind a span must outlive the filter. The
  /// snapshot loaders use this to point node filters straight into a
  /// loaded (or mmap'ed) arena image without re-inserting a single key.
  BloomFilter(std::shared_ptr<const HashFamily> family, BitVector bits);

  // The memoized set-bit count lives in a std::atomic (so concurrent
  // readers of a logically-const filter are race-free), which is not
  // copyable — spell out the value semantics, carrying the cache along.
  BloomFilter(const BloomFilter& other)
      : family_(other.family_),
        bits_(other.bits_),
        cached_set_bits_(
            other.cached_set_bits_.load(std::memory_order_relaxed)) {}
  BloomFilter(BloomFilter&& other) noexcept
      : family_(std::move(other.family_)),
        bits_(std::move(other.bits_)),
        cached_set_bits_(
            other.cached_set_bits_.load(std::memory_order_relaxed)) {
    other.cached_set_bits_.store(kSetBitsUnknown, std::memory_order_relaxed);
  }
  BloomFilter& operator=(const BloomFilter& other) {
    family_ = other.family_;
    bits_ = other.bits_;
    cached_set_bits_.store(
        other.cached_set_bits_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    return *this;
  }
  BloomFilter& operator=(BloomFilter&& other) noexcept {
    family_ = std::move(other.family_);
    bits_ = std::move(other.bits_);
    cached_set_bits_.store(
        other.cached_set_bits_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    other.cached_set_bits_.store(kSetBitsUnknown, std::memory_order_relaxed);
    return *this;
  }

  /// Keys per block in the batched insert/query paths: the hash buffer
  /// (kHashBlock * k u64s) stays comfortably inside L1.
  static constexpr size_t kHashBlock = 256;

  /// Inserts a key: sets the k bits h_0(key)..h_{k-1}(key). O(k): a known
  /// set-bit count is carried forward by the number of bits that flipped
  /// 0→1, an unknown one stays unknown.
  void Insert(uint64_t key);

  /// Insert's bit-setting half: sets the k bits `positions` names — the
  /// output of family().HashAll for one key, so every value is < m. A
  /// caller inserting one key into many filters of the same family (a
  /// tree's root-to-leaf path) hashes it once and calls this per filter.
  void InsertHashes(const uint64_t* positions);

  /// Inserts keys[0..n): hashes cache-friendly blocks through one virtual
  /// HashBatch call each, then sets the resulting bits. Equivalent to
  /// calling Insert per key; faster because the hash work is batched and
  /// devirtualized.
  void InsertBatch(const uint64_t* keys, size_t n);
  void InsertBatch(const std::vector<uint64_t>& keys) {
    InsertBatch(keys.data(), keys.size());
  }

  /// Inserts every key in the range [lo, hi).
  void InsertRange(uint64_t lo, uint64_t hi);

  /// Membership query: true iff all k bits for `key` are set. May return
  /// false positives, never false negatives.
  bool Contains(uint64_t key) const;

  /// Appends to *out every key of keys[0..n) the filter Contains, in input
  /// order. Batched flavor of Contains for leaf scans: one virtual hash
  /// call per block instead of one per key.
  void FilterContained(const uint64_t* keys, size_t n,
                       std::vector<uint64_t>* out) const;

  /// True iff no bit is set (the canonical empty-set representation).
  bool IsEmpty() const { return bits_.None(); }

  /// Number of set bits (t in the paper's estimator notation). Memoized:
  /// a call with the count unknown popcounts the whole vector once, later
  /// calls return the cached value. A new filter starts at a known 0 (its
  /// payload is zeroed); one that adopts a filled payload starts unknown.
  /// Insert and Clear keep a known count exact (Insert adds the bits it
  /// newly set, in O(k)); InsertBatch, UnionWith, IntersectWith and
  /// mutable_bits — which deserializers write through — invalidate it.
  /// Concurrent calls on a filter no thread is mutating are race-free (the
  /// cache is an atomic; racing recomputes store the same value).
  size_t SetBitCount() const {
    uint64_t cached = cached_set_bits_.load(std::memory_order_relaxed);
    if (cached == kSetBitsUnknown) {
      cached = bits_.Popcount();
      cached_set_bits_.store(cached, std::memory_order_relaxed);
    }
    return static_cast<size_t>(cached);
  }

  /// Fill fraction: SetBitCount() / m.
  double FillFraction() const {
    return static_cast<double>(SetBitCount()) / static_cast<double>(m());
  }

  /// this := this ∪ other (bitwise OR). Filters must be compatible.
  void UnionWith(const BloomFilter& other);
  /// this := this ∩ other (bitwise AND). Filters must be compatible.
  void IntersectWith(const BloomFilter& other);

  /// Popcount of the bitwise AND with `other`, without materializing it
  /// (t∧ in the Papapetrou estimator). Filters must be compatible.
  size_t AndPopcount(const BloomFilter& other) const {
    CheckCompatible(other);
    return bits_.AndPopcount(other.bits_);
  }

  /// True iff the bitwise AND with `other` is all-zero.
  bool AndIsZero(const BloomFilter& other) const {
    CheckCompatible(other);
    return bits_.AndIsZero(other.bits_);
  }

  /// Kernel-dispatching flavors: identical results to the BloomFilter
  /// overloads above, but routed through the view's resolved kernel so a
  /// sparse query pays O(nnz words) per call. The view's source filter
  /// must be compatible with this one.
  size_t AndPopcount(const BloomQueryView& query) const;
  bool AndIsZero(const BloomQueryView& query) const;

  /// Seeds the memoized set-bit count with a value the caller already
  /// knows — snapshot loaders persist each node's popcount, so reloading a
  /// tree needn't touch (or, for mmap'ed payloads, even page in) a single
  /// payload word. `count` must equal the payload's true popcount: Insert
  /// carries a seeded count forward instead of recounting, so the seed is
  /// trusted for the filter's life (the v2 loader vouches for it with the
  /// node-table digest and its set_bits <= m check). A wrong value skews
  /// estimates but cannot cause memory unsafety.
  void SeedSetBitCount(size_t count) {
    cached_set_bits_.store(static_cast<uint64_t>(count),
                           std::memory_order_relaxed);
  }

  /// Removes every bit. The filter represents the empty set afterwards.
  void Clear() {
    bits_.Reset();
    cached_set_bits_.store(0, std::memory_order_relaxed);
  }

  uint64_t m() const { return family_->m(); }
  size_t k() const { return family_->k(); }
  const HashFamily& family() const { return *family_; }
  const std::shared_ptr<const HashFamily>& family_ptr() const {
    return family_;
  }
  const BitVector& bits() const { return bits_; }
  /// Grants raw write access to the bit payload (deserializers, counting
  /// filters). Invalidates the memoized set-bit count up front; callers
  /// must not keep mutating through the returned reference after a later
  /// SetBitCount() call, or the cache goes stale.
  BitVector& mutable_bits() {
    InvalidateSetBitCount();
    return bits_;
  }

  /// Two filters are compatible when they share the same hash family object
  /// (hence identical m, k, and coefficients).
  bool CompatibleWith(const BloomFilter& other) const {
    return family_ == other.family_;
  }

  /// Payload memory in bytes.
  size_t MemoryBytes() const { return bits_.MemoryBytes(); }

  bool operator==(const BloomFilter& other) const {
    return family_ == other.family_ && bits_ == other.bits_;
  }

 private:
  static constexpr uint64_t kSetBitsUnknown = ~0ULL;

  void CheckCompatible(const BloomFilter& other) const {
    BSR_CHECK(CompatibleWith(other),
              "BloomFilter operation between incompatible filters");
  }

  void InvalidateSetBitCount() {
    cached_set_bits_.store(kSetBitsUnknown, std::memory_order_relaxed);
  }

  std::shared_ptr<const HashFamily> family_;
  BitVector bits_;
  /// Memoized Popcount() of bits_, kSetBitsUnknown when stale.
  mutable std::atomic<uint64_t> cached_set_bits_{kSetBitsUnknown};
};

/// Read-only snapshot of a query filter prepared for many intersections:
/// the sparse word view, the memoized set-bit count (t2 in the estimator),
/// and the resolved kernel choice. Build one per query filter and reuse it
/// across every tree-node intersection of a descent/traversal — each node
/// then costs O(nnz words) with zero redundant popcounts. The view
/// snapshots the filter's bits: mutating the filter afterwards leaves the
/// view stale (rebuild it).
class BloomQueryView {
 public:
  explicit BloomQueryView(const BloomFilter& filter,
                          IntersectKernel kernel = IntersectKernel::kAuto);

  const BloomFilter& filter() const { return *filter_; }
  /// Cached popcount of the query's bits (t2).
  uint64_t set_bits() const { return set_bits_; }
  /// True when intersections against this view run the sparse kernel.
  bool sparse() const { return sparse_; }
  /// The nonzero-word snapshot; only materialized when sparse() is true
  /// (dense dispatch reads the filter's own bits instead).
  const BitVector::SparseView& sparse_view() const { return view_; }

  /// Words one intersection against this view reads from each operand:
  /// nnz for the sparse kernel, the full word count for the dense one.
  /// The basis of the bytes-touched accounting in OpCounters.
  size_t words_touched() const {
    return sparse_ ? view_.word_index.size() : filter_->bits().word_count();
  }

 private:
  const BloomFilter* filter_;
  BitVector::SparseView view_;
  uint64_t set_bits_ = 0;
  bool sparse_ = false;
};

/// a ∪ b as a new filter. Filters must be compatible.
BloomFilter UnionOf(const BloomFilter& a, const BloomFilter& b);
/// a ∩ b as a new filter. Filters must be compatible.
BloomFilter IntersectionOf(const BloomFilter& a, const BloomFilter& b);

/// Builds a filter containing every key in `keys`.
BloomFilter MakeFilter(std::shared_ptr<const HashFamily> family,
                       const std::vector<uint64_t>& keys);

}  // namespace bloomsample

#endif  // BLOOMSAMPLE_BLOOM_BLOOM_FILTER_H_
