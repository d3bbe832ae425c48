#include "src/bloom/bloom_filter.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/util/rng.h"
#include "src/workload/set_generators.h"

namespace bloomsample {
namespace {

std::shared_ptr<const HashFamily> Family(uint64_t m = 10000, size_t k = 3,
                                         uint64_t seed = 42,
                                         uint64_t universe = 1000000) {
  return MakeHashFamily(HashFamilyKind::kSimple, k, m, seed, universe).value();
}

TEST(BloomFilterTest, EmptyFilterContainsNothingSpecial) {
  BloomFilter filter(Family());
  EXPECT_TRUE(filter.IsEmpty());
  EXPECT_EQ(filter.SetBitCount(), 0u);
  for (uint64_t x = 0; x < 100; ++x) EXPECT_FALSE(filter.Contains(x));
}

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter filter(Family());
  Rng rng(1);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 500; ++i) keys.push_back(rng.Below(1000000));
  for (uint64_t key : keys) filter.Insert(key);
  for (uint64_t key : keys) {
    EXPECT_TRUE(filter.Contains(key)) << key;  // the defining invariant
  }
}

TEST(BloomFilterTest, InsertSetsAtMostKBits) {
  BloomFilter filter(Family(100000, 3));
  filter.Insert(7);
  EXPECT_LE(filter.SetBitCount(), 3u);
  EXPECT_GE(filter.SetBitCount(), 1u);
  EXPECT_FALSE(filter.IsEmpty());
}

TEST(BloomFilterTest, InsertRangeCoversEveryElement) {
  BloomFilter filter(Family());
  filter.InsertRange(100, 200);
  for (uint64_t x = 100; x < 200; ++x) EXPECT_TRUE(filter.Contains(x));
}

TEST(BloomFilterTest, FalsePositiveRateNearTheory) {
  const uint64_t m = 10000;
  const uint64_t n = 700;
  BloomFilter filter(Family(m, 3, 5));
  Rng rng(2);
  const auto members = GenerateUniformSet(500000, n, &rng).value();
  for (uint64_t x : members) filter.Insert(x);

  int false_positives = 0;
  const int probes = 50000;
  for (int i = 0; i < probes; ++i) {
    const uint64_t y = 500000 + rng.Below(500000);  // disjoint from members
    false_positives += filter.Contains(y);
  }
  const double measured = static_cast<double>(false_positives) / probes;
  // (1 − e^{−kn/m})^k = (1 − e^{−0.21})^3 ≈ 0.0068
  EXPECT_NEAR(measured, 0.0068, 0.004);
}

TEST(BloomFilterTest, UnionIsExactlyBitwiseOr) {
  auto family = Family();
  BloomFilter a(family);
  BloomFilter b(family);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    a.Insert(rng.Below(1000000));
    b.Insert(rng.Below(1000000));
  }
  const BloomFilter u = UnionOf(a, b);
  EXPECT_EQ(u.bits(), Or(a.bits(), b.bits()));
}

TEST(BloomFilterTest, UnionEqualsFilterOfUnionedSets) {
  // The identity the tree build relies on: B(A ∪ B) == B(A) | B(B) when
  // parameters are shared — bit-exact, not just approximate.
  auto family = Family();
  Rng rng(4);
  std::vector<uint64_t> set_a;
  std::vector<uint64_t> set_b;
  for (int i = 0; i < 300; ++i) set_a.push_back(rng.Below(1000000));
  for (int i = 0; i < 300; ++i) set_b.push_back(rng.Below(1000000));

  BloomFilter a = MakeFilter(family, set_a);
  const BloomFilter b = MakeFilter(family, set_b);
  std::vector<uint64_t> both = set_a;
  both.insert(both.end(), set_b.begin(), set_b.end());
  const BloomFilter combined = MakeFilter(family, both);

  a.UnionWith(b);
  EXPECT_EQ(a, combined);
}

TEST(BloomFilterTest, IntersectionContainsSharedElements) {
  auto family = Family();
  BloomFilter a(family);
  BloomFilter b(family);
  const std::vector<uint64_t> shared = {10, 20, 30, 40};
  for (uint64_t x : shared) {
    a.Insert(x);
    b.Insert(x);
  }
  a.Insert(111);
  b.Insert(222);
  const BloomFilter inter = IntersectionOf(a, b);
  // Shared elements always survive intersection (their bits are set in
  // both filters).
  for (uint64_t x : shared) EXPECT_TRUE(inter.Contains(x));
}

TEST(BloomFilterTest, AndPopcountMatchesMaterialized) {
  auto family = Family();
  BloomFilter a(family);
  BloomFilter b(family);
  Rng rng(6);
  for (int i = 0; i < 400; ++i) {
    a.Insert(rng.Below(1000000));
    b.Insert(rng.Below(1000000));
  }
  EXPECT_EQ(a.AndPopcount(b), IntersectionOf(a, b).SetBitCount());
  EXPECT_EQ(a.AndIsZero(b), a.AndPopcount(b) == 0);
}

TEST(BloomFilterTest, ClearRestoresEmptySet) {
  BloomFilter filter(Family());
  filter.Insert(5);
  filter.Clear();
  EXPECT_TRUE(filter.IsEmpty());
  EXPECT_EQ(filter.SetBitCount(), 0u);
}

TEST(BloomFilterTest, FillFraction) {
  BloomFilter filter(Family(1000, 1, 42, 100000));
  EXPECT_DOUBLE_EQ(filter.FillFraction(), 0.0);
  filter.Insert(1);
  EXPECT_DOUBLE_EQ(filter.FillFraction(), 1.0 / 1000.0);
}

TEST(BloomFilterTest, CompatibilityIsSharedFamilyIdentity) {
  auto family = Family();
  BloomFilter a(family);
  BloomFilter b(family);
  EXPECT_TRUE(a.CompatibleWith(b));
  // Same parameters but a different family object: NOT compatible (the
  // coefficients differ even if (m, k, seed) printed the same).
  BloomFilter c(Family());
  EXPECT_FALSE(a.CompatibleWith(c));
}

TEST(BloomFilterTest, CopySemantics) {
  auto family = Family();
  BloomFilter a(family);
  a.Insert(77);
  BloomFilter copy = a;
  copy.Insert(88);
  EXPECT_TRUE(copy.Contains(77));
  EXPECT_TRUE(a.Contains(77));
  EXPECT_FALSE(a.Contains(88) && a.SetBitCount() == copy.SetBitCount());
}

TEST(BloomFilterTest, WorksWithAllFamilies) {
  for (HashFamilyKind kind : {HashFamilyKind::kSimple,
                              HashFamilyKind::kMurmur3, HashFamilyKind::kMd5}) {
    auto family = MakeHashFamily(kind, 3, 5000, 42, 100000).value();
    BloomFilter filter(family);
    for (uint64_t x = 0; x < 100; ++x) filter.Insert(x * 31);
    for (uint64_t x = 0; x < 100; ++x) {
      EXPECT_TRUE(filter.Contains(x * 31)) << HashFamilyKindName(kind);
    }
  }
}

TEST(BloomFilterTest, InsertBatchMatchesInsertLoop) {
  for (HashFamilyKind kind : {HashFamilyKind::kSimple,
                              HashFamilyKind::kMurmur3, HashFamilyKind::kMd5}) {
    auto family = MakeHashFamily(kind, 3, 5000, 42, 100000).value();
    std::vector<uint64_t> keys;
    for (uint64_t j = 0; j < 700; ++j) keys.push_back(j * 13 + 5);

    BloomFilter loop(family);
    for (uint64_t key : keys) loop.Insert(key);
    BloomFilter batch(family);
    batch.InsertBatch(keys);
    EXPECT_EQ(loop.bits(), batch.bits()) << HashFamilyKindName(kind);
  }
}

TEST(BloomFilterTest, InsertRangeMatchesInsertLoop) {
  auto family = MakeHashFamily(HashFamilyKind::kSimple, 3, 5000, 42,
                               100000).value();
  BloomFilter loop(family);
  for (uint64_t x = 100; x < 800; ++x) loop.Insert(x);
  BloomFilter ranged(family);
  ranged.InsertRange(100, 800);
  EXPECT_EQ(loop.bits(), ranged.bits());

  BloomFilter empty(family);
  empty.InsertRange(50, 50);  // empty range is a no-op
  EXPECT_TRUE(empty.IsEmpty());
}

TEST(BloomFilterTest, FilterContainedMatchesContains) {
  auto family = MakeHashFamily(HashFamilyKind::kMurmur3, 3, 4096, 1).value();
  BloomFilter filter(family);
  for (uint64_t x = 0; x < 300; ++x) filter.Insert(x * 7);

  std::vector<uint64_t> candidates;
  for (uint64_t x = 0; x < 2100; ++x) candidates.push_back(x);
  std::vector<uint64_t> batched;
  filter.FilterContained(candidates.data(), candidates.size(), &batched);

  std::vector<uint64_t> scalar;
  for (uint64_t x : candidates) {
    if (filter.Contains(x)) scalar.push_back(x);
  }
  EXPECT_EQ(batched, scalar);
}

TEST(BloomFilterTest, InsertKeepsSetBitCountExact) {
  // Insert carries a known set-bit count forward by the bits it newly
  // sets (test-and-set), so the memo must equal a fresh popcount after
  // every insert. m = 7 with k = 3 makes positions collide both within
  // one key and across keys, and keys drawn from a small pool repeat.
  for (HashFamilyKind kind : {HashFamilyKind::kSimple,
                              HashFamilyKind::kMurmur3, HashFamilyKind::kMd5}) {
    for (uint64_t m : {uint64_t{7}, uint64_t{64}, uint64_t{1000}}) {
      auto family = MakeHashFamily(kind, 3, m, 42, 1000).value();
      for (uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed);
        // Known from birth: a new filter's zeroed payload counts 0.
        BloomFilter known(family);
        // Unknown from birth: an adopted, already-filled payload.
        BitVector filled(m);
        filled.Set(static_cast<size_t>(rng.Below(m)));
        filled.Set(static_cast<size_t>(rng.Below(m)));
        BloomFilter adopted(family, std::move(filled));
        for (int i = 0; i < 300; ++i) {
          const uint64_t key = rng.Below(40);
          known.Insert(key);
          adopted.Insert(key);
          ASSERT_EQ(known.SetBitCount(), known.bits().Popcount())
              << HashFamilyKindName(kind) << " m=" << m << " seed=" << seed
              << " i=" << i;
          ASSERT_EQ(adopted.SetBitCount(), adopted.bits().Popcount())
              << HashFamilyKindName(kind) << " m=" << m << " seed=" << seed
              << " i=" << i;
          // Drop the adopted filter's memo now and then, so later inserts
          // run with it unknown again (and must leave it unknown).
          if (i % 5 == 0) (void)adopted.mutable_bits();
        }
      }
    }
  }
}

TEST(BloomFilterTest, InsertHashesMatchesInsert) {
  auto family = Family(5000, 4);
  BloomFilter by_key(family);
  BloomFilter by_positions(family);
  uint64_t positions[BloomFilter::kMaxK];
  for (uint64_t key = 0; key < 400; key += 3) {
    by_key.Insert(key);
    family->HashAll(key, positions);
    by_positions.InsertHashes(positions);
  }
  EXPECT_EQ(by_key.bits(), by_positions.bits());
  EXPECT_EQ(by_positions.SetBitCount(), by_positions.bits().Popcount());
}

TEST(BloomFilterDeathTest, IncompatibleOperationsAbort) {
  BloomFilter a(Family());
  BloomFilter b(Family(20000));
  EXPECT_DEATH(a.UnionWith(b), "incompatible");
  EXPECT_DEATH(a.IntersectWith(b), "incompatible");
  EXPECT_DEATH((void)a.AndPopcount(b), "incompatible");
}

}  // namespace
}  // namespace bloomsample
