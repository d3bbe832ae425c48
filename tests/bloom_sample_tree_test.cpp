#include "src/core/bloom_sample_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/core/bst_sampler.h"
#include "src/core/tree_io.h"
#include "src/core/wal.h"
#include "src/workload/set_generators.h"

namespace bloomsample {
namespace {

TreeConfig SmallConfig(uint64_t M = 1024, uint64_t m = 4096,
                       uint32_t depth = 4) {
  TreeConfig config;
  config.namespace_size = M;
  config.m = m;
  config.k = 3;
  config.hash_kind = HashFamilyKind::kSimple;
  config.seed = 42;
  config.depth = depth;
  return config;
}

TEST(BloomSampleTreeTest, CompleteTreeHasFullGeometry) {
  const auto tree = BloomSampleTree::BuildComplete(SmallConfig()).value();
  EXPECT_EQ(tree.node_count(), 31u);  // 2^5 − 1
  EXPECT_FALSE(tree.pruned());
  const auto& root = tree.node(tree.root());
  EXPECT_EQ(root.lo, 0u);
  EXPECT_EQ(root.hi, 1024u);
  EXPECT_EQ(root.level, 0u);
}

TEST(BloomSampleTreeTest, ChildRangesPartitionParent) {
  const auto tree = BloomSampleTree::BuildComplete(SmallConfig()).value();
  std::function<void(int64_t)> check = [&](int64_t id) {
    const auto& node = tree.node(id);
    if (tree.IsLeaf(id)) return;
    const auto& left = tree.node(node.left);
    const auto& right = tree.node(node.right);
    EXPECT_EQ(left.lo, node.lo);
    EXPECT_EQ(left.hi, right.lo);
    EXPECT_EQ(right.hi, node.hi);
    check(node.left);
    check(node.right);
  };
  check(tree.root());
}

TEST(BloomSampleTreeTest, EveryNodeContainsItsRange) {
  const auto tree =
      BloomSampleTree::BuildComplete(SmallConfig(256, 8192, 3)).value();
  for (size_t id = 0; id < tree.node_count(); ++id) {
    const auto& node = tree.node(static_cast<int64_t>(id));
    for (uint64_t x = node.lo; x < node.hi; ++x) {
      EXPECT_TRUE(node.filter.Contains(x))
          << "node " << id << " missing " << x;
    }
  }
}

TEST(BloomSampleTreeTest, ParentFilterIsUnionOfChildren) {
  const auto tree = BloomSampleTree::BuildComplete(SmallConfig()).value();
  for (size_t id = 0; id < tree.node_count(); ++id) {
    if (tree.IsLeaf(static_cast<int64_t>(id))) continue;
    const auto& node = tree.node(static_cast<int64_t>(id));
    BloomFilter expected = tree.node(node.left).filter;
    expected.UnionWith(tree.node(node.right).filter);
    EXPECT_EQ(node.filter, expected) << "node " << id;
  }
}

TEST(BloomSampleTreeTest, NonPowerOfTwoNamespaceClipsRightEdge) {
  // M = 1000 with depth 4: leaf width ceil(1000/16) = 63, padded span
  // 1008 — the last leaves must clip to 1000 and stay consistent.
  const auto tree =
      BloomSampleTree::BuildComplete(SmallConfig(1000, 4096, 4)).value();
  uint64_t covered = 0;
  for (size_t id = 0; id < tree.node_count(); ++id) {
    const auto& node = tree.node(static_cast<int64_t>(id));
    EXPECT_LE(node.hi, 1000u);
    EXPECT_LE(node.lo, node.hi);
    if (tree.IsLeaf(static_cast<int64_t>(id))) covered += node.hi - node.lo;
  }
  EXPECT_EQ(covered, 1000u);
}

TEST(BloomSampleTreeTest, CachedSetBitsMatchFilters) {
  const auto tree = BloomSampleTree::BuildComplete(SmallConfig()).value();
  for (size_t id = 0; id < tree.node_count(); ++id) {
    const auto& node = tree.node(static_cast<int64_t>(id));
    EXPECT_EQ(node.set_bits, node.filter.bits().Popcount()) << id;
  }
}

TEST(BloomSampleTreeTest, LeafCandidateIterationCompleteTree) {
  const auto tree = BloomSampleTree::BuildComplete(SmallConfig()).value();
  // Find the leaf holding 100 and iterate its candidates.
  int64_t id = tree.root();
  while (!tree.IsLeaf(id)) {
    const auto& node = tree.node(id);
    id = 100 < tree.node(node.left).hi ? node.left : node.right;
  }
  std::vector<uint64_t> candidates;
  tree.ForEachLeafCandidate(id, [&](uint64_t x) { candidates.push_back(x); });
  const auto& leaf = tree.node(id);
  EXPECT_EQ(candidates.size(), leaf.hi - leaf.lo);
  EXPECT_EQ(candidates.front(), leaf.lo);
  EXPECT_EQ(candidates.back(), leaf.hi - 1);
  EXPECT_EQ(tree.LeafCandidateCount(id), leaf.hi - leaf.lo);
}

TEST(BloomSampleTreeTest, PrunedTreeOnlyCreatesOccupiedSubtrees) {
  // Occupy only the first sixteenth of the namespace: the pruned tree must
  // be a path plus one small subtree, far fewer nodes than the complete 31.
  std::vector<uint64_t> occupied;
  for (uint64_t x = 0; x < 64; ++x) occupied.push_back(x);
  const auto tree =
      BloomSampleTree::BuildPruned(SmallConfig(), occupied).value();
  EXPECT_TRUE(tree.pruned());
  EXPECT_LT(tree.node_count(), 10u);
  EXPECT_EQ(tree.occupied().size(), 64u);
}

TEST(BloomSampleTreeTest, PrunedNodesStoreOnlyOccupiedElements) {
  Rng rng(1);
  const auto occupied = GenerateUniformSet(1024, 100, &rng).value();
  const auto tree =
      BloomSampleTree::BuildPruned(SmallConfig(), occupied).value();
  // Root filter contains every occupied id, and set-bit counts match a
  // filter of just those ids.
  const auto& root = tree.node(tree.root());
  for (uint64_t x : occupied) EXPECT_TRUE(root.filter.Contains(x));
  const BloomFilter direct = tree.MakeQueryFilter(occupied);
  EXPECT_EQ(root.filter, direct);
}

TEST(BloomSampleTreeTest, PrunedLeafCandidatesAreOccupiedOnly) {
  Rng rng(2);
  const auto occupied = GenerateUniformSet(1024, 50, &rng).value();
  const auto tree =
      BloomSampleTree::BuildPruned(SmallConfig(), occupied).value();
  uint64_t total = 0;
  for (size_t id = 0; id < tree.node_count(); ++id) {
    if (!tree.IsLeaf(static_cast<int64_t>(id))) continue;
    tree.ForEachLeafCandidate(static_cast<int64_t>(id), [&](uint64_t x) {
      EXPECT_TRUE(std::binary_search(occupied.begin(), occupied.end(), x));
      ++total;
    });
  }
  EXPECT_EQ(total, occupied.size());
}

TEST(BloomSampleTreeTest, PrunedBuildValidatesInput) {
  EXPECT_FALSE(
      BloomSampleTree::BuildPruned(SmallConfig(), {5, 3}).ok());  // unsorted
  EXPECT_FALSE(
      BloomSampleTree::BuildPruned(SmallConfig(), {3, 3}).ok());  // dupes
  EXPECT_FALSE(
      BloomSampleTree::BuildPruned(SmallConfig(), {1024}).ok());  // range
  EXPECT_TRUE(BloomSampleTree::BuildPruned(SmallConfig(), {}).ok());
}

TEST(BloomSampleTreeTest, DynamicInsertGrowsThePrunedTree) {
  auto tree = BloomSampleTree::BuildPruned(SmallConfig(), {10}).value();
  const size_t before = tree.node_count();
  // Insert an id in a far-away range: new nodes must appear.
  ASSERT_TRUE(tree.Insert(1000).ok());
  EXPECT_GT(tree.node_count(), before);
  EXPECT_EQ(tree.occupied().size(), 2u);
  // Both ids are now in the root filter and in cached counts.
  const auto& root = tree.node(tree.root());
  EXPECT_TRUE(root.filter.Contains(10));
  EXPECT_TRUE(root.filter.Contains(1000));
  EXPECT_EQ(root.set_bits, root.filter.bits().Popcount());
}

TEST(BloomSampleTreeTest, DynamicInsertIsIdempotent) {
  auto tree = BloomSampleTree::BuildPruned(SmallConfig(), {10}).value();
  const size_t nodes = tree.node_count();
  ASSERT_TRUE(tree.Insert(10).ok());
  EXPECT_EQ(tree.node_count(), nodes);
  EXPECT_EQ(tree.occupied().size(), 1u);
}

TEST(BloomSampleTreeTest, DynamicInsertMatchesBatchBuild) {
  // Insert-one-by-one must converge to the same filters as a batch build.
  Rng rng(3);
  auto ids = GenerateUniformSet(1024, 40, &rng).value();
  auto incremental = BloomSampleTree::BuildPruned(SmallConfig(), {}).value();
  for (uint64_t x : ids) ASSERT_TRUE(incremental.Insert(x).ok());
  const auto batch = BloomSampleTree::BuildPruned(SmallConfig(), ids).value();

  EXPECT_EQ(incremental.occupied(), batch.occupied());
  EXPECT_EQ(incremental.node_count(), batch.node_count());
  // Compare root filter CONTENTS: the two trees own distinct (but
  // identically seeded) hash family objects, so compare bit vectors, not
  // whole filters (filter equality includes family identity).
  EXPECT_EQ(incremental.node(incremental.root()).filter.bits(),
            batch.node(batch.root()).filter.bits());
}

/// Every node's cached count against a fresh popcount of its payload.
void ExpectExactCounts(const BloomSampleTree& tree, const char* where,
                       uint64_t step) {
  for (size_t id = 0; id < tree.node_count(); ++id) {
    const auto& node = tree.node(static_cast<int64_t>(id));
    const uint64_t fresh = node.filter.bits().Popcount();
    ASSERT_EQ(node.set_bits, fresh)
        << where << " step=" << step << " node=" << id;
    ASSERT_EQ(node.filter.SetBitCount(), fresh)
        << where << " step=" << step << " node=" << id;
  }
}

/// 64 seeded draws for a query over `ids`, built with the tree's family.
std::vector<std::optional<uint64_t>> Draws(const BloomSampleTree& tree,
                                           const std::vector<uint64_t>& ids) {
  return BstSampler(&tree).SampleBatch(tree.MakeQueryFilter(ids), 64, 17);
}

TEST(BloomSampleTreeTest, InsertKeepsCountsExactOnEveryLoadPath) {
  // Insert moves each path node's count by the bits x newly sets instead
  // of re-popcounting, so the counts a tree starts from — builder-made
  // (heap load recounts), loader-seeded (mmap v2), or rebuilt by WAL
  // replay — must stay exact through any insert sequence, and the result
  // must draw exactly like a fresh BuildPruned of the same occupied set.
  // m = 300 over 4096 ids crowds the upper filters so bits collide; the
  // base set lives in [0, 2048), so inserts above it create nodes.
  const TreeConfig config = SmallConfig(4096, 300, 5);
  const std::string path = ::testing::TempDir() + "/exact_counts.bst";
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    std::remove(path.c_str());
    std::remove(WalPathFor(path).c_str());
    Rng rng(seed);
    std::vector<uint64_t> base = GenerateUniformSet(2048, 60, &rng).value();
    std::vector<uint64_t> inserts;
    for (int i = 0; i < 80; ++i) inserts.push_back(rng.Below(4096));
    inserts.push_back(base.front());    // already occupied: a no-op
    inserts.push_back(inserts.front());  // repeated within the stream
    std::vector<uint64_t> final_set = base;
    final_set.insert(final_set.end(), inserts.begin(), inserts.end());
    std::sort(final_set.begin(), final_set.end());
    final_set.erase(std::unique(final_set.begin(), final_set.end()),
                    final_set.end());

    const auto built = BloomSampleTree::BuildPruned(config, base).value();
    ASSERT_TRUE(SaveTreeToFile(built, path).ok());
    const auto rebuilt = BloomSampleTree::BuildPruned(config, final_set);
    ASSERT_TRUE(rebuilt.ok());
    const auto want = Draws(rebuilt.value(), final_set);
    ASSERT_TRUE(std::any_of(want.begin(), want.end(),
                            [](const auto& d) { return d.has_value(); }));

    for (const LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
      const char* where = mode == LoadMode::kHeap ? "heap" : "mmap";
      LoadOptions load;
      load.mode = mode;
      load.replay_wal = false;
      auto loaded = LoadTreeFromFile(path, load);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      BloomSampleTree tree = std::move(loaded).value();
      const size_t nodes_before = tree.node_count();
      for (size_t i = 0; i < inserts.size(); ++i) {
        ASSERT_TRUE(tree.Insert(inserts[i]).ok());
        ExpectExactCounts(tree, where, i);
      }
      EXPECT_GT(tree.node_count(), nodes_before) << where;
      EXPECT_EQ(tree.occupied(), final_set) << where;
      EXPECT_EQ(Draws(tree, final_set), want) << where << " seed=" << seed;
    }

    // Log the same inserts, then rebuild the tree by WAL replay on both
    // load paths.
    {
      LoadOptions load;
      load.mode = LoadMode::kHeap;
      TreeLoadInfo info;
      auto loaded = LoadTreeFromFile(path, load, &info);
      ASSERT_TRUE(loaded.ok());
      BloomSampleTree tree = std::move(loaded).value();
      ASSERT_TRUE(AttachTreeWal(&tree, path, WalOptions(), &info).ok());
      for (uint64_t x : inserts) ASSERT_TRUE(tree.Insert(x).ok());
    }
    for (const LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
      const char* where = mode == LoadMode::kHeap ? "replay-heap"
                                                  : "replay-mmap";
      LoadOptions load;
      load.mode = mode;
      TreeLoadInfo info;
      auto replayed = LoadTreeFromFile(path, load, &info);
      ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
      EXPECT_GT(info.wal_records_replayed, 0u) << where;
      ExpectExactCounts(replayed.value(), where, 0);
      EXPECT_EQ(replayed.value().occupied(), final_set) << where;
      EXPECT_EQ(Draws(replayed.value(), final_set), want)
          << where << " seed=" << seed;
    }
  }
  std::remove(path.c_str());
  std::remove(WalPathFor(path).c_str());
}

TEST(BloomSampleTreeTest, InsertValidation) {
  auto complete = BloomSampleTree::BuildComplete(SmallConfig()).value();
  EXPECT_EQ(complete.Insert(5).code(), Status::Code::kUnsupported);
  auto pruned = BloomSampleTree::BuildPruned(SmallConfig(), {}).value();
  EXPECT_EQ(pruned.Insert(4096).code(), Status::Code::kOutOfRange);
}

TEST(BloomSampleTreeTest, MemoryBytesCountsAllNodePayloads) {
  const auto tree = BloomSampleTree::BuildComplete(SmallConfig()).value();
  EXPECT_EQ(tree.MemoryBytes(), tree.node_count() * ((4096 + 63) / 64) * 8);
}

TEST(BloomSampleTreeTest, DepthZeroTreeIsSingleLeaf) {
  const auto tree =
      BloomSampleTree::BuildComplete(SmallConfig(100, 512, 0)).value();
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_TRUE(tree.IsLeaf(tree.root()));
}

}  // namespace
}  // namespace bloomsample
