#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "src/bloom/bloom_io.h"
#include "src/core/bst_reconstructor.h"
#include "src/core/bst_sampler.h"
#include "src/core/tree_io.h"
#include "src/util/serialize.h"
#include "src/workload/set_generators.h"

namespace bloomsample {
namespace {

TEST(BinaryIoTest, PrimitivesRoundTrip) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteU32(0xdeadbeefu);
  writer.WriteU64(0x0123456789abcdefULL);
  writer.WriteI64(-42);
  writer.WriteDouble(3.14159);
  writer.WriteU64Vector({1, 2, 3});
  ASSERT_TRUE(writer.ok());

  BinaryReader reader(&stream);
  EXPECT_EQ(reader.ReadU32().value(), 0xdeadbeefu);
  EXPECT_EQ(reader.ReadU64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(reader.ReadI64().value(), -42);
  EXPECT_DOUBLE_EQ(reader.ReadDouble().value(), 3.14159);
  EXPECT_EQ(reader.ReadU64Vector(10).value(),
            (std::vector<uint64_t>{1, 2, 3}));
}

TEST(BinaryIoTest, TruncationIsDetected) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteU32(7);
  BinaryReader reader(&stream);
  ASSERT_TRUE(reader.ReadU32().ok());
  EXPECT_FALSE(reader.ReadU64().ok());
}

TEST(BinaryIoTest, VectorSanityBound) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteU64Vector({1, 2, 3, 4, 5});
  BinaryReader reader(&stream);
  EXPECT_EQ(reader.ReadU64Vector(4).status().code(),
            Status::Code::kOutOfRange);
}

TEST(BloomIoTest, FilterRoundTrips) {
  auto family =
      MakeHashFamily(HashFamilyKind::kSimple, 3, 9000, 42, 100000).value();
  BloomFilter filter(family);
  Rng rng(1);
  for (int i = 0; i < 400; ++i) filter.Insert(rng.Below(100000));

  std::stringstream stream;
  ASSERT_TRUE(SerializeBloomFilter(filter, &stream).ok());
  const auto loaded = DeserializeBloomFilter(&stream, family);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), filter);
}

TEST(BloomIoTest, FingerprintMismatchRejected) {
  auto family =
      MakeHashFamily(HashFamilyKind::kSimple, 3, 9000, 42, 100000).value();
  BloomFilter filter(family);
  filter.Insert(5);
  std::stringstream stream;
  ASSERT_TRUE(SerializeBloomFilter(filter, &stream).ok());

  // Wrong m.
  auto other_m =
      MakeHashFamily(HashFamilyKind::kSimple, 3, 9001, 42, 100000).value();
  EXPECT_FALSE(DeserializeBloomFilter(&stream, other_m).ok());

  // Wrong seed.
  stream.clear();
  stream.seekg(0);
  auto other_seed =
      MakeHashFamily(HashFamilyKind::kSimple, 3, 9000, 43, 100000).value();
  EXPECT_FALSE(DeserializeBloomFilter(&stream, other_seed).ok());

  // Wrong family kind.
  stream.clear();
  stream.seekg(0);
  auto other_kind =
      MakeHashFamily(HashFamilyKind::kMurmur3, 3, 9000, 42, 100000).value();
  EXPECT_FALSE(DeserializeBloomFilter(&stream, other_kind).ok());
}

TEST(BloomIoTest, GarbageStreamRejected) {
  std::stringstream stream("this is not a filter");
  auto family =
      MakeHashFamily(HashFamilyKind::kSimple, 3, 9000, 42, 100000).value();
  EXPECT_FALSE(DeserializeBloomFilter(&stream, family).ok());
}

// --- the in-place span decoder against the stream decoder ---------------

std::vector<uint8_t> EncodeFilter(const BloomFilter& filter) {
  std::ostringstream out;
  EXPECT_TRUE(SerializeBloomFilter(filter, &out).ok());
  const std::string bytes = out.str();
  return std::vector<uint8_t>(bytes.begin(), bytes.end());
}

Result<BloomFilter> StreamDecode(const std::vector<uint8_t>& bytes,
                                 std::shared_ptr<const HashFamily> family) {
  std::istringstream in(std::string(bytes.begin(), bytes.end()));
  return DeserializeBloomFilter(&in, std::move(family));
}

Result<BloomFilter> SpanDecode(const std::vector<uint8_t>& bytes,
                               std::shared_ptr<const HashFamily> family) {
  return DecodeBloomFilter(bytes.data(), bytes.size(), std::move(family));
}

/// Offsets in the encoding (bloom_io.h).
constexpr size_t kWordCountOffset = 40;
constexpr size_t kWordsOffset = 48;

void PutLe64(uint64_t v, uint8_t* p) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

TEST(BloomIoTest, SpanAndStreamDecodeAgreeWithTheOriginal) {
  // m = 1000 leaves 40 bits in the last word (the trailing-bit mask);
  // m = 1e6 is a multiple of 64.
  for (const uint64_t m : {uint64_t{1000}, uint64_t{1000000}}) {
    auto family =
        MakeHashFamily(HashFamilyKind::kSimple, 3, m, 42, 1000000).value();
    BloomFilter filter(family);
    Rng rng(m);
    for (int i = 0; i < 300; ++i) filter.Insert(rng.Below(1000000));
    const std::vector<uint8_t> bytes = EncodeFilter(filter);

    auto span = SpanDecode(bytes, family);
    auto stream = StreamDecode(bytes, family);
    ASSERT_TRUE(span.ok()) << span.status().ToString();
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    EXPECT_EQ(span.value(), filter) << "m=" << m;
    EXPECT_EQ(stream.value(), filter) << "m=" << m;
    EXPECT_EQ(span.value().SetBitCount(), filter.bits().Popcount());
    EXPECT_EQ(stream.value().SetBitCount(), filter.bits().Popcount());

    // The span may sit at any alignment inside a frame.
    std::vector<uint8_t> shifted(bytes.size() + 1);
    std::copy(bytes.begin(), bytes.end(), shifted.begin() + 1);
    auto unaligned =
        DecodeBloomFilter(shifted.data() + 1, bytes.size(), family);
    ASSERT_TRUE(unaligned.ok()) << unaligned.status().ToString();
    EXPECT_EQ(unaligned.value(), filter);

    // Bytes past the words are left unread by both decoders.
    std::vector<uint8_t> padded = bytes;
    padded.push_back(0xAB);
    EXPECT_TRUE(SpanDecode(padded, family).ok());
    EXPECT_TRUE(StreamDecode(padded, family).ok());
  }
}

TEST(BloomIoTest, EachRejectionKeepsItsStatusCode) {
  const uint64_t m = 1000;  // 16 words, the last one 40 bits wide
  auto family =
      MakeHashFamily(HashFamilyKind::kSimple, 3, m, 42, 100000).value();
  BloomFilter filter(family);
  for (uint64_t x = 0; x < 100000; x += 997) filter.Insert(x);
  const std::vector<uint8_t> good = EncodeFilter(filter);
  const uint64_t words = (m + 63) / 64;
  ASSERT_EQ(good.size(), kWordsOffset + 8 * words);

  struct Case {
    const char* name;
    std::vector<uint8_t> bytes;
    std::shared_ptr<const HashFamily> family;
    Status::Code code;
  };
  std::vector<Case> cases;
  cases.push_back({"truncated header",
                   std::vector<uint8_t>(good.begin(), good.begin() + 20),
                   family, Status::Code::kOutOfRange});
  cases.push_back({"truncated payload",
                   std::vector<uint8_t>(good.begin(), good.end() - 1), family,
                   Status::Code::kOutOfRange});
  {
    std::vector<uint8_t> b = good;
    b[0] = 'X';
    cases.push_back({"bad tag", b, family, Status::Code::kInvalidArgument});
  }
  {
    std::vector<uint8_t> b = good;
    b[4] = 2;
    cases.push_back({"bad version", b, family, Status::Code::kUnsupported});
  }
  cases.push_back(
      {"fingerprint mismatch", good,
       MakeHashFamily(HashFamilyKind::kSimple, 3, m, 43, 100000).value(),
       Status::Code::kInvalidArgument});
  {
    std::vector<uint8_t> b = good;
    PutLe64(words + 1, b.data() + kWordCountOffset);
    b.resize(b.size() + 8);
    cases.push_back(
        {"word count over bound", b, family, Status::Code::kOutOfRange});
  }
  {
    std::vector<uint8_t> b = good;
    PutLe64(words - 1, b.data() + kWordCountOffset);
    cases.push_back(
        {"word count under bound", b, family, Status::Code::kInvalidArgument});
  }
  {
    std::vector<uint8_t> b = good;
    b[kWordsOffset + 8 * (words - 1) + 5] |= 0x01;  // bit 1000 = bit 40 of word 15
    cases.push_back(
        {"stray trailing bit", b, family, Status::Code::kInvalidArgument});
  }

  for (const Case& c : cases) {
    auto span = SpanDecode(c.bytes, c.family);
    auto stream = StreamDecode(c.bytes, c.family);
    ASSERT_FALSE(span.ok()) << c.name;
    ASSERT_FALSE(stream.ok()) << c.name;
    EXPECT_EQ(span.status().code(), c.code)
        << c.name << ": " << span.status().ToString();
    EXPECT_EQ(stream.status().code(), c.code)
        << c.name << ": " << stream.status().ToString();
    EXPECT_EQ(span.status().message(), stream.status().message()) << c.name;
  }
}

TEST(BloomIoTest, MutatedEncodingsGetTheSameVerdictFromBothDecoders) {
  constexpr uint64_t kSeed = 20261019;
  constexpr int kIterations = 4000;
  auto family =
      MakeHashFamily(HashFamilyKind::kSimple, 3, 1000, 42, 100000).value();
  BloomFilter filter(family);
  for (uint64_t x = 3; x < 100000; x += 1231) filter.Insert(x);
  const std::vector<uint8_t> good = EncodeFilter(filter);

  Rng rng(kSeed);
  size_t accepted = 0;
  for (int it = 0; it < kIterations; ++it) {
    std::vector<uint8_t> bytes = good;
    // Half the flips land in the header and first words, where most of
    // the checks live.
    const int flips = 1 + static_cast<int>(rng.Below(3));
    for (int f = 0; f < flips; ++f) {
      const size_t span = rng.Bernoulli(0.5) ? 64 : bytes.size();
      const size_t at = static_cast<size_t>(rng.Below(span));
      bytes[at] ^= static_cast<uint8_t>(1 + rng.Below(255));
    }
    if (rng.Bernoulli(0.3)) {
      bytes.resize(static_cast<size_t>(rng.Below(bytes.size() + 1)));
    }
    if (rng.Bernoulli(0.1)) bytes = good;  // keep some inputs valid

    auto span = SpanDecode(bytes, family);
    auto stream = StreamDecode(bytes, family);
    ASSERT_EQ(span.ok(), stream.ok())
        << "seed " << kSeed << " iteration " << it << ": span "
        << (span.ok() ? "OK" : span.status().ToString()) << ", stream "
        << (stream.ok() ? "OK" : stream.status().ToString());
    if (span.ok()) {
      ++accepted;
      ASSERT_EQ(span.value(), stream.value())
          << "seed " << kSeed << " iteration " << it;
    } else {
      ASSERT_EQ(span.status().code(), stream.status().code())
          << "seed " << kSeed << " iteration " << it;
      ASSERT_EQ(span.status().message(), stream.status().message())
          << "seed " << kSeed << " iteration " << it;
    }
  }
  // Both sides of the verdict were exercised.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, static_cast<size_t>(kIterations));
}

TreeConfig IoConfig(uint64_t M = 4096, uint64_t m = 6000, uint32_t depth = 4) {
  TreeConfig config;
  config.namespace_size = M;
  config.m = m;
  config.k = 3;
  config.hash_kind = HashFamilyKind::kSimple;
  config.seed = 42;
  config.depth = depth;
  return config;
}

TEST(TreeIoTest, CompleteTreeRoundTrips) {
  const auto tree = BloomSampleTree::BuildComplete(IoConfig()).value();
  std::stringstream stream;
  ASSERT_TRUE(SerializeTree(tree, &stream).ok());
  const auto loaded = DeserializeTree(&stream);
  ASSERT_TRUE(loaded.ok());

  EXPECT_EQ(loaded.value().node_count(), tree.node_count());
  EXPECT_EQ(loaded.value().pruned(), tree.pruned());
  EXPECT_EQ(loaded.value().config().m, tree.config().m);
  for (size_t id = 0; id < tree.node_count(); ++id) {
    const auto& a = tree.node(static_cast<int64_t>(id));
    const auto& b = loaded.value().node(static_cast<int64_t>(id));
    EXPECT_EQ(a.lo, b.lo);
    EXPECT_EQ(a.hi, b.hi);
    EXPECT_EQ(a.level, b.level);
    EXPECT_EQ(a.left, b.left);
    EXPECT_EQ(a.right, b.right);
    EXPECT_EQ(a.set_bits, b.set_bits);
    EXPECT_EQ(a.filter.bits(), b.filter.bits());
  }
}

TEST(TreeIoTest, PrunedTreeRoundTripsWithOccupancy) {
  Rng rng(2);
  const auto occupied = GenerateUniformSet(4096, 150, &rng).value();
  const auto tree = BloomSampleTree::BuildPruned(IoConfig(), occupied).value();
  std::stringstream stream;
  ASSERT_TRUE(SerializeTree(tree, &stream).ok());
  auto loaded = DeserializeTree(&stream);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().pruned());
  EXPECT_EQ(loaded.value().occupied(), occupied);
  // The loaded tree remains dynamic.
  EXPECT_TRUE(loaded.value().Insert(occupied.back() - 1).ok() ||
              true /* id may already be occupied */);
}

TEST(TreeIoTest, LoadedTreeAnswersIdenticallyToOriginal) {
  const auto tree = BloomSampleTree::BuildComplete(IoConfig()).value();
  std::stringstream stream;
  ASSERT_TRUE(SerializeTree(tree, &stream).ok());
  const auto loaded = DeserializeTree(&stream);
  ASSERT_TRUE(loaded.ok());

  Rng rng(3);
  const auto members = GenerateUniformSet(4096, 60, &rng).value();
  const BloomFilter query_original = tree.MakeQueryFilter(members);
  const BloomFilter query_loaded = loaded.value().MakeQueryFilter(members);

  BstReconstructor original(&tree);
  BstReconstructor reloaded(&loaded.value());
  EXPECT_EQ(original.Reconstruct(query_original, nullptr,
                                 BstReconstructor::PruningMode::kExact),
            reloaded.Reconstruct(query_loaded, nullptr,
                                 BstReconstructor::PruningMode::kExact));
}

TEST(TreeIoTest, FilterSavedAgainstTreeFamilyReloads) {
  const auto tree = BloomSampleTree::BuildComplete(IoConfig()).value();
  const BloomFilter query = tree.MakeQueryFilter({1, 2, 3});
  std::stringstream stream;
  ASSERT_TRUE(SerializeBloomFilter(query, &stream).ok());
  const auto loaded = DeserializeBloomFilter(&stream, tree.family_ptr());
  ASSERT_TRUE(loaded.ok());
  // The loaded filter is a first-class query filter for the tree.
  BstSampler sampler(&tree);
  Rng rng(4);
  const auto sample = sampler.Sample(loaded.value(), &rng);
  ASSERT_TRUE(sample.has_value());
  EXPECT_TRUE(query.Contains(*sample));
}

TEST(TreeIoTest, FileRoundTrip) {
  const auto tree = BloomSampleTree::BuildComplete(IoConfig()).value();
  const std::string path = ::testing::TempDir() + "/bsr_tree_io_test.bst";
  ASSERT_TRUE(SaveTreeToFile(tree, path).ok());
  const auto loaded = LoadTreeFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().node_count(), tree.node_count());
  std::remove(path.c_str());
  EXPECT_FALSE(LoadTreeFromFile(path).ok());
}

TEST(TreeIoTest, CorruptStreamsRejected) {
  std::stringstream garbage("BSTRgarbagegarbagegarbage");
  EXPECT_FALSE(DeserializeTree(&garbage).ok());
  std::stringstream wrong_tag("XXXX");
  EXPECT_FALSE(DeserializeTree(&wrong_tag).ok());
  std::stringstream empty;
  EXPECT_FALSE(DeserializeTree(&empty).ok());
}

TEST(TreeIoTest, TruncatedTreeRejected) {
  const auto tree = BloomSampleTree::BuildComplete(IoConfig()).value();
  std::stringstream stream;
  ASSERT_TRUE(SerializeTree(tree, &stream).ok());
  const std::string full = stream.str();
  // Chop at several points: every prefix must be cleanly rejected.
  for (size_t cut : {size_t{5}, size_t{20}, size_t{60}, full.size() / 2,
                     full.size() - 3}) {
    std::stringstream truncated(full.substr(0, cut));
    EXPECT_FALSE(DeserializeTree(&truncated).ok()) << "cut=" << cut;
  }
}

}  // namespace
}  // namespace bloomsample
