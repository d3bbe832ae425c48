// Fences for the bsrd serving daemon (server/server.h), driven through
// real sockets against an in-process server:
//   * PING answers, STATS surfaces the observability keys;
//   * SAMPLE responses are bit-identical to the local batched engine on
//     the same tree/filter/seed — serving (and cross-client coalescing)
//     is invisible in the draws;
//   * RECONSTRUCT equals the local reconstructor; INSERT is durable and
//     immediately visible to subsequent queries; a whole INSERT frame is
//     one commit group and one fsync, and an id the daemon refuses ends
//     the frame after the applied prefix ("applied N/M");
//   * the degradation ladder fires on demand: expired deadlines answer
//     DEADLINE_EXCEEDED, a full admission queue sheds OVERLOADED (and
//     the retry-after hint reaches the client), a quarantined lane
//     refuses mutations with QUARANTINED while reads keep serving;
//   * a digest-tampered frame is answered INVALID and the connection
//     dropped (the stream position can no longer be trusted);
//   * idle connections and slow-loris partial frames are closed on their
//     timeouts;
//   * graceful drain answers in-flight requests before stopping;
//   * unpooled reads beside a stream of inserts never wedge the daemon,
//     and a pooled context is rebuilt once an insert grows the tree;
//   * a request whose filter the decoder rejects is answered with the
//     decoder's status on the same, still-usable connection.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "src/core/bst_reconstructor.h"
#include "src/core/bst_sampler.h"
#include "src/core/query_context.h"
#include "tests/server_test_util.h"

namespace bloomsample {
namespace server {
namespace {

std::vector<uint64_t> QueryIds() {
  return {5, 32, 59, 86, 113, 140, 167, 194};  // all in BaseOccupied
}

TEST(ServerTest, PingAndStats) {
  ServerHarness h;
  h.Start("ping");
  auto client = QuickClient(h.server->address());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client.value()->Ping().ok());

  auto stats = client.value()->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  for (const char* key :
       {"server.accepted=", "server.queue_depth=", "server.shed_queue_full=",
        "server.deadline_exceeded=", "lane.0.read_only=",
        "lane.0.quarantined=", "pipeline.fsyncs=", "tree.occupied="}) {
    EXPECT_NE(stats.value().find(key), std::string::npos)
        << "missing " << key << " in:\n"
        << stats.value();
  }
}

TEST(ServerTest, SampleBitIdenticalToLocalEngine) {
  ServerHarness h;
  h.Start("sample");
  const std::vector<uint8_t> filter_bytes = FilterBytesFor(*h.tree,
                                                           QueryIds());
  auto client = QuickClient(h.server->address());
  ASSERT_TRUE(client.ok());

  for (const uint64_t seed : {1ull, 7ull, 99ull}) {
    auto remote = client.value()->Sample(filter_bytes, 16, seed);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();

    BloomFilter query(h.tree->family_ptr());
    query.InsertBatch(QueryIds());
    BstSampler sampler(h.tree.get());
    const auto local = sampler.SampleBatch(query, 16, seed);
    EXPECT_EQ(remote.value(), local) << "seed " << seed;
  }
}

TEST(ServerTest, CoalescedClientsGetSoloAnswers) {
  // Many clients, same filter, same instant: the server may run them as
  // one frontier, but each response must equal that client's solo draw.
  ServerHarness h;
  ServerOptions options;
  options.workers = 1;  // one worker → popped together → one batch
  h.Start("coalesce", options);
  const std::vector<uint8_t> filter_bytes = FilterBytesFor(*h.tree,
                                                           QueryIds());

  BloomFilter query(h.tree->family_ptr());
  query.InsertBatch(QueryIds());
  BstSampler sampler(h.tree.get());

  constexpr int kClients = 6;
  std::vector<std::future<std::vector<std::optional<uint64_t>>>> futures;
  for (int c = 0; c < kClients; ++c) {
    futures.push_back(std::async(std::launch::async, [&, c] {
      auto client = QuickClient(h.server->address());
      EXPECT_TRUE(client.ok());
      auto draws = client.value()->Sample(filter_bytes, 4,
                                          /*seed=*/1000 + c);
      EXPECT_TRUE(draws.ok()) << draws.status().ToString();
      return draws.value();
    }));
  }
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(futures[c].get(), sampler.SampleBatch(query, 4, 1000 + c))
        << "client " << c;
  }
  const ServerStatsSnapshot stats = h.server->stats();
  EXPECT_EQ(stats.sample_requests, kClients);
  EXPECT_GE(stats.sample_batches, 1u);
}

TEST(ServerTest, ReconstructMatchesLocalAndInsertIsVisible) {
  ServerHarness h;
  h.Start("recon");
  const std::vector<uint8_t> filter_bytes = FilterBytesFor(*h.tree,
                                                           QueryIds());
  auto client = QuickClient(h.server->address());
  ASSERT_TRUE(client.ok());

  auto remote = client.value()->Reconstruct(filter_bytes, /*exact=*/true);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  BloomFilter query(h.tree->family_ptr());
  query.InsertBatch(QueryIds());
  QueryContext ctx(*h.tree, query);
  const auto local = BstReconstructor(h.tree.get())
                         .Reconstruct(ctx, nullptr,
                                      BstReconstructor::PruningMode::kExact);
  EXPECT_EQ(remote.value(), local);

  // Ids absent from the base set (6 mod 27), inserted through the wire:
  // durable in the pipeline and visible to an immediate reconstruct.
  const std::vector<uint64_t> fresh = {6, 33, 60};
  ASSERT_TRUE(client.value()->Insert(fresh).ok());
  const auto occupied = h.pipeline->tree_handle()->occupied();
  for (uint64_t id : fresh) {
    EXPECT_TRUE(std::binary_search(occupied.begin(), occupied.end(), id));
  }
  auto fresh_filter = FilterBytesFor(*h.tree, fresh);
  auto back = client.value()->Reconstruct(fresh_filter, /*exact=*/true);
  ASSERT_TRUE(back.ok());
  for (uint64_t id : fresh) {
    EXPECT_TRUE(std::binary_search(back.value().begin(), back.value().end(),
                                   id));
  }
}

TEST(ServerTest, ExpiredDeadlineIsAnsweredNotDropped) {
  ServerHarness h;
  ServerOptions options;
  options.workers = 1;
  options.pre_execute_delay_for_test = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  };
  h.Start("deadline", options);
  const std::vector<uint8_t> filter_bytes = FilterBytesFor(*h.tree,
                                                           QueryIds());

  ClientOptions coptions;
  coptions.deadline_ms = 1;  // expires inside the pre-execute stall
  coptions.max_retries = 0;
  auto client = BsrClient::Connect(h.server->address(), coptions);
  ASSERT_TRUE(client.ok());
  const auto draws = client.value()->Sample(filter_bytes, 4, 1);
  ASSERT_FALSE(draws.ok());
  EXPECT_NE(draws.status().ToString().find("deadline exceeded"),
            std::string::npos)
      << draws.status().ToString();
  EXPECT_GE(h.server->stats().deadline_exceeded, 1u);
}

TEST(ServerTest, FullQueueShedsOverloadedWithRetryAfter) {
  ServerHarness h;
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.retry_after_ms = 37;
  options.pre_execute_delay_for_test = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  };
  h.Start("shed", options);
  const std::vector<uint8_t> filter_bytes = FilterBytesFor(*h.tree,
                                                           QueryIds());

  constexpr int kClients = 8;
  std::atomic<int> ok{0};
  std::atomic<int> overloaded{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      auto client = QuickClient(h.server->address(), /*max_retries=*/0);
      ASSERT_TRUE(client.ok());
      const auto draws = client.value()->Sample(filter_bytes, 2, 1);
      if (draws.ok()) {
        ++ok;
      } else {
        EXPECT_NE(draws.status().ToString().find("overloaded"),
                  std::string::npos)
            << draws.status().ToString();
        ++overloaded;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GE(ok.load(), 1);
  EXPECT_GE(overloaded.load(), 1);
  EXPECT_EQ(ok.load() + overloaded.load(), kClients);
  EXPECT_GE(h.server->stats().shed_queue_full, 1u);

  // And the shed is an invitation to retry: with retries enabled the
  // same offered load eventually fully succeeds.
  auto patient = QuickClient(h.server->address(), /*max_retries=*/5);
  ASSERT_TRUE(patient.ok());
  EXPECT_TRUE(patient.value()->Sample(filter_bytes, 2, 1).ok());
}

TEST(ServerTest, QuarantinedLaneRefusesMutationsServesReads) {
  ServerHarness h;
  h.Start("quarantine");
  ASSERT_TRUE(h.pipeline->Quarantine(0, "test says so").ok());

  auto client = QuickClient(h.server->address(), /*max_retries=*/0);
  ASSERT_TRUE(client.ok());
  const Status insert = client.value()->Insert({6});
  ASSERT_FALSE(insert.ok());
  EXPECT_EQ(insert.code(), Status::Code::kQuarantined)
      << insert.ToString();

  const std::vector<uint8_t> filter_bytes = FilterBytesFor(*h.tree,
                                                           QueryIds());
  EXPECT_TRUE(client.value()->Sample(filter_bytes, 2, 1).ok());
  auto stats = client.value()->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats.value().find("lane.0.quarantined=1"), std::string::npos);
}

/// Raw-socket helper: connect to a unix address ("unix:/path").
int RawConnect(const std::string& address) {
  const std::string path = address.substr(5);
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.data(), path.size());
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << strerror(errno);
  return fd;
}

/// Blocking read of exactly n bytes; false on EOF/error.
bool RawRead(int fd, uint8_t* out, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t r = read(fd, out + off, n - off);
    if (r <= 0) return false;
    off += static_cast<size_t>(r);
  }
  return true;
}

TEST(ServerTest, TamperedDigestAnsweredInvalidThenClosed) {
  ServerHarness h;
  h.Start("tamper");
  const int fd = RawConnect(h.server->address());

  std::vector<uint8_t> frame;
  FrameHeader header;
  header.opcode = Opcode::kPing;
  header.request_id = 77;
  EncodeFrame(header, nullptr, 0, &frame);
  frame[16] ^= 0xFF;  // corrupt budget_ms after sealing the digest
  ASSERT_EQ(send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));

  uint8_t resp[kFrameHeaderBytes];
  ASSERT_TRUE(RawRead(fd, resp, sizeof(resp)));
  DecodedHeader decoded;
  ASSERT_TRUE(DecodeHeader(resp, sizeof(resp), 1 << 20, &decoded).ok());
  EXPECT_EQ(decoded.header.status, WireStatus::kInvalidArgument);
  std::vector<uint8_t> payload(decoded.header.payload_len);
  ASSERT_TRUE(RawRead(fd, payload.data(), payload.size()));

  // The stream is poisoned; the server must hang up after answering.
  uint8_t byte;
  EXPECT_EQ(read(fd, &byte, 1), 0);
  close(fd);
  EXPECT_GE(h.server->stats().bad_frames, 1u);
}

TEST(ServerTest, IdleAndSlowLorisConnectionsAreClosed) {
  ServerHarness h;
  ServerOptions options;
  options.idle_timeout = std::chrono::milliseconds(150);
  options.read_timeout = std::chrono::milliseconds(150);
  h.Start("loris", options);

  // Idle: connected, never speaks.
  const int idle_fd = RawConnect(h.server->address());
  // Slow loris: dribbles half a header and stalls mid-frame.
  const int loris_fd = RawConnect(h.server->address());
  std::vector<uint8_t> frame;
  EncodeFrame(FrameHeader(), nullptr, 0, &frame);
  ASSERT_EQ(send(loris_fd, frame.data(), 10, MSG_NOSIGNAL), 10);

  uint8_t byte;
  EXPECT_EQ(read(idle_fd, &byte, 1), 0);   // EOF: server closed it
  EXPECT_EQ(read(loris_fd, &byte, 1), 0);
  close(idle_fd);
  close(loris_fd);
  EXPECT_GE(h.server->stats().idle_closed, 1u);
  EXPECT_GE(h.server->stats().read_timeout_closed, 1u);
}

TEST(ServerTest, DrainAnswersInFlightThenStops) {
  ServerHarness h;
  ServerOptions options;
  options.workers = 1;
  options.pre_execute_delay_for_test = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  };
  h.Start("drain", options);
  const std::vector<uint8_t> filter_bytes = FilterBytesFor(*h.tree,
                                                           QueryIds());

  auto inflight = std::async(std::launch::async, [&] {
    auto client = QuickClient(h.server->address(), /*max_retries=*/0);
    EXPECT_TRUE(client.ok());
    return client.value()->Sample(filter_bytes, 2, 1).status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  h.server->RequestDrain();
  // The request that was already in flight completes with an answer.
  EXPECT_TRUE(inflight.get().ok());
  EXPECT_TRUE(h.server->Wait().ok());
  EXPECT_FALSE(h.server->running());

  // And the daemon is really gone: new connections are refused.
  auto late = QuickClient(h.server->address(), /*max_retries=*/0);
  EXPECT_FALSE(late.ok());
}

/// Waits up to `budget` for `f`; a daemon that wedged would hang the
/// suite, so the binary ends at once with the failure on record.
template <typename T>
T GetOrDie(std::future<T>* f, const char* what,
           std::chrono::seconds budget = std::chrono::seconds(60)) {
  if (f->wait_for(budget) != std::future_status::ready) {
    ADD_FAILURE() << what << " did not finish within " << budget.count()
                  << " s: the daemon is wedged";
    std::fflush(nullptr);
    std::_Exit(1);
  }
  return f->get();
}

TEST(ServerTest, UnpooledReadsBesideInsertsDoNotDeadlock) {
  // On a pool miss the worker, already holding the lane's shared lock
  // through its read guard, must not take it again: a writer that queues
  // between the two holds would wait on the first while the second waits
  // on the writer.
  ServerHarness h;
  ServerOptions options;
  options.context_cache_capacity = 0;  // every read misses the pool
  h.Start("unpooled", options);
  std::vector<std::vector<uint8_t>> filters;
  for (uint64_t f = 0; f < 6; ++f) {
    filters.push_back(FilterBytesFor(*h.tree, {5 + 27 * f, 113 + 27 * f}));
  }
  std::vector<uint64_t> fresh;  // ids the base set lacks (x % 27 != 5)
  for (uint64_t x = 0; fresh.size() < 200; ++x) {
    if (x % 27 != 5) fresh.push_back(x);
  }

  auto reader = std::async(std::launch::async, [&] {
    auto client = QuickClient(h.server->address());
    EXPECT_TRUE(client.ok());
    size_t ok = 0;
    for (size_t i = 0; i < 400; ++i) {
      ok += client.value()->Reconstruct(filters[i % filters.size()],
                                        /*exact=*/true).ok();
    }
    return ok;
  });
  auto writer = std::async(std::launch::async, [&] {
    auto client = QuickClient(h.server->address());
    EXPECT_TRUE(client.ok());
    size_t ok = 0;
    for (uint64_t id : fresh) ok += client.value()->Insert({id}).ok();
    return ok;
  });
  EXPECT_EQ(GetOrDie(&reader, "unpooled RECONSTRUCT stream"), 400u);
  EXPECT_EQ(GetOrDie(&writer, "INSERT stream"), fresh.size());
}

TEST(ServerTest, PooledContextIsRebuiltWhenAnInsertAddsANode) {
  // Only the lower half of the namespace is occupied, so the pruned tree
  // has no nodes over the upper half until an insert lands there.
  std::vector<uint64_t> occupied;
  for (uint64_t x = 5; x < 2048; x += 27) occupied.push_back(x);
  ServerHarness h;
  h.Start("grow", ServerOptions(), occupied);
  const std::vector<uint64_t> query_ids = {5, 32, 59, 3001, 3500};
  const std::vector<uint8_t> filter_bytes = FilterBytesFor(*h.tree,
                                                           query_ids);
  auto client = QuickClient(h.server->address());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value()->Reconstruct(filter_bytes, true).ok());  // pools

  const size_t nodes_before = h.pipeline->tree_handle()->node_count();
  ASSERT_TRUE(client.value()->Insert({3001}).ok());
  const auto tree = h.pipeline->tree_handle();
  ASSERT_GT(tree->node_count(), nodes_before);

  auto remote = client.value()->Reconstruct(filter_bytes, /*exact=*/true);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  BloomFilter query(tree->family_ptr());
  query.InsertBatch(query_ids);
  QueryContext fresh(*tree, query);
  const auto local = BstReconstructor(tree.get())
                         .Reconstruct(fresh, nullptr,
                                      BstReconstructor::PruningMode::kExact);
  EXPECT_EQ(remote.value(), local);
  EXPECT_TRUE(std::binary_search(local.begin(), local.end(), 3001u));
}

/// The value of `key=` in a STATS reply (-1 when absent).
int64_t StatValue(const std::string& stats, const std::string& key) {
  const std::string text = "\n" + stats;
  const size_t at = text.find("\n" + key + "=");
  if (at == std::string::npos) return -1;
  const size_t start = at + key.size() + 2;
  return std::stoll(text.substr(start, text.find('\n', start) - start));
}

/// 16 ids the base set lacks (x % 27 == 6).
std::vector<uint64_t> SixteenFreshIds() {
  std::vector<uint64_t> ids;
  for (uint64_t j = 0; j < 16; ++j) ids.push_back(6 + 27 * j);
  return ids;
}

TEST(ServerTest, InsertFrameIsOneCommitGroupAndOneFsync) {
  // The daemon applies a whole INSERT frame through one ApplyBatch: one
  // log batch and one fsync for its 16 ids, not one of each per id.
  ServerHarness h;
  h.Start("onegroup");
  auto client = QuickClient(h.server->address(), /*max_retries=*/0);
  ASSERT_TRUE(client.ok());
  auto before = client.value()->Stats();
  ASSERT_TRUE(before.ok());
  const std::vector<uint64_t> ids = SixteenFreshIds();
  ASSERT_TRUE(client.value()->Insert(ids).ok());
  auto after = client.value()->Stats();
  ASSERT_TRUE(after.ok());
  for (const char* key : {"pipeline.commit_groups", "pipeline.fsyncs"}) {
    ASSERT_GE(StatValue(before.value(), key), 0) << key;
    EXPECT_EQ(StatValue(after.value(), key),
              StatValue(before.value(), key) + 1)
        << key;
  }
  const auto occupied = h.pipeline->tree_handle()->occupied();
  for (uint64_t id : ids) {
    EXPECT_TRUE(std::binary_search(occupied.begin(), occupied.end(), id))
        << id;
  }
}

TEST(ServerTest, InsertFrameRefusalAppliesThePrefix) {
  // The 5th id is outside the namespace: the 4 before it are logged and
  // applied as one group, the rest never reach the log, and the reply
  // says how far the frame got.
  ServerHarness h;
  h.Start("prefix");
  auto client = QuickClient(h.server->address(), /*max_retries=*/0);
  ASSERT_TRUE(client.ok());
  std::vector<uint64_t> ids = SixteenFreshIds();
  ids[4] = GoldenConfig().namespace_size + 7;
  auto before = client.value()->Stats();
  ASSERT_TRUE(before.ok());
  const Status st = client.value()->Insert(ids);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("applied 4/16"), std::string::npos)
      << st.ToString();
  auto after = client.value()->Stats();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(StatValue(after.value(), "pipeline.commit_groups"),
            StatValue(before.value(), "pipeline.commit_groups") + 1);
  const auto occupied = h.pipeline->tree_handle()->occupied();
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(std::binary_search(occupied.begin(), occupied.end(), ids[i]),
              i < 4)
        << "id " << ids[i] << " at " << i;
  }
}

/// Sends one request frame on a raw connection and reads its response.
void RawCall(int fd, Opcode opcode, uint64_t request_id,
             const std::vector<uint8_t>& payload, DecodedHeader* header,
             std::vector<uint8_t>* body) {
  FrameHeader h;
  h.opcode = opcode;
  h.request_id = request_id;
  h.payload_len = static_cast<uint32_t>(payload.size());
  std::vector<uint8_t> frame;
  EncodeFrame(h, payload.data(), payload.size(), &frame);
  ASSERT_EQ(send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  uint8_t resp[kFrameHeaderBytes];
  ASSERT_TRUE(RawRead(fd, resp, sizeof(resp)));
  ASSERT_TRUE(DecodeHeader(resp, sizeof(resp), 1u << 24, header).ok());
  EXPECT_EQ(header->header.request_id, request_id);
  body->resize(header->header.payload_len);
  ASSERT_TRUE(RawRead(fd, body->data(), body->size()));
}

TEST(ServerTest, MalformedFiltersAreAnsweredPerFrame) {
  ServerHarness h;
  h.Start("badfilter");
  const std::vector<uint8_t> good = FilterBytesFor(*h.tree, QueryIds());

  std::vector<std::pair<const char*, std::vector<uint8_t>>> bad;
  bad.push_back({"truncated",
                 std::vector<uint8_t>(good.begin(), good.end() - 1)});
  {
    const TreeConfig c = GoldenConfig();
    auto other = MakeHashFamily(c.hash_kind, c.k, c.m, c.seed + 1,
                                c.namespace_size);
    ASSERT_TRUE(other.ok());
    BloomFilter foreign(other.value());
    foreign.InsertBatch(QueryIds());
    std::ostringstream out;
    ASSERT_TRUE(SerializeBloomFilter(foreign, &out).ok());
    const std::string s = out.str();
    bad.push_back({"foreign fingerprint",
                   std::vector<uint8_t>(s.begin(), s.end())});
  }
  {
    // m = 6000: the last of 94 words holds 48 bits; set bit 48 of it.
    std::vector<uint8_t> stray = good;
    stray[48 + 93 * 8 + 6] |= 0x01;
    bad.push_back({"stray trailing bit", stray});
  }

  const int fd = RawConnect(h.server->address());
  uint64_t id = 1;
  for (const auto& [name, bytes] : bad) {
    const Status expect =
        DecodeBloomFilter(bytes.data(), bytes.size(), h.tree->family_ptr())
            .status();
    ASSERT_FALSE(expect.ok()) << name;
    const std::vector<uint8_t> view_owner = bytes;
    SampleRequest sample;
    sample.count = 4;
    sample.seed = 1;
    sample.filter = view_owner;
    ReconstructRequest recon;
    recon.exact = true;
    recon.filter = view_owner;
    std::vector<uint8_t> sample_payload, recon_payload;
    EncodeSampleRequest(sample, &sample_payload);
    EncodeReconstructRequest(recon, &recon_payload);
    for (const auto& [op, payload] :
         {std::make_pair(Opcode::kSample, sample_payload),
          std::make_pair(Opcode::kReconstruct, recon_payload)}) {
      DecodedHeader header;
      std::vector<uint8_t> body;
      RawCall(fd, op, id++, payload, &header, &body);
      EXPECT_EQ(header.header.status, WireStatusFromStatus(expect))
          << name << " " << OpcodeName(op);
      EXPECT_EQ(std::string(body.begin(), body.end()), expect.message())
          << name << " " << OpcodeName(op);
    }
  }

  // The connection survived every refusal: PING and a valid SAMPLE work.
  DecodedHeader header;
  std::vector<uint8_t> body;
  RawCall(fd, Opcode::kPing, id++, {}, &header, &body);
  EXPECT_EQ(header.header.status, WireStatus::kOk);
  SampleRequest sample;
  sample.count = 16;
  sample.seed = 7;
  sample.filter = good;
  std::vector<uint8_t> payload;
  EncodeSampleRequest(sample, &payload);
  RawCall(fd, Opcode::kSample, id++, payload, &header, &body);
  ASSERT_EQ(header.header.status, WireStatus::kOk);
  std::vector<std::optional<uint64_t>> draws;
  ASSERT_TRUE(DecodeDraws(body.data(), body.size(), &draws).ok());
  BloomFilter query(h.tree->family_ptr());
  query.InsertBatch(QueryIds());
  EXPECT_EQ(draws, BstSampler(h.tree.get()).SampleBatch(query, 16, 7));
  close(fd);
}

}  // namespace
}  // namespace server
}  // namespace bloomsample
