// The traced run's per-layer pass. Every figure is the median of spans
// recorded here, around the benchmark's own calls into each layer's public
// functions, on the workload's own inputs and the daemon's own tree.
#include <list>
#include <sstream>

#include "servebench/report.h"
#include "src/bloom/bloom_io.h"
#include "src/core/bloom_sample_forest.h"
#include "src/core/bst_reconstructor.h"
#include "src/core/bst_sampler.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/util/xxhash64.h"

namespace servebench {

namespace {

constexpr int kColdIters = 24;
constexpr int kWarmIters = 200;
constexpr int kPings = 200;
constexpr size_t kDecodes = 64;
constexpr int kInserts = 64;
constexpr int kHashPasses = 5;
/// Loop requests replayed for the op counts.
constexpr size_t kReplayRequests = 400;
/// The daemon's default context pool.
constexpr size_t kPoolCapacity = 8;

/// Keeps results observable so timed calls are not optimized away.
volatile uint64_t g_sink = 0;

/// Replays the workload's reads through a context pool shaped like the
/// daemon's and counts what the descent and kernels did.
void ReplayCounts(const Inputs& in, const BloomSampleTree& tree,
                  const std::vector<OpRecord>& records, Report* report) {
  BstSampler sampler(&tree);
  BstReconstructor recon(&tree);
  struct Entry {
    uint32_t key;
    std::unique_ptr<BloomFilter> filter;
    std::unique_ptr<QueryContext> ctx;
  };
  std::list<Entry> pool;
  auto context = [&](uint32_t filter) -> QueryContext* {
    for (auto it = pool.begin(); it != pool.end(); ++it) {
      if (it->key == filter) {
        pool.splice(pool.begin(), pool, it);
        return pool.front().ctx.get();
      }
    }
    const QuerySet& set = in.loop_sets[filter];
    Entry e;
    e.key = filter;
    e.filter = std::make_unique<BloomFilter>(tree.MakeQueryFilter(set.ids));
    e.ctx = std::make_unique<QueryContext>(tree, *e.filter);
    pool.push_front(std::move(e));
    if (pool.size() > kPoolCapacity) pool.pop_back();
    return pool.front().ctx.get();
  };
  // Set-up pooled the hot filters with one draw each.
  if (in.spec.mix != Mix::kCold) {
    for (uint32_t f = 0; f < in.loop_sets.size(); ++f) {
      (void)sampler.SampleBatch(context(f), 1, in.seed + f);
    }
  }
  OpCounters reads;
  OpCounters recons;
  uint64_t n_reads = 0;
  uint64_t n_recons = 0;
  size_t loop_taken = 0;
  for (const OpRecord& r : records) {
    if (r.op == Op::kInsert || r.fail != Fail::kNone) continue;
    if (loop_taken++ >= kReplayRequests) break;
    QueryContext* ctx = context(r.filter);
    OpCounters c;
    if (r.op == Op::kSample) {
      (void)sampler.SampleBatch(ctx, r.count, r.seed, &c);
    } else {
      g_sink += recon.Reconstruct(*ctx, &c,
                                  BstReconstructor::PruningMode::kExact)
                    .size();
      recons += c;
      ++n_recons;
    }
    reads += c;
    ++n_reads;
    Progress("layers");
  }
  const uint64_t lookups = reads.estimate_cache_hits + reads.estimate_cache_misses;
  const std::string over = " over " + std::to_string(n_reads) +
                           " replayed reads (8-entry context pool)";
  report->SetLayer("descent.cache_hit_ratio",
                   lookups == 0 ? 0.0
                                : static_cast<double>(reads.estimate_cache_hits) /
                                      static_cast<double>(lookups),
                   std::to_string(reads.estimate_cache_hits) + " hits of " +
                       std::to_string(lookups) + " estimate lookups" + over);
  const double per_read = 1.0 / static_cast<double>(std::max<uint64_t>(n_reads, 1));
  report->SetLayer("simd.intersections_per_request",
                   static_cast<double>(reads.intersections) * per_read,
                   std::to_string(reads.intersections) + " kernel calls" + over);
  report->SetLayer("simd.bytes_per_request",
                   static_cast<double>(reads.intersection_bytes) * per_read,
                   std::to_string(reads.intersection_bytes) + " bytes" + over);
  report->SetLayer(
      "hash.membership_tests_per_reconstruct",
      static_cast<double>(recons.membership_queries) /
          static_cast<double>(std::max<uint64_t>(n_recons, 1)),
      std::to_string(recons.membership_queries) + " tests over " +
          std::to_string(n_recons) + " replayed RECONSTRUCTs");
}

std::string Fmt1(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

/// Median span duration in µs.
double SpanMedian(const Tracer& tracer, const std::string& name) {
  return Median(tracer.Micros(name));
}

}  // namespace

void MeasureLayers(Inputs* in, Daemon* d, const std::vector<OpRecord>& records,
                   Tracer* tracer, Report* report,
                   std::vector<uint64_t>* applied) {
  const std::vector<QuerySet>& sets = in->loop_sets;
  const uint32_t draws = in->spec.sample_draws;
  const std::string cold_base =
      "median of " + std::to_string(kColdIters) + " over " +
      std::to_string(sets.size()) + " query filters";
  {
    IngestPipeline::ReadGuard guard = d->pipeline->AcquireRead();
    const BloomSampleTree& tree = guard.tree();
    ReplayCounts(*in, tree, records, report);

    std::vector<std::unique_ptr<BloomFilter>> filters;
    for (const QuerySet& s : sets) {
      filters.push_back(std::make_unique<BloomFilter>(tree.MakeQueryFilter(s.ids)));
    }
    BstSampler sampler(&tree);
    BstReconstructor recon(&tree);

    // descent: a fresh context per request (cold) and a pooled one (warm).
    for (int i = 0; i < kColdIters; ++i) {
      const BloomFilter& f = *filters[static_cast<size_t>(i) % filters.size()];
      {
        Scoped span(tracer, "descent.sample_cold");
        const int64_t build = tracer->Begin("descent.context_build", span.index());
        QueryContext ctx(tree, f);
        tracer->End(build);
        Scoped pass(tracer, "descent.sample_pass", span.index());
        g_sink += sampler.SampleBatch(&ctx, draws, in->seed + i).size();
      }
      {
        Scoped span(tracer, "descent.reconstruct_cold");
        const int64_t build = tracer->Begin("descent.context_build", span.index());
        QueryContext ctx(tree, f);
        tracer->End(build);
        Scoped pass(tracer, "descent.reconstruct_pass", span.index());
        g_sink += recon.Reconstruct(ctx, nullptr,
                                    BstReconstructor::PruningMode::kExact)
                      .size();
      }
      Progress("layers");
    }
    std::vector<std::unique_ptr<QueryContext>> warm;
    for (const auto& f : filters) {
      warm.push_back(std::make_unique<QueryContext>(tree, *f));
      g_sink += sampler.SampleBatch(warm.back().get(), draws, in->seed).size();
    }
    for (int i = 0; i < kWarmIters; ++i) {
      Scoped span(tracer, "descent.sample_warm");
      g_sink += sampler
                    .SampleBatch(warm[static_cast<size_t>(i) % warm.size()].get(),
                                 draws, in->seed + 1000 + i)
                    .size();
    }
    report->SetLayer("descent.context_build_us",
                     SpanMedian(*tracer, "descent.context_build"), cold_base);
    report->SetLayer("descent.sample_cold_us",
                     SpanMedian(*tracer, "descent.sample_cold"),
                     cold_base + ", " + std::to_string(draws) + " draws");
    report->SetLayer("descent.reconstruct_cold_us",
                     SpanMedian(*tracer, "descent.reconstruct_cold"),
                     cold_base + ", exact");
    report->SetLayer("descent.sample_warm_us",
                     SpanMedian(*tracer, "descent.sample_warm"),
                     "median of " + std::to_string(kWarmIters) + ", " +
                         std::to_string(draws) + " draws on pooled contexts");

    // simd: one sparse intersection of every node with each query view
    // (the filters rotate, so at m = 1e7 the gathers miss the cache as
    // they do in the daemon), and a full recount of each node's bits.
    for (const auto& f : filters) {
      const BloomQueryView view(*f);
      Scoped span(tracer, "simd.and_popcount_pass");
      for (size_t id = 0; id < tree.node_count(); ++id) {
        g_sink += tree.node(static_cast<int64_t>(id)).filter.AndPopcount(view);
      }
    }
    const double nodes = static_cast<double>(tree.node_count());
    report->SetLayer("simd.and_popcount_ns",
                     SpanMedian(*tracer, "simd.and_popcount_pass") * 1e3 / nodes,
                     "median over " + std::to_string(filters.size()) +
                         " filters of a pass over " +
                         std::to_string(tree.node_count()) + " nodes");
    for (size_t id = 0; id < tree.node_count(); ++id) {
      Scoped span(tracer, "simd.set_bit_count");
      g_sink += tree.node(static_cast<int64_t>(id)).filter.bits().Popcount();
    }
    report->SetLayer("simd.set_bit_count_us",
                     SpanMedian(*tracer, "simd.set_bit_count"),
                     "median over " + std::to_string(tree.node_count()) +
                         " node filters of m = " + std::to_string(in->spec.m));

    // hash: HashBatch over the candidates a reconstruction scans (the
    // occupied ids, leaf by leaf, in the scan's block size).
    const std::vector<uint64_t>& keys = tree.occupied();
    const HashFamily& family = *tree.family_ptr();
    std::vector<uint64_t> out(BloomFilter::kHashBlock * family.k());
    for (int pass = 0; pass < kHashPasses; ++pass) {
      Scoped span(tracer, "hash.batch_pass");
      for (size_t i = 0; i < keys.size(); i += BloomFilter::kHashBlock) {
        const size_t n = std::min(BloomFilter::kHashBlock, keys.size() - i);
        family.HashBatch(keys.data() + i, n, out.data());
        g_sink += out[0];
      }
    }
    report->SetLayer("hash.ns_per_key",
                     SpanMedian(*tracer, "hash.batch_pass") * 1e3 /
                         static_cast<double>(keys.size()),
                     "median of " + std::to_string(kHashPasses) + " passes over " +
                         std::to_string(keys.size()) + " candidates");

    // server: decoding one request frame as the daemon does.
    size_t decoded = 0;
    double bytes = 0;
    size_t requests = 0;
    for (const OpRecord& r : records) {
      const size_t filter_bytes = r.op == Op::kInsert ? 0 : SetOf(*in, r).bytes.size();
      bytes += server::kFrameHeaderBytes +
               (r.op == Op::kSample ? 12 + filter_bytes
                : r.op == Op::kReconstruct ? 4 + filter_bytes
                                           : 4 + 8 * r.ids.size());
      ++requests;
      if (r.op != Op::kSample || decoded >= kDecodes) continue;
      ++decoded;
      server::SampleRequest req;
      req.count = r.count;
      req.seed = r.seed;
      req.filter = SetOf(*in, r).bytes;
      std::vector<uint8_t> payload;
      server::EncodeSampleRequest(req, &payload);
      server::FrameHeader header;
      header.opcode = server::Opcode::kSample;
      header.request_id = decoded;
      header.payload_len = static_cast<uint32_t>(payload.size());
      std::vector<uint8_t> frame;
      server::EncodeFrame(header, payload.data(), payload.size(), &frame);

      server::SampleRequest got;
      {
        Scoped span(tracer, "server.decode_frame");
        server::DecodedHeader dh;
        Status st =
            server::DecodeHeader(frame.data(), frame.size(), 16u << 20, &dh);
        const uint8_t* body = frame.data() + server::kFrameHeaderBytes;
        const size_t len = dh.header.payload_len;
        if (st.ok() &&
            server::FrameDigest(frame.data(), body, len) != dh.digest) {
          st = Status::Internal("frame digest mismatch");
        }
        if (st.ok()) st = server::DecodeSampleRequest(body, len, &got);
        BSR_CHECK(st.ok(), "request frame failed to decode");
        g_sink += XxHash64::Hash(got.filter.data(), got.filter.size());
      }
      Scoped span(tracer, "server.deserialize");
      std::string text(reinterpret_cast<const char*>(got.filter.data()),
                       got.filter.size());
      std::istringstream is(text);
      BSR_CHECK(DeserializeBloomFilter(&is, tree.family_ptr()).ok(),
                "request filter failed to deserialize");
    }
    // The daemon deserializes a filter only on a context-pool miss: every
    // request of serve_cold, none of the others.
    const double frame_us = SpanMedian(*tracer, "server.decode_frame");
    const double deserialize_us = SpanMedian(*tracer, "server.deserialize");
    const bool miss = in->spec.mix == Mix::kCold;
    report->SetLayer("server.decode_us",
                     frame_us + (miss ? deserialize_us : 0.0),
                     "median over " + std::to_string(decoded) +
                         " SAMPLE frames: header + XXH64 digests " +
                         Fmt1(frame_us) + " us, DeserializeBloomFilter " +
                         Fmt1(deserialize_us) + " us" +
                         (miss ? "" : " (not paid: contexts are pooled)"));
    report->SetLayer("server.request_bytes",
                     bytes / static_cast<double>(std::max<size_t>(requests, 1)),
                     "mean over " + std::to_string(requests) + " loop requests");
  }

  // forest: an S = 1 forest over the same ids answering the same inputs.
  {
    Progress("layers");
    ForestConfig fc;
    fc.tree = in->config;
    fc.shards = 1;
    std::vector<uint64_t> ids;
    {
      IngestPipeline::ReadGuard guard = d->pipeline->AcquireRead();
      ids = guard.tree().occupied();
    }
    auto forest = BloomSampleForest::BuildPruned(fc, std::move(ids));
    BSR_CHECK(forest.ok(), "S = 1 forest build failed");
    BloomSampleForest& f = forest.value();
    ForestSampler sampler(&f);
    ForestReconstructor recon(&f);
    std::vector<BloomFilter> filters;
    for (const QuerySet& s : sets) filters.push_back(f.MakeQueryFilter(s.ids));
    for (int i = 0; i < kColdIters; ++i) {
      const BloomFilter& q = filters[static_cast<size_t>(i) % filters.size()];
      {
        Scoped span(tracer, "forest.s1_sample_cold");
        ForestQueryContext ctx(f, q);
        g_sink += sampler.SampleBatch(&ctx, draws, in->seed + i).size();
      }
      {
        Scoped span(tracer, "forest.s1_reconstruct_cold");
        ForestQueryContext ctx(f, q);
        g_sink += recon.Reconstruct(ctx, nullptr,
                                    BstReconstructor::PruningMode::kExact)
                      .size();
      }
      Progress("layers");
    }
    report->SetLayer("forest.s1_sample_cold_us",
                     SpanMedian(*tracer, "forest.s1_sample_cold"), cold_base);
    report->SetLayer("forest.s1_reconstruct_cold_us",
                     SpanMedian(*tracer, "forest.s1_reconstruct_cold"),
                     cold_base + ", exact");

    // ingest: a tree insert with no log (on the forest's only shard) ...
    for (uint64_t x : in->NextInsertIds(kInserts)) {
      Scoped span(tracer, "ingest.tree_insert");
      BSR_CHECK(f.mutable_shard(0)->Insert(x).ok(), "tree insert failed");
    }
    report->SetLayer("ingest.tree_insert_us",
                     SpanMedian(*tracer, "ingest.tree_insert"),
                     "median of " + std::to_string(kInserts) +
                         " BloomSampleTree::Insert, no log");
  }
  // ... and the daemon's pipeline under its every-record policy.
  for (uint64_t x : in->NextInsertIds(kInserts)) {
    WalMutation mut;
    mut.op = WalOp::kInsert;
    mut.id = x;
    Scoped span(tracer, "ingest.apply");
    if (d->pipeline->Apply(mut).ok()) applied->push_back(x);
    Progress("layers");
  }
  report->SetLayer("ingest.apply_us", SpanMedian(*tracer, "ingest.apply"),
                   "median of " + std::to_string(kInserts) +
                       " IngestPipeline::Apply, every-record WAL");

  // server: PING is answered on the event-loop thread.
  server::ClientOptions options;
  options.max_retries = 0;
  auto client = server::BsrClient::Connect(d->server->address(), options);
  BSR_CHECK(client.ok(), "ping client failed to connect");
  for (int i = 0; i < kPings; ++i) {
    Scoped span(tracer, "server.ping");
    BSR_CHECK(client.value()->Ping().ok(), "ping failed");
  }
  report->SetLayer("server.ping_rtt_us", SpanMedian(*tracer, "server.ping"),
                   "median of " + std::to_string(kPings) + " PINGs");
}

}  // namespace servebench
