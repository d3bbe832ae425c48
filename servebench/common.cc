// Inputs, checks, spans and daemon set-up shared by the workloads and the
// self-test.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "servebench/bench.h"
#include "src/bloom/bloom_io.h"
#include "src/core/wal.h"
#include "src/core/bst_sampler.h"
#include "src/server/client.h"
#include "src/workload/set_generators.h"

namespace servebench {

const char* OpName(Op op) {
  switch (op) {
    case Op::kSample:
      return "sample";
    case Op::kReconstruct:
      return "reconstruct";
    case Op::kInsert:
      return "insert";
  }
  return "?";
}

const char* FailName(Fail fail) {
  switch (fail) {
    case Fail::kNone:
      return "ok";
    case Fail::kShed:
      return "shed";
    case Fail::kDeadline:
      return "deadline";
    case Fail::kTransport:
      return "transport";
    case Fail::kCheck:
      return "check";
  }
  return "?";
}

Fail ClassifyStatus(const Status& st) {
  if (st.ok()) return Fail::kNone;
  if (st.code() == Status::Code::kResourceExhausted) {
    return st.message().rfind("deadline exceeded", 0) == 0 ? Fail::kDeadline
                                                            : Fail::kShed;
  }
  return Fail::kTransport;
}

Result<WorkloadSpec> FindWorkload(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "serve_cold") {
    spec.mix = Mix::kCold;
    spec.m = 10000000;
    spec.sample_draws = 64;
    spec.loop_filters = 26;
    spec.setups = 7;
    // ~650 samples and reconstructs per 10 s run: p99 would have 6 beyond.
    spec.tail_q[0] = 0.90;
  } else if (name == "serve_hot") {
    spec.mix = Mix::kHot;
    spec.m = 1000000;
    spec.sample_draws = 16;
    spec.loop_filters = 4;
    spec.setups = 15;  // ~50 ms each
  } else if (name == "ingest_mixed") {
    spec.mix = Mix::kIngest;
    spec.m = 10000000;
    spec.sample_draws = 16;
    spec.loop_filters = 4;
    spec.setups = 7;
  } else {
    return Status::NotFound("unknown workload '" + name +
                            "' (serve_cold, serve_hot, ingest_mixed)");
  }
  return spec;
}

WorkloadSpec TinyWorkload(Mix mix) {
  WorkloadSpec spec;
  spec.name = "tiny";
  spec.mix = mix;
  // Room for the ids a 1 s ingest loop inserts (~10k) besides the base.
  spec.namespace_size = 65536;
  spec.occupied_ids = 1200;
  spec.m = 16384;
  spec.depth = 3;
  spec.query_set_size = 200;
  spec.sample_draws = 8;
  spec.loop_filters = mix == Mix::kCold ? 26 : 4;
  return spec;
}

namespace {

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

QuerySet MakeQuerySet(const Inputs& in, bool clustered, Rng* rng) {
  QuerySet set;
  set.clustered = clustered;
  auto ids = clustered ? GenerateClusteredSet(in.spec.namespace_size,
                                              in.spec.query_set_size, rng)
                       : GenerateUniformSet(in.spec.namespace_size,
                                            in.spec.query_set_size, rng);
  BSR_CHECK(ids.ok(), "query set generation failed");
  set.ids = std::move(ids).value();
  set.filter = std::make_unique<BloomFilter>(in.family);
  set.filter->InsertBatch(set.ids);
  std::ostringstream out;
  BSR_CHECK(SerializeBloomFilter(*set.filter, &out).ok(), "filter encode");
  const std::string s = out.str();
  set.bytes.assign(s.begin(), s.end());
  return set;
}

}  // namespace

uint64_t RequestSeed(uint64_t run_seed, uint32_t conn, uint64_t index) {
  return Mix64(Mix64(run_seed) ^ (static_cast<uint64_t>(conn) << 56) ^ index);
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  in.spec = spec;
  in.seed = seed;
  in.config.namespace_size = spec.namespace_size;
  in.config.m = spec.m;
  in.config.k = spec.k;
  in.config.hash_kind = HashFamilyKind::kSimple;
  in.config.seed = Mix64(seed ^ 0x7265655f73656564ULL);
  in.config.depth = spec.depth;
  auto family = MakeHashFamily(in.config.hash_kind, spec.k, spec.m,
                               in.config.seed, spec.namespace_size);
  BSR_CHECK(family.ok(), "hash family");
  in.family = std::move(family).value();

  Rng rng(Mix64(seed));
  auto occupied = GenerateUniformSet(spec.namespace_size, spec.occupied_ids,
                                     &rng);
  BSR_CHECK(occupied.ok(), "occupied ids");
  in.occupied = std::move(occupied).value();
  // Alternate uniform and clustered sets so each connection's rotation
  // holds both kinds.
  for (size_t i = 0; i < spec.loop_filters; ++i) {
    in.loop_sets.push_back(MakeQuerySet(in, (i / 2) % 2 == 1, &rng));
  }
  if (spec.mix == Mix::kCold) {
    in.first_sets.push_back(MakeQuerySet(in, false, &rng));
  }
  in.insert_rng = Rng(Mix64(seed ^ 0x696e73657274ULL));
  return in;
}

std::vector<uint64_t> Inputs::NextInsertIds(size_t n) {
  std::vector<uint64_t> ids;
  ids.reserve(n);
  while (ids.size() < n) {
    const uint64_t x = insert_rng.Below(spec.namespace_size);
    if (std::binary_search(occupied.begin(), occupied.end(), x)) continue;
    if (!sent.insert(x).second) continue;
    ids.push_back(x);
  }
  return ids;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- checks -------------------------------------------------------------

std::string CheckDraws(const QuerySet& set, const std::vector<uint64_t>& draws,
                       const std::vector<uint64_t>& occupied,
                       const std::unordered_map<uint64_t, int64_t>& inserted_at,
                       int64_t sent_before_ns,
                       const std::vector<uint64_t>* reference) {
  for (size_t i = 0; i < draws.size(); ++i) {
    const uint64_t x = draws[i];
    if (x == server::kNullDraw) {
      if (reference == nullptr || (*reference)[i] != x) {
        return "null draw " + std::to_string(i);
      }
      continue;
    }
    if (!std::binary_search(occupied.begin(), occupied.end(), x)) {
      const auto it = inserted_at.find(x);
      if (it == inserted_at.end()) {
        return "draw " + std::to_string(x) + " is not an occupied id";
      }
      if (it->second >= sent_before_ns) {
        return "draw " + std::to_string(x) +
               " was inserted only after the SAMPLE ended";
      }
    }
    if (!set.filter->Contains(x)) {
      return "draw " + std::to_string(x) + " is not in the query filter";
    }
  }
  if (reference != nullptr && draws != *reference) {
    for (size_t i = 0; i < draws.size() && i < reference->size(); ++i) {
      if (draws[i] != (*reference)[i]) {
        return "draw " + std::to_string(i) + " is " +
               std::to_string(draws[i]) + ", in-process SampleBatch drew " +
               std::to_string((*reference)[i]);
      }
    }
    return "draw count " + std::to_string(draws.size()) + ", in-process " +
           std::to_string(reference->size());
  }
  return "";
}

std::vector<uint64_t> ExpectedReconstruct(
    const QuerySet& set, const std::vector<uint64_t>& occupied) {
  std::vector<uint64_t> out;
  set.filter->FilterContained(occupied.data(), occupied.size(), &out);
  return out;
}

std::string CheckReconstruct(const QuerySet& set,
                             const std::vector<uint64_t>& out,
                             const std::vector<uint64_t>& occupied,
                             const std::vector<uint64_t>& expected) {
  for (size_t i = 1; i < out.size(); ++i) {
    if (out[i] <= out[i - 1]) return "output is not strictly ascending";
  }
  // No false negatives: S ∩ occupied ⊆ output.
  for (uint64_t x : set.ids) {
    if (std::binary_search(occupied.begin(), occupied.end(), x) &&
        !std::binary_search(out.begin(), out.end(), x)) {
      return "dropped id " + std::to_string(x) + " of S ∩ occupied";
    }
  }
  uint64_t non_members = 0;
  for (uint64_t x : out) {
    if (!std::binary_search(occupied.begin(), occupied.end(), x)) {
      return "output id " + std::to_string(x) + " is not an occupied id";
    }
    if (!std::binary_search(set.ids.begin(), set.ids.end(), x)) ++non_members;
  }
  // False positives: each occupied non-member passes the filter with
  // probability (set bits / m)^k; allow six standard deviations of slack.
  const double fill = static_cast<double>(set.filter->SetBitCount()) /
                      static_cast<double>(set.filter->m());
  const double p = std::pow(fill, static_cast<double>(set.filter->k()));
  const double trials = static_cast<double>(occupied.size());
  const double mean = p * trials;
  const double bound = mean + 6.0 * std::sqrt(mean) + 6.0;
  if (static_cast<double>(non_members) > bound) {
    return std::to_string(non_members) +
           " non-members of S exceed the false-positive bound " +
           std::to_string(bound);
  }
  if (out != expected) {
    return "output differs from the exact reconstruction (" +
           std::to_string(out.size()) + " ids, expected " +
           std::to_string(expected.size()) + ")";
  }
  return "";
}

std::string CheckRecovery(const std::vector<uint64_t>& recovered,
                          const std::vector<uint64_t>& base,
                          const std::vector<uint64_t>& acked,
                          const std::unordered_set<uint64_t>& sent) {
  for (uint64_t x : base) {
    if (!std::binary_search(recovered.begin(), recovered.end(), x)) {
      return "base id " + std::to_string(x) + " lost on reopen";
    }
  }
  for (uint64_t x : acked) {
    if (!std::binary_search(recovered.begin(), recovered.end(), x)) {
      return "acknowledged id " + std::to_string(x) + " lost on reopen";
    }
  }
  for (uint64_t x : recovered) {
    if (!std::binary_search(base.begin(), base.end(), x) &&
        sent.count(x) == 0) {
      return "reopened tree holds id " + std::to_string(x) +
             " that was never sent";
    }
  }
  return "";
}

// --- spans --------------------------------------------------------------

int64_t Tracer::Begin(const std::string& name, int64_t parent,
                      uint64_t request) {
  if (!enabled_) return -1;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, now, 0, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t index) {
  if (index < 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = now;
}

std::vector<double> Tracer::Micros(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back((s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

Status Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot write " + path);
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  out.close();
  return out ? Status::OK() : Status::Internal("short write to " + path);
}

// --- daemon -------------------------------------------------------------

void RemoveFiles(const std::string& path) {
  for (const std::string& p : {path, WalPathFor(path), OldWalPathFor(path),
                               path + ".quarantine"}) {
    std::remove(p.c_str());
  }
}

Result<std::unique_ptr<Daemon>> SetUp(const Inputs& in,
                                      const std::string& work_dir,
                                      Tracer* tracer) {
  auto d = std::make_unique<Daemon>();
  d->path = work_dir + "/" + in.spec.name + ".bst";
  RemoveFiles(d->path);
  Progress("setup");
  Scoped setup(tracer, "setup");
  const int64_t t0 = NowNs();
  {
    const int64_t build = tracer->Begin("tree_io.build", setup.index());
    auto built = BloomSampleTree::BuildPruned(in.config, in.occupied);
    tracer->End(build);
    if (!built.ok()) return built.status();
    Scoped save(tracer, "tree_io.save", setup.index());
    if (Status st = SaveTreeToFile(built.value(), d->path); !st.ok()) {
      return st;
    }
  }  // the built tree is freed here: the daemon serves the reopened file
  Progress("setup");
  std::shared_ptr<BloomSampleTree> tree;
  {
    Scoped span(tracer, "tree_io.open", setup.index());
    auto loaded = LoadTreeFromFile(d->path, LoadOptions::FromEnv(),
                                   &d->load_info);
    if (!loaded.ok()) return loaded.status();
    tree = std::make_shared<BloomSampleTree>(std::move(loaded).value());
  }
  {
    Scoped span(tracer, "server.start", setup.index());
    auto pipeline = IngestPipeline::OpenTree(
        tree, d->path, IngestPipelineOptions(),
        d->load_info.wal_records_replayed + 1);
    if (!pipeline.ok()) return pipeline.status();
    d->pipeline = std::move(pipeline).value();
    server::ServerOptions options;
    options.listen = "unix:" + work_dir + "/bsr.sock";
    auto started = server::BsrServer::Start(d->pipeline.get(), options);
    if (!started.ok()) return started.status();
    d->server = std::move(started).value();
  }
  auto client =
      server::BsrClient::Connect(d->server->address(), server::ClientOptions());
  if (!client.ok()) return client.status();
  if (Status st = client.value()->Ping(); !st.ok()) return st;
  // The first SAMPLE pays the page faults of a lazily mapped snapshot.
  // Hot and ingest pool their loop filters here; cold sends one filter
  // outside its rotation.
  const std::vector<QuerySet>& warm =
      in.spec.mix == Mix::kCold ? in.first_sets : in.loop_sets;
  for (size_t i = 0; i < warm.size(); ++i) {
    Scoped span(tracer, i == 0 ? "tree_io.first_request" : "server.pool",
                setup.index());
    auto draws = client.value()->Sample(warm[i].bytes, 1, in.seed + i);
    if (!draws.ok()) return draws.status();
  }
  d->setup_s = (NowNs() - t0) / 1e9;
  client.value()->Close();
  return d;
}

Status Stop(Daemon* d) {
  Status st;
  if (d->server != nullptr) {
    d->server->RequestDrain();
    st = d->server->Wait();
    d->server.reset();
  }
  if (d->pipeline != nullptr) {
    const Status closed = d->pipeline->Close();
    if (st.ok()) st = closed;
    d->pipeline.reset();
  }
  return st;
}

// --- watchdog -----------------------------------------------------------

namespace {
std::atomic<int64_t> g_progress_ns{0};
std::atomic<const char*> g_phase{"start"};
}  // namespace

void Progress(const char* phase) {
  g_phase.store(phase);
  g_progress_ns.store(NowNs());
}

Watchdog::Watchdog(double limit_s) : limit_ns_(limit_s * 1e9) {
  Progress("start");
  thread_ = std::thread([this] { Body(); });
}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Watchdog::Body() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!cv_.wait_for(lock, std::chrono::milliseconds(100),
                       [this] { return stop_; })) {
    const double idle = static_cast<double>(NowNs() - g_progress_ns.load());
    if (idle > limit_ns_) {
      std::fprintf(stderr,
                   "FAILED watchdog: phase '%s' made no progress for %.1f s\n",
                   g_phase.load(), idle / 1e9);
      std::fflush(stderr);
      std::fflush(stdout);
      _exit(3);
    }
  }
}

// --- verification -------------------------------------------------------

std::vector<uint64_t> SortedUnion(const std::vector<uint64_t>& a,
                                  std::vector<uint64_t> b) {
  b.insert(b.end(), a.begin(), a.end());
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());
  return b;
}

void Verify(const Inputs& in, Daemon* d, const std::vector<uint64_t>& occupied,
            bool reference_draws, std::vector<OpRecord>* records,
            std::vector<uint64_t>* acked) {
  IngestPipeline::ReadGuard guard = d->pipeline->AcquireRead();
  const BloomSampleTree& tree = guard.tree();
  BstSampler sampler(&tree);
  struct Ref {
    std::unique_ptr<BloomFilter> filter;
    std::unique_ptr<QueryContext> ctx;
    std::vector<uint64_t> expected;
    bool have_expected = false;
  };
  std::map<uint32_t, Ref> refs;
  // Ids the loop sent, acknowledged or not, with the start of their INSERT.
  std::unordered_map<uint64_t, int64_t> inserted_at;
  for (const OpRecord& r : *records) {
    if (r.op != Op::kInsert) continue;
    for (uint64_t x : r.ids) inserted_at.emplace(x, r.start_ns);
  }
  for (size_t i = 0; i < records->size(); ++i) {
    OpRecord& r = (*records)[i];
    if (i % 64 == 0) Progress("verify");
    if (r.fail != Fail::kNone) continue;
    if (r.op == Op::kInsert) {
      acked->insert(acked->end(), r.ids.begin(), r.ids.end());
      continue;
    }
    const QuerySet& set = SetOf(in, r);
    Ref& ref = refs[r.filter];
    std::string why;
    if (r.op == Op::kSample) {
      std::vector<uint64_t> expect;
      if (reference_draws) {
        if (ref.ctx == nullptr) {
          ref.filter = std::make_unique<BloomFilter>(tree.MakeQueryFilter(set.ids));
          ref.ctx = std::make_unique<QueryContext>(tree, *ref.filter);
        }
        for (const auto& x : sampler.SampleBatch(ref.ctx.get(), r.count, r.seed)) {
          expect.push_back(x.has_value() ? *x : server::kNullDraw);
        }
      }
      why = CheckDraws(set, r.ids, occupied, inserted_at, r.end_ns,
                       reference_draws ? &expect : nullptr);
    } else {
      if (!ref.have_expected) {
        ref.expected = ExpectedReconstruct(set, occupied);
        ref.have_expected = true;
      }
      why = CheckReconstruct(set, r.ids, occupied, ref.expected);
    }
    if (!why.empty()) {
      r.fail = Fail::kCheck;
      r.why = why;
    }
  }
}

}  // namespace servebench
