// Shared declarations of the serving benchmark: workload geometry, the
// seeded inputs, the per-request records the closed loops fill, the output
// checks, the span tracer and the daemon set-up. README.md describes the
// workloads and the metrics; main.cc is the entry point.
#ifndef SERVEBENCH_BENCH_H_
#define SERVEBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/bloom/bloom_filter.h"
#include "src/core/ingest_pipeline.h"
#include "src/core/tree_config.h"
#include "src/core/tree_io.h"
#include "src/server/server.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace servebench {

using namespace bloomsample;

inline constexpr int kConnections = 2;
inline constexpr uint32_t kIdsPerInsert = 16;
/// ingest_mixed: SAMPLEs connection 1 sends in each round, beside the one
/// INSERT of connection 0.
inline constexpr int kSamplesPerInsert = 16;

enum class Op { kSample = 0, kReconstruct = 1, kInsert = 2 };
inline constexpr int kOpCount = 3;
const char* OpName(Op op);

/// Which closed loop a workload runs (see README.md).
enum class Mix { kCold, kHot, kIngest };

struct WorkloadSpec {
  std::string name;
  Mix mix = Mix::kHot;
  uint64_t namespace_size = 1000000;
  uint64_t occupied_ids = 100000;
  uint64_t m = 1000000;
  uint64_t k = 3;
  uint32_t depth = 6;
  uint64_t query_set_size = 1000;
  uint32_t sample_draws = 16;
  /// Set-ups per run; setup_s is their median.
  int setups = 3;
  /// Filters the loop rotates over. Cold: split between the connections
  /// (13 each), so the daemon's 8-entry context pool never hits. Hot and
  /// ingest: pooled during set-up.
  size_t loop_filters = 4;
  /// Tail quantile per op, fixed per workload: the highest of p90/p99
  /// that leaves at least ten samples beyond it at the expected count.
  double tail_q[kOpCount] = {0.99, 0.90, 0.90};
};

/// The three benchmark workloads; kNotFound for another name.
Result<WorkloadSpec> FindWorkload(const std::string& name);
/// A geometry small enough for the self-test to run in seconds.
WorkloadSpec TinyWorkload(Mix mix);

/// One of the paper's Section 7.1 query sets and the benchmark's own
/// filter over it.
struct QuerySet {
  std::vector<uint64_t> ids;  ///< sorted
  bool clustered = false;
  std::unique_ptr<BloomFilter> filter;  ///< the benchmark's own copy
  std::vector<uint8_t> bytes;           ///< SerializeBloomFilter(*filter)
};

struct Inputs {
  WorkloadSpec spec;
  uint64_t seed = 0;
  TreeConfig config;
  std::vector<uint64_t> occupied;  ///< sorted base ids
  std::shared_ptr<const HashFamily> family;
  std::vector<QuerySet> loop_sets;
  /// Cold only: the first request after start-up, outside the rotation.
  std::vector<QuerySet> first_sets;

  /// Deterministic stream of ids that are neither base ids nor sent before.
  std::vector<uint64_t> NextInsertIds(size_t n);
  Rng insert_rng;
  std::unordered_set<uint64_t> sent;
};

/// Everything is drawn from `seed`; the daemon sees only these inputs.
Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);
/// Per-request SAMPLE seed.
uint64_t RequestSeed(uint64_t run_seed, uint32_t conn, uint64_t index);

enum class Fail { kNone = 0, kShed, kDeadline, kTransport, kCheck };
inline constexpr int kFailKinds = 5;
const char* FailName(Fail fail);
/// Classifies a client-side error status.
Fail ClassifyStatus(const Status& st);

/// One request as the closed loop sent it, and its answer.
struct OpRecord {
  Op op = Op::kSample;
  uint32_t conn = 0;
  uint32_t filter = 0;    ///< index into Inputs::loop_sets
  uint64_t seed = 0;      ///< SAMPLE
  uint32_t count = 0;     ///< SAMPLE draws
  std::vector<uint64_t> ids;  ///< INSERT sent / SAMPLE draws / RECONSTRUCT out
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  Fail fail = Fail::kNone;
  bool traced = false;  ///< a client span was recorded around it
  std::string why;  ///< failure detail
  double micros() const { return (end_ns - start_ns) / 1e3; }
};

int64_t NowNs();

// --- checks made apart from the daemon ---------------------------------
// Each returns "" when the answer is correct, else what is wrong.

/// A draw may be an `occupied` id or an id whose INSERT began before
/// `sent_before_ns`; `inserted_at` maps each id the loop inserted to the
/// start of its INSERT. `reference` (optional) is BstSampler::SampleBatch
/// run in-process.
std::string CheckDraws(const QuerySet& set, const std::vector<uint64_t>& draws,
                       const std::vector<uint64_t>& occupied,
                       const std::unordered_map<uint64_t, int64_t>& inserted_at,
                       int64_t sent_before_ns,
                       const std::vector<uint64_t>* reference);
/// `occupied` sorted; `expected` = occupied ids the benchmark's own filter
/// contains (the exact reconstruction, computed apart from the tree).
std::string CheckReconstruct(const QuerySet& set,
                             const std::vector<uint64_t>& out,
                             const std::vector<uint64_t>& occupied,
                             const std::vector<uint64_t>& expected);
/// Sorted occupied ids the filter contains.
std::vector<uint64_t> ExpectedReconstruct(const QuerySet& set,
                                          const std::vector<uint64_t>& occupied);
/// The reopened tree must hold exactly base ∪ acknowledged (ids sent but
/// not acknowledged may or may not be present).
std::string CheckRecovery(const std::vector<uint64_t>& recovered,
                          const std::vector<uint64_t>& base,
                          const std::vector<uint64_t>& acked,
                          const std::unordered_set<uint64_t>& sent);

// --- spans --------------------------------------------------------------

/// In-memory span recorder: a span per call the benchmark makes into a
/// layer, with its parent and request id. Written out once, at exit.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;  ///< index into spans, -1 for none
    uint64_t request;
  };
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  /// Returns the span's index (-1 when disabled).
  int64_t Begin(const std::string& name, int64_t parent = -1,
                uint64_t request = 0);
  void End(int64_t index);
  /// Durations (µs) of every span with this name.
  std::vector<double> Micros(const std::string& name) const;
  Status WriteJson(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(Tracer* t, const std::string& name, int64_t parent = -1,
         uint64_t request = 0)
      : t_(t), index_(t->Begin(name, parent, request)) {}
  ~Scoped() { t_->End(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int64_t index() const { return index_; }

 private:
  Tracer* t_;
  int64_t index_;
};

// --- the daemon ---------------------------------------------------------

struct Daemon {
  std::string path;  ///< snapshot
  std::unique_ptr<IngestPipeline> pipeline;
  std::unique_ptr<server::BsrServer> server;
  TreeLoadInfo load_info;
  double setup_s = 0;
};

/// Build, save, open, start `bsr serve`'s server on a unix socket in
/// `work_dir`, then send the first requests (pooling the hot filters).
/// Spans: tree_io.build / tree_io.save / tree_io.open / server.start /
/// tree_io.first_request under one "setup" span.
Result<std::unique_ptr<Daemon>> SetUp(const Inputs& in,
                                      const std::string& work_dir,
                                      Tracer* tracer);
/// Drains the server and closes the pipeline (the log is fenced).
Status Stop(Daemon* d);
void RemoveFiles(const std::string& path);

/// Median of `v` (0 when empty); Quantile uses the nearest-rank rule.
double Median(std::vector<double> v);
double Quantile(std::vector<double> v, double q);

/// Sorted, de-duplicated a ∪ b.
std::vector<uint64_t> SortedUnion(const std::vector<uint64_t>& a,
                                  std::vector<uint64_t> b);

inline const QuerySet& SetOf(const Inputs& in, const OpRecord& r) {
  return in.loop_sets[r.filter];
}

/// Checks the completed requests and marks wrong answers as failed
/// (Fail::kCheck); acknowledged insert ids are appended to `acked`. With
/// `reference_draws` (read-only workloads) draws must equal
/// BstSampler::SampleBatch run here on the daemon's own tree;
/// reconstructions must equal the exact answer over `occupied`.
void Verify(const Inputs& in, Daemon* d, const std::vector<uint64_t>& occupied,
            bool reference_draws, std::vector<OpRecord>* records,
            std::vector<uint64_t>* acked);

/// How long a phase may go without progress before the watchdog ends the
/// run.
inline constexpr double kWatchdogSeconds = 60;

/// Progress beacon for the watchdog: names the phase that moved.
void Progress(const char* phase);

/// Ends the process with exit code 3 and a named failure on stderr when
/// no phase reports progress for `limit_s`: a wedged daemon (README F1)
/// must not hang the benchmark. It exits from its own thread because the
/// stuck threads cannot be joined.
class Watchdog {
 public:
  explicit Watchdog(double limit_s);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  void Body();

  const double limit_ns_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace servebench

#endif  // SERVEBENCH_BENCH_H_
