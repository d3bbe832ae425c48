// Metrics of one run: the end-to-end figures of an untraced run, the
// per-layer figures of a traced one, and the final JSON line.
#ifndef SERVEBENCH_REPORT_H_
#define SERVEBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "servebench/bench.h"

namespace servebench {

/// Printed as one JSON line ahead of the result.
struct HostFacts {
  std::string cpuset;
  std::string simd;
  std::string load_mode;
  std::string commit;
  std::string workload;
  uint64_t seed = 0;
  bool trace = false;
  /// Share of CPU time the hypervisor stole during the closed loop.
  double steal_pct = 0;
  void Print() const;
};

/// The CPU time the hypervisor stole from the CPUs this process runs on
/// (/proc/stat) between construction and Stop(). A shared host steals in
/// phases that last seconds to minutes and stretch every request they
/// overlap; the share is printed with the host facts.
class StealMonitor {
 public:
  StealMonitor() : cpus_(OwnCpus()), start_(Read()) {}
  void Stop() { end_ = Read(); }
  /// Stolen share of the CPU time between the two readings, in percent.
  double StealPct() const;

 private:
  struct Sample {
    uint64_t steal = 0;
    uint64_t total = 0;
  };
  static std::vector<int> OwnCpus();
  Sample Read() const;

  const std::vector<int> cpus_;
  const Sample start_;
  Sample end_;
};

struct LayerValue {
  double value = 0;
  std::string base;  ///< what a ratio or mean is taken over
};

struct RunResult {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

class Report {
 public:
  Report(const WorkloadSpec& spec, bool trace) : spec_(spec), trace_(trace) {}

  double setup_s = 0;
  double rss_mb = 0;
  uint64_t coalesce_requests = 0;
  uint64_t coalesce_batches = 0;
  uint64_t fsyncs = 0;
  uint64_t commit_groups = 0;

  /// The closed loop's requests, run over [t0, deadline), and the CPU
  /// time the whole process (client and daemon threads) spent on them.
  void AddLoop(const std::vector<OpRecord>& records, int64_t t0,
               int64_t deadline, int64_t cpu_ns);
  void AddRecovery(const std::string& why);
  /// tree_io.* and trace.* from the spans.
  void AddSpans(const Tracer& tracer);
  void SetLayer(const std::string& name, double value,
                const std::string& base = "");
  double Layer(const std::string& name) const;

  /// Per-op counts, then the layer table (traced runs), then the result.
  RunResult Print();

 private:
  struct OpStats {
    uint64_t attempted = 0;
    uint64_t failed[kFailKinds] = {};
    std::vector<double> micros;
    std::vector<std::string> why;
  };

  const WorkloadSpec spec_;
  const bool trace_;
  OpStats ops_[kOpCount];
  OpStats recovery_;
  std::vector<bool> loop_sample_traced_;  ///< per completed SAMPLE
  double cpu_us_per_request_ = 0;  ///< per completed loop request
  double ops_per_s_ = 0;
  double inserts_per_s_ = 0;
  uint64_t acked_ids_ = 0;
  std::map<std::string, LayerValue> layers_;
};

/// The traced run's layer-by-layer pass: the same inputs through each
/// layer's public functions, serially, with the daemon idle. Ids it
/// applies through the pipeline are appended to `applied`.
void MeasureLayers(Inputs* in, Daemon* d, const std::vector<OpRecord>& records,
                   Tracer* tracer, Report* report,
                   std::vector<uint64_t>* applied);

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_work";
  std::string commit = "unknown";
  std::string cpuset;  ///< as pinned, for the host facts
};

/// One full run of `spec`: set-up, closed loop, checks, (traced: layers),
/// recovery, report. Returns the process exit code; 1 when the
/// daemon could not be set up.
int RunWorkload(const WorkloadSpec& spec, const RunOptions& options,
                RunResult* result);

/// Self-test of the checks on tiny geometry, in seconds: clean runs of
/// every mix report no failure, doctored answers each fail, and the
/// watchdog ends a stalled phase. Returns 0 when all of that holds.
int RunSelfTest(const RunOptions& options);

}  // namespace servebench

#endif  // SERVEBENCH_REPORT_H_
