// serve_bench — drives an in-process BsrServer (the code behind `bsr
// serve`) through BsrClient on one of three closed-loop workloads, checks
// every answer against computations made apart from the daemon, and prints
// the metrics as one JSON line. See README.md.
//
//   serve_bench --workload serve_cold|serve_hot|ingest_mixed --seed N
//               --seconds S --trace 0|1 [--work-dir DIR] [--commit REV]
//   serve_bench --selftest [--work-dir DIR]
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <thread>

#include "servebench/bench.h"
#include "servebench/report.h"
#include "src/server/client.h"
#include "src/util/simd.h"

namespace servebench {

namespace {

struct Args {
  std::string workload;
  bool selftest = false;
  RunOptions run;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->run.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->run.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      a->run.trace = val == "1";
    } else if (key == "--work-dir") {
      a->run.work_dir = val;
    } else if (key == "--commit") {
      a->run.commit = val;
    } else {
      return false;
    }
  }
  return a->selftest || (!a->workload.empty() && a->run.seconds > 0);
}

/// CPUs the process keeps (see PinToCpus). On one CPU every hand-off
/// between the client, the event loop and the workers is a local context
/// switch; spread over several vCPUs each costs a cross-CPU wake-up whose
/// price follows the load of the shared host (README.md, "Metrics").
constexpr int kCpus = 1;

/// Restricts this process (threads started later inherit it) to the last
/// `want` CPUs it may run on; returns the CPU list it kept. Touches only
/// the process's own affinity.
std::string PinToCpus(int want) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "unchanged";
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  if (cpus.size() > static_cast<size_t>(want)) {
    cpus.erase(cpus.begin(), cpus.end() - want);
    cpu_set_t keep;
    CPU_ZERO(&keep);
    for (int c : cpus) CPU_SET(c, &keep);
    if (sched_setaffinity(0, sizeof(keep), &keep) != 0) return "unchanged";
  }
  std::string out;
  for (int c : cpus) out += (out.empty() ? "" : ",") + std::to_string(c);
  return out;
}

double PeakRssMb() {
  rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// CPU time of every thread of the process. The kernel leaves out time
/// the hypervisor stole, so a busy host slows it less than wall time.
int64_t ProcessCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// --- the closed loops ---------------------------------------------------

/// Sends one request and records its answer. A traced request records its
/// client span inside the timed interval, so the tracing cost shows in its
/// latency.
void Execute(server::BsrClient* client, const Inputs& in, Tracer* tracer,
             uint64_t request, OpRecord* r) {
  const QuerySet* set = r->op == Op::kInsert ? nullptr : &SetOf(in, *r);
  Status st;
  r->start_ns = NowNs();
  const int64_t span =
      r->traced ? tracer->Begin(std::string("client.") + OpName(r->op), -1,
                                request)
                : -1;
  switch (r->op) {
    case Op::kSample: {
      auto draws = client->Sample(set->bytes, r->count, r->seed);
      st = draws.status();
      if (draws.ok()) {
        for (const auto& d : draws.value()) {
          r->ids.push_back(d.has_value() ? *d : server::kNullDraw);
        }
      }
      break;
    }
    case Op::kReconstruct: {
      auto ids = client->Reconstruct(set->bytes, /*exact=*/true);
      st = ids.status();
      if (ids.ok()) r->ids = std::move(ids).value();
      break;
    }
    case Op::kInsert:
      st = client->Insert(r->ids);
      break;
  }
  tracer->End(span);
  r->end_ns = NowNs();
  r->fail = ClassifyStatus(st);
  if (!st.ok()) r->why = st.ToString();
}

/// The next round of requests one connection sends. Rounds are whole, so
/// every run attempts the same mix.
std::vector<OpRecord> PlanRound(Inputs* in, uint32_t conn, uint64_t* j) {
  std::vector<OpRecord> round;
  auto sample = [&](uint32_t filter) {
    OpRecord r;
    r.op = Op::kSample;
    r.conn = conn;
    r.filter = filter;
    r.count = in->spec.sample_draws;
    r.seed = RequestSeed(in->seed, conn, *j);
    round.push_back(std::move(r));
    ++*j;
  };
  switch (in->spec.mix) {
    case Mix::kCold: {
      // Each connection rotates over its own half of the filters; the odd
      // rotation length gives every filter both op types in turn, and 24
      // other filters pass between two uses of one, so the daemon's
      // 8-entry context pool never hits.
      const uint32_t per_conn =
          static_cast<uint32_t>(in->spec.loop_filters / kConnections);
      sample(conn * per_conn + static_cast<uint32_t>(*j % per_conn));
      OpRecord r;
      r.op = Op::kReconstruct;
      r.conn = conn;
      r.filter = conn * per_conn + static_cast<uint32_t>(*j % per_conn);
      round.push_back(std::move(r));
      ++*j;
      break;
    }
    case Mix::kHot:
      sample(static_cast<uint32_t>((*j + 2 * conn) % in->spec.loop_filters));
      break;
    case Mix::kIngest:
      if (conn == 0) {
        OpRecord r;
        r.op = Op::kInsert;
        r.ids = in->NextInsertIds(kIdsPerInsert);
        round.push_back(std::move(r));
        ++*j;
      } else {
        for (int i = 0; i < kSamplesPerInsert; ++i) {
          sample(static_cast<uint32_t>(*j % in->spec.loop_filters));
        }
      }
      break;
  }
  return round;
}

/// Starts the connections' rounds together, so a loop whose connections
/// send different ops completes them in a fixed ratio.
class RoundBarrier {
 public:
  /// Waits for every connection; returns whether the next round starts
  /// (decided once per round, by the last to arrive).
  bool Arrive(int64_t deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t round = round_;
    if (++waiting_ == kConnections) {
      waiting_ = 0;
      ++round_;
      next_ = NowNs() < deadline;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return round_ != round; });
    }
    return next_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int waiting_ = 0;
  uint64_t round_ = 0;
  bool next_ = true;
};

struct Loop {
  int64_t t0 = 0;
  int64_t deadline = 0;
  /// ingest_mixed runs its rounds in lock step: one INSERT beside
  /// kSamplesPerInsert SAMPLEs, whatever the scheduler favours.
  bool lockstep = false;
  RoundBarrier barrier;
  /// A traced run traces every other round of each connection, so traced
  /// and untraced requests share the same stretch of time.
  bool trace = false;
  std::vector<OpRecord> records;
};

void RunLoop(Inputs* in, const std::string& addr, Tracer* tracer,
             Loop* loop) {
  std::vector<std::vector<OpRecord>> per_conn(kConnections);
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      server::ClientOptions options;
      options.max_retries = 0;  // count every refusal, do not mask it
      auto client = server::BsrClient::Connect(addr, options);
      std::vector<OpRecord>& out = per_conn[c];
      if (!client.ok()) {
        OpRecord r;
        r.conn = c;
        r.fail = Fail::kTransport;
        r.why = client.status().ToString();
        out.push_back(std::move(r));
        return;
      }
      uint64_t j = 0;
      for (uint64_t round = 0;; ++round) {
        if (!loop->lockstep && NowNs() >= loop->deadline) break;
        for (OpRecord& r : PlanRound(in, c, &j)) {
          r.traced = loop->trace && round % 2 == 1;
          Execute(client.value().get(), *in, tracer,
                  (static_cast<uint64_t>(c) << 48) | out.size(), &r);
          out.push_back(std::move(r));
          Progress("measure");
        }
        if (loop->lockstep && !loop->barrier.Arrive(loop->deadline)) break;
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& v : per_conn) {
    for (auto& r : v) loop->records.push_back(std::move(r));
  }
  std::sort(loop->records.begin(), loop->records.end(),
            [](const OpRecord& a, const OpRecord& b) {
              return a.start_ns < b.start_ns;
            });
}

}  // namespace

// --- the run ------------------------------------------------------------

int RunWorkload(const WorkloadSpec& spec, const RunOptions& a,
                RunResult* result) {
  mkdir(a.work_dir.c_str(), 0755);
  Progress("generate");
  Inputs in = MakeInputs(spec, a.seed);
  Tracer tracer(a.trace);
  Report report(spec, a.trace);

  // Set-up, spec.setups times; the last daemon serves the run.
  std::unique_ptr<Daemon> d;
  std::vector<double> setups;
  for (int i = 0; i < spec.setups; ++i) {
    auto up = SetUp(in, a.work_dir, &tracer);
    if (!up.ok()) {
      std::fprintf(stderr, "FAILED set-up: %s\n",
                   up.status().ToString().c_str());
      return 1;
    }
    setups.push_back(up.value()->setup_s);
    // Later set-ups run on memory the first one left to the allocator,
    // so only the first peak repeats from run to run.
    if (i == 0) report.rss_mb = PeakRssMb();
    if (i + 1 < spec.setups) {
      Progress("setup");
      (void)Stop(up.value().get());
      RemoveFiles(up.value()->path);
    } else {
      d = std::move(up).value();
    }
  }
  report.setup_s = Median(setups);
  std::printf("# set-ups (s):");
  for (double secs : setups) std::printf(" %.4f", secs);
  std::printf("\n");

  const std::string addr = d->server->address();
  HostFacts host;
  host.cpuset = a.cpuset;
  host.simd = simd::LevelName(simd::ActiveLevel());
  host.load_mode = TreeLoadMethodName(d->load_info.method);
  host.commit = a.commit;
  host.seed = a.seed;
  host.workload = in.spec.name;
  host.trace = a.trace;

  // The closed loop. A traced run interleaves traced and untraced rounds;
  // the difference of their SAMPLE p50s is the tracing overhead.
  const server::ServerStatsSnapshot stats0 = d->server->stats();
  const IngestPipelineStats ingest0 = d->pipeline->Stats();
  Loop loop;
  loop.t0 = NowNs();
  loop.deadline = loop.t0 + static_cast<int64_t>(a.seconds * 1e9);
  loop.trace = a.trace;
  loop.lockstep = in.spec.mix == Mix::kIngest;
  Progress("measure");

  StealMonitor steal;
  const int64_t cpu0 = ProcessCpuNs();
  RunLoop(&in, addr, &tracer, &loop);
  const int64_t cpu_ns = ProcessCpuNs() - cpu0;
  steal.Stop();
  host.steal_pct = steal.StealPct();
  host.Print();
  const server::ServerStatsSnapshot stats1 = d->server->stats();

  std::vector<OpRecord> records = std::move(loop.records);
  std::vector<uint64_t> acked;
  const bool read_only_loop = in.spec.mix != Mix::kIngest;
  Verify(in, d.get(), in.occupied, read_only_loop, &records, &acked);
  const IngestPipelineStats ingest1 = d->pipeline->Stats();
  if (a.trace) {
    Progress("layers");
    std::vector<uint64_t> applied;
    MeasureLayers(&in, d.get(), records, &tracer, &report, &applied);
    acked.insert(acked.end(), applied.begin(), applied.end());
  }

  // Recovery: reopen the snapshot with its log.
  Progress("recovery");
  const Status stopped = Stop(d.get());
  std::string recovery_why;
  if (!stopped.ok()) {
    recovery_why = "drain: " + stopped.ToString();
  } else {
    auto reopened = LoadTreeFromFile(d->path, LoadOptions::FromEnv());
    recovery_why = reopened.ok()
                       ? CheckRecovery(reopened.value().occupied(),
                                       in.occupied, SortedUnion({}, acked),
                                       in.sent)
                       : "reopen: " + reopened.status().ToString();
  }
  RemoveFiles(d->path);

  report.AddLoop(records, loop.t0, loop.deadline, cpu_ns);
  report.AddRecovery(recovery_why);
  report.coalesce_requests = stats1.sample_requests - stats0.sample_requests;
  report.coalesce_batches = stats1.sample_batches - stats0.sample_batches;
  report.fsyncs = ingest1.fsyncs - ingest0.fsyncs;
  report.commit_groups = ingest1.commit_groups - ingest0.commit_groups;
  if (a.trace) {
    report.AddSpans(tracer);
    const std::string path = a.work_dir + "/trace-" + in.spec.name + "-" +
                             std::to_string(a.seed) + ".json";
    if (Status st = tracer.WriteJson(path); !st.ok()) {
      std::fprintf(stderr, "trace: %s\n", st.ToString().c_str());
    } else {
      std::printf("# spans written to %s\n", path.c_str());
    }
  }
  *result = report.Print();
  return 0;
}

}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--commit REV] | --selftest\n");
    return 2;
  }
  a.run.cpuset = PinToCpus(kCpus);
  if (a.selftest) return RunSelfTest(a.run);
  auto spec = FindWorkload(a.workload);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 2;
  }
  Watchdog watchdog(kWatchdogSeconds);
  RunResult result;
  return RunWorkload(spec.value(), a.run, &result);
}
