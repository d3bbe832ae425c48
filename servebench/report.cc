#include "servebench/report.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <iterator>

namespace servebench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every workload reports. The other figures of a
// run (latencies, throughput, tails) are printed as comment lines: on a
// shared host they follow the hypervisor's steal from run to run and do
// not repeat within a bound (README.md, "Metrics").
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"rss_mb", "MB"},
    {"cpu_us_per_request", "us"},
};

const MetricDef kPerLayer[] = {
    {"hash.ns_per_key", "ns"},
    {"hash.membership_tests_per_reconstruct", "count"},
    {"simd.and_popcount_ns", "ns"},
    {"simd.intersections_per_request", "count"},
    {"simd.bytes_per_request", "B"},
    {"simd.set_bit_count_us", "us"},
    {"descent.context_build_us", "us"},
    {"descent.sample_cold_us", "us"},
    {"descent.reconstruct_cold_us", "us"},
    {"descent.sample_warm_us", "us"},
    {"descent.cache_hit_ratio", "ratio"},
    {"forest.s1_sample_cold_us", "us"},
    {"forest.s1_reconstruct_cold_us", "us"},
    {"tree_io.build_s", "s"},
    {"tree_io.save_s", "s"},
    {"tree_io.open_ms", "ms"},
    {"tree_io.first_request_us", "us"},
    {"ingest.tree_insert_us", "us"},
    {"ingest.apply_us", "us"},
    {"ingest.fsyncs_per_insert", "count"},
    {"ingest.commit_groups_per_insert", "count"},
    {"server.ping_rtt_us", "us"},
    {"server.request_bytes", "B"},
    {"server.decode_us", "us"},
    {"server.coalesce_ratio", "ratio"},
    {"server.handoff_us", "us"},
    {"trace.sample_p50_us", "us"},
    {"trace.overhead_us", "us"},
};

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

std::vector<int> StealMonitor::OwnCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

StealMonitor::Sample StealMonitor::Read() const {
  Sample s;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return s;
  char line[512];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    int cpu = -1;
    uint64_t v[8] = {};
    if (std::sscanf(line,
                    "cpu%d %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
                    " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64,
                    &cpu, &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                    &v[7]) != 9 ||
        std::find(cpus_.begin(), cpus_.end(), cpu) == cpus_.end()) {
      continue;
    }
    for (uint64_t x : v) s.total += x;
    s.steal += v[7];
  }
  std::fclose(f);
  return s;
}

double StealMonitor::StealPct() const {
  return end_.total > start_.total
             ? 100.0 * (end_.steal - start_.steal) / (end_.total - start_.total)
             : 0.0;
}

void HostFacts::Print() const {
  std::printf(
      "{\"host\": {\"nproc\": %ld, \"cpuset\": \"%s\", \"simd\": \"%s\", "
      "\"load_mode\": \"%s\", \"wal_policy\": \"every-record\", "
      "\"commit\": \"%s\", \"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"trace\": %d, \"steal_pct\": %.1f}}\n",
      sysconf(_SC_NPROCESSORS_ONLN), cpuset.c_str(), simd.c_str(),
      load_mode.c_str(), commit.c_str(), workload.c_str(), seed,
      trace ? 1 : 0, steal_pct);
}

void Report::AddLoop(const std::vector<OpRecord>& records, int64_t t0,
                     int64_t deadline, int64_t cpu_ns) {
  uint64_t completed = 0;
  for (const OpRecord& r : records) {
    OpStats& s = ops_[static_cast<int>(r.op)];
    ++s.attempted;
    if (r.fail != Fail::kNone) {
      ++s.failed[static_cast<int>(r.fail)];
      if (s.why.size() < 3) s.why.push_back(r.why);
      continue;
    }
    ++completed;
    s.micros.push_back(r.micros());
    if (r.op == Op::kInsert) acked_ids_ += r.ids.size();
    if (r.op == Op::kSample) loop_sample_traced_.push_back(r.traced);
  }
  const double seconds = static_cast<double>(deadline - t0) / 1e9;
  ops_per_s_ = completed / seconds;
  inserts_per_s_ = acked_ids_ / seconds;
  cpu_us_per_request_ =
      completed == 0 ? 0.0 : static_cast<double>(cpu_ns) / 1e3 / completed;
}

void Report::AddRecovery(const std::string& why) {
  ++recovery_.attempted;
  if (!why.empty()) {
    ++recovery_.failed[static_cast<int>(Fail::kCheck)];
    recovery_.why.push_back(why);
  }
}

void Report::AddSpans(const Tracer& tracer) {
  SetLayer("tree_io.build_s", Median(tracer.Micros("tree_io.build")) / 1e6,
           "median of " + std::to_string(spec_.setups) + " set-ups");
  SetLayer("tree_io.save_s", Median(tracer.Micros("tree_io.save")) / 1e6,
           "median of " + std::to_string(spec_.setups) + " set-ups");
  SetLayer("tree_io.open_ms", Median(tracer.Micros("tree_io.open")) / 1e3,
           "median of " + std::to_string(spec_.setups) + " set-ups");
  SetLayer("tree_io.first_request_us",
           Median(tracer.Micros("tree_io.first_request")),
           "first SAMPLE after start, median of " +
               std::to_string(spec_.setups) + " set-ups");
  std::vector<double> untraced;
  std::vector<double> traced;
  const std::vector<double>& samples = ops_[0].micros;
  for (size_t i = 0; i < samples.size(); ++i) {
    (loop_sample_traced_[i] ? traced : untraced).push_back(samples[i]);
  }
  SetLayer("trace.sample_p50_us", Median(traced),
           std::to_string(traced.size()) + " traced SAMPLEs");
  SetLayer("trace.overhead_us", Median(traced) - Median(untraced),
           "traced p50 minus untraced p50 of interleaved rounds (" +
               std::to_string(untraced.size()) + " untraced SAMPLEs)");
}

void Report::SetLayer(const std::string& name, double value,
                      const std::string& base) {
  layers_[name] = {value, base};
}

double Report::Layer(const std::string& name) const {
  auto it = layers_.find(name);
  return it == layers_.end() ? 0.0 : it->second.value;
}

RunResult Report::Print() {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  auto line = [&](const char* name, const OpStats& s) {
    uint64_t f = 0;
    for (int k = 1; k < kFailKinds; ++k) f += s.failed[k];
    attempted += s.attempted;
    failed += f;
    if (s.failed[static_cast<int>(Fail::kCheck)] > 0) correct = false;
    std::printf("# %s: attempted %" PRIu64 ", failed %" PRIu64, name,
                s.attempted, f);
    for (int k = 1; k < kFailKinds; ++k) {
      std::printf(", %s %" PRIu64, FailName(static_cast<Fail>(k)), s.failed[k]);
    }
    std::printf("\n");
    for (const std::string& w : s.why) std::printf("#   %s\n", w.c_str());
  };
  for (int op = 0; op < kOpCount; ++op) line(OpName(static_cast<Op>(op)), ops_[op]);
  line("recovery", recovery_);

  std::string metrics;
  auto add = [&](const MetricDef& def, double v) {
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + def.name +
               "\": {\"value\": " + Fmt(v) + ", \"unit\": \"" + def.unit +
               "\"}";
  };
  if (!trace_) {
    auto tail = [&](Op op) {
      const OpStats& s = ops_[static_cast<int>(op)];
      const double q = spec_.tail_q[static_cast<int>(op)];
      const size_t n = s.micros.size();
      const size_t beyond =
          n - static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
      std::printf("# %s: %zu completed, tail is p%.0f%s\n",
                  OpName(op), n, q * 100,
                  beyond < 10 ? " (fewer than 10 samples beyond it)" : "");
      return Quantile(s.micros, q);
    };
    const double values[] = {setup_s, rss_mb, cpu_us_per_request_};
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) add(kEndToEnd[i], values[i]);
    std::printf("# figure ops_per_s %s 1/s, sample_p50_us %s us, "
                "sample_tail_us %s us\n",
                Fmt(ops_per_s_).c_str(), Fmt(Median(ops_[0].micros)).c_str(),
                Fmt(tail(Op::kSample)).c_str());
    if (!ops_[1].micros.empty()) {
      const double t = tail(Op::kReconstruct);
      std::printf("# figure reconstruct_p50_us %s us, reconstruct_tail_us %s us\n",
                  Fmt(Median(ops_[1].micros)).c_str(), Fmt(t).c_str());
    }
    if (!ops_[2].micros.empty()) {
      const double t = tail(Op::kInsert);
      std::printf("# figure insert_p50_us %s us, insert_tail_us %s us, "
                  "inserts_per_s %s 1/s\n",
                  Fmt(Median(ops_[2].micros)).c_str(), Fmt(t).c_str(),
                  Fmt(inserts_per_s_).c_str());
    }
  } else {
    const double ids = static_cast<double>(std::max<uint64_t>(acked_ids_, 1));
    SetLayer("ingest.fsyncs_per_insert", fsyncs / ids,
             std::to_string(fsyncs) + " fsyncs over " +
                 std::to_string(acked_ids_) + " ids inserted through the daemon");
    SetLayer("ingest.commit_groups_per_insert", commit_groups / ids,
             std::to_string(commit_groups) + " commit groups over " +
                 std::to_string(acked_ids_) + " ids");
    SetLayer("server.coalesce_ratio",
             coalesce_batches == 0
                 ? 0.0
                 : static_cast<double>(coalesce_requests) / coalesce_batches,
             std::to_string(coalesce_requests) + " SAMPLE requests in " +
                 std::to_string(coalesce_batches) + " tree passes");
    // The tree pass of a cold request builds its context; a hot one
    // reuses a pooled context.
    const double pass = spec_.mix == Mix::kCold
                            ? Layer("descent.sample_cold_us")
                            : Layer("descent.sample_warm_us");
    const double client = Layer("trace.sample_p50_us");
    const double ping = Layer("server.ping_rtt_us");
    const double decode = Layer("server.decode_us");
    const double handoff = client - ping - decode - pass;
    SetLayer("server.handoff_us", handoff,
             "traced client SAMPLE p50 minus ping, decode and tree pass");
    std::printf(
        "# reconcile sample_p50_us (traced run): %.1f = ping %.1f + decode "
        "%.1f + tree pass %.1f + handoff %.1f\n",
        client, ping, decode, pass, handoff);
    for (const MetricDef& def : kPerLayer) {
      const auto it = layers_.find(def.name);
      const LayerValue v = it == layers_.end() ? LayerValue{} : it->second;
      std::printf("# layer %-40s %14s %-5s %s\n", def.name, Fmt(v.value).c_str(),
                  def.unit, v.base.c_str());
      add(def, v.value);
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"metrics\": {%s}}\n",
      correct ? "true" : "false", attempted, failed, metrics.c_str());
  std::fflush(stdout);
  return {correct, attempted, failed};
}

}  // namespace servebench
