// Self-test of the benchmark's checks on a tiny geometry (runs in a few
// seconds): clean runs of every mix must report no failed operation, each
// doctored answer must be reported as a failed operation, and the watchdog
// must end a stalled phase with a named failure.
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "servebench/bench.h"
#include "servebench/report.h"
#include "src/server/client.h"

namespace servebench {

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("# selftest %s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

/// A child process arms a 0.3 s watchdog and stalls; it must exit with
/// code 3 and name the phase on stderr. Runs before any thread exists.
void WatchdogStall() {
  int err[2];
  if (pipe(err) != 0) {
    Expect(false, "watchdog: pipe");
    return;
  }
  const pid_t pid = fork();
  if (pid == 0) {
    dup2(err[1], 2);
    close(err[0]);
    Watchdog watchdog(0.3);
    Progress("stalled-phase");
    sleep(10);
    _exit(0);
  }
  close(err[1]);
  std::string text;
  char buf[256];
  ssize_t n;
  while ((n = read(err[0], buf, sizeof(buf))) > 0) text.append(buf, n);
  close(err[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  Expect(WIFEXITED(status) && WEXITSTATUS(status) == 3 &&
             text.find("phase 'stalled-phase'") != std::string::npos,
         "watchdog ends a stalled phase: " + text.substr(0, text.find('\n')));
}

/// Runs Verify over one record and reports whether it was failed as
/// expected, with the reason Verify gave.
void ExpectVerdict(const Inputs& in, Daemon* d, OpRecord r, bool fail,
                   const std::string& what) {
  std::vector<OpRecord> records{std::move(r)};
  std::vector<uint64_t> acked;
  Verify(in, d, in.occupied, /*reference_draws=*/true, &records, &acked);
  Expect((records[0].fail == Fail::kCheck) == fail,
         what + (records[0].why.empty() ? "" : ": " + records[0].why));
}

/// Real answers from a tiny daemon, then doctored copies of them.
void DoctoredAnswers(const std::string& work_dir) {
  Tracer tracer(false);
  Inputs in = MakeInputs(TinyWorkload(Mix::kHot), 7);
  auto up = SetUp(in, work_dir, &tracer);
  if (!up.ok()) {
    Expect(false, "tiny set-up: " + up.status().ToString());
    return;
  }
  Daemon* d = up.value().get();
  auto client = server::BsrClient::Connect(d->server->address(),
                                           server::ClientOptions());
  if (!client.ok()) {
    Expect(false, "connect: " + client.status().ToString());
    return;
  }
  const QuerySet& set = in.loop_sets[0];
  OpRecord sample;
  sample.op = Op::kSample;
  sample.count = 8;
  sample.seed = 99;
  auto draws = client.value()->Sample(set.bytes, sample.count, sample.seed);
  if (draws.ok()) {
    for (const auto& x : draws.value()) {
      sample.ids.push_back(x.has_value() ? *x : server::kNullDraw);
    }
  }
  OpRecord recon;
  recon.op = Op::kReconstruct;
  auto out = client.value()->Reconstruct(set.bytes, true);
  if (out.ok()) recon.ids = out.value();
  Expect(draws.ok() && out.ok(), "daemon answers SAMPLE and RECONSTRUCT");

  std::vector<uint64_t> members;  // S ∩ occupied
  std::set_intersection(set.ids.begin(), set.ids.end(), in.occupied.begin(),
                        in.occupied.end(), std::back_inserter(members));
  ExpectVerdict(in, d, sample, false, "clean draws pass");
  ExpectVerdict(in, d, recon, false, "clean reconstruction passes");

  OpRecord dropped = recon;
  if (!members.empty()) {
    dropped.ids.erase(std::find(dropped.ids.begin(), dropped.ids.end(),
                                members.front()));
  }
  ExpectVerdict(in, d, dropped, true, "dropped id is a failed operation");

  OpRecord non_member = sample;
  uint64_t outsider = 0;
  while (std::binary_search(in.occupied.begin(), in.occupied.end(), outsider)) {
    ++outsider;
  }
  non_member.ids[0] = outsider;
  ExpectVerdict(in, d, non_member, true, "non-member draw is a failed operation");

  // A valid member of S ∩ occupied, but not the draw the engine makes:
  // only the draw-for-draw comparison can see it.
  OpRecord altered = sample;
  for (uint64_t x : members) {
    if (x != altered.ids[0]) {
      altered.ids[0] = x;
      break;
    }
  }
  ExpectVerdict(in, d, altered, true, "altered draw is a failed operation");

  // On a workload that writes, a draw may be an inserted id only if its
  // INSERT began before the SAMPLE ended.
  uint64_t fresh = 0;
  for (uint64_t x : set.ids) {
    if (!std::binary_search(in.occupied.begin(), in.occupied.end(), x)) {
      fresh = x;
      break;
    }
  }
  for (bool before : {true, false}) {
    OpRecord draw = sample;
    draw.ids[0] = fresh;
    draw.start_ns = 1000;
    draw.end_ns = 2000;
    OpRecord insert;
    insert.op = Op::kInsert;
    insert.ids = {fresh};
    insert.start_ns = before ? 500 : 3000;
    std::vector<OpRecord> records{draw, insert};
    std::vector<uint64_t> acked;
    Verify(in, d, in.occupied, /*reference_draws=*/false, &records, &acked);
    Expect((records[0].fail == Fail::kCheck) != before,
           before ? "draw of an id inserted before the SAMPLE ended passes"
                  : "draw of an id inserted after the SAMPLE ended is a "
                    "failed operation: " + records[0].why);
  }

  // Recovery: acknowledged inserts survive a reopen; a lost one fails.
  const std::vector<uint64_t> ids = in.NextInsertIds(kIdsPerInsert);
  const Status inserted = client.value()->Insert(ids);
  client.value()->Close();
  const Status stopped = Stop(d);
  auto reopened = LoadTreeFromFile(d->path, LoadOptions::FromEnv());
  Expect(inserted.ok() && stopped.ok() && reopened.ok(),
         "insert, drain and reopen");
  if (reopened.ok()) {
    const std::vector<uint64_t> recovered = reopened.value().occupied();
    const std::string clean = CheckRecovery(recovered, in.occupied,
                                            SortedUnion({}, ids), in.sent);
    Expect(clean.empty(), "recovery holds base ∪ acknowledged " + clean);
    std::vector<uint64_t> lost = recovered;
    lost.erase(std::find(lost.begin(), lost.end(), ids[3]));
    Report report(in.spec, false);
    report.AddRecovery(
        CheckRecovery(lost, in.occupied, SortedUnion({}, ids), in.sent));
    std::printf("# (report of the doctored recovery follows)\n");
    const RunResult r = report.Print();
    Expect(r.failed == 1 && !r.correct,
           "lost acknowledged insert is a failed operation");
  }
  RemoveFiles(d->path);
}

}  // namespace

int RunSelfTest(const RunOptions& options) {
  WatchdogStall();
  Watchdog watchdog(kWatchdogSeconds);
  mkdir(options.work_dir.c_str(), 0755);
  DoctoredAnswers(options.work_dir);
  for (Mix mix : {Mix::kCold, Mix::kHot, Mix::kIngest}) {
    for (bool trace : {false, true}) {
      RunOptions o = options;
      o.seed = 11;
      o.seconds = 1;
      o.trace = trace;
      RunResult result;
      const WorkloadSpec spec = TinyWorkload(mix);
      const int rc = RunWorkload(spec, o, &result);
      Expect(rc == 0 && result.correct && result.failed == 0 &&
                 result.attempted > 0,
             "clean tiny run, mix " + std::to_string(static_cast<int>(mix)) +
                 (trace ? " traced" : "") + ": " +
                 std::to_string(result.attempted) + " attempted, " +
                 std::to_string(result.failed) + " failed");
    }
  }
  std::printf("# selftest: %s\n", g_failures == 0 ? "passed" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace servebench
