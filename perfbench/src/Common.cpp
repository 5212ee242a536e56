//===- perfbench/src/Common.cpp - Shared harness plumbing -----------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "problems/ProblemRegistry.h"
#include "trace/TraceJson.h"
#include "trace/TraceRead.h"
#include "trace/TraceSummary.h"

#include <charconv>
#include <cstdio>
#include <map>
#include <thread>

#include <unistd.h>

using namespace atc;

namespace pb {

namespace {

/// Shortest decimal form that reads back as exactly \p V.
std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  auto Res = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, Res.ptr);
}

} // namespace

void Report::endToEnd(const std::string &Name, double Value,
                      const char *Unit) {
  Metrics.push_back({Name, Value, Unit, true});
}

void Report::layer(const std::string &Name, double Value, const char *Unit) {
  Metrics.push_back({Name, Value, Unit, false});
}

void Report::fail(const std::string &Why) { Errors.push_back(Why); }

void Report::print(bool Traced) const {
  for (const std::string &N : Notes)
    std::printf("# %s\n", N.c_str());
  for (const Metric &M : Metrics)
    std::printf("%-12s %-34s %16.6g %s\n",
                M.EndToEnd ? (Traced ? "e2e(traced)" : "e2e") : "layer",
                M.Name.c_str(), M.Value, M.Unit.c_str());
  for (const std::string &E : Errors)
    std::printf("! %s\n", E.c_str());
  std::printf("operations: attempted %llu succeeded %llu failed %llu\n",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Attempted - Failed),
              static_cast<unsigned long long>(Failed));

  std::string Json = "{\"correct\": ";
  Json += Errors.empty() ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Attempted) +
          ", \"failed\": " + std::to_string(Failed) + ", \"metrics\": {";
  bool First = true;
  for (const Metric &M : Metrics) {
    if (M.EndToEnd == Traced)
      continue;
    Json += First ? "" : ", ";
    First = false;
    Json += "\"" + M.Name + "\": {\"value\": " + jsonNumber(M.Value) +
            ", \"unit\": \"" + M.Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
}

void reportWindowed(Report &R, const std::vector<TimedSample> &Ops,
                    std::uint64_t StartNs, std::uint64_t EndNs) {
  // Throughput and p50 need few samples: always RateWindows windows.
  std::vector<double> Rate, P50, P99;
  double RunS = msBetween(StartNs, EndNs) / 1e3;
  std::string Line = std::to_string(Ops.size()) + " operations in " +
                     std::to_string(RunS) + " s; per window (1/s p50):";
  for (std::vector<double> &W :
       splitWindows(Ops, StartNs, EndNs, RateWindows)) {
    Rate.push_back(static_cast<double>(W.size()) / (RunS / RateWindows));
    P50.push_back(percentile(W, 50));
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), " [%.2f %.3f]", Rate.back(), P50.back());
    Line += Buf;
  }
  // p99 windows keep MinWindowSamples operations each.
  int N99 = static_cast<int>(std::clamp<std::size_t>(
      Ops.size() / MinWindowSamples, 1, MaxP99Windows));
  Line += "; p99 per window:";
  for (std::vector<double> &W : splitWindows(Ops, StartNs, EndNs, N99)) {
    P99.push_back(percentile(W, 99));
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), " %.3f", P99.back());
    Line += Buf;
  }
  R.note(Line);
  R.endToEnd("throughput_per_s", percentile(Rate, 50), "1/s");
  R.endToEnd("latency_ms.p50", percentile(P50, 50), "ms");
  R.endToEnd("latency_ms.p99", percentile(P99, 50), "ms");
}

double peakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve and so
  // reports the launching process's peak when that was larger.
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  double KiB = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmHWM: %lf kB", &KiB) == 1)
      break;
  std::fclose(F);
  return KiB / 1024.0;
}

int hostThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : static_cast<int>(N);
}

void recordSpan(SpanLog *Log, const char *Name, std::uint64_t Id,
                std::uint64_t Parent, std::uint64_t Req,
                std::uint64_t StartNs, std::uint64_t EndNs) {
  if (Log)
    Log->record({Name, Id ? Id : Log->newId(), Parent, Req, StartNs, EndNs});
}

void finishSpans(const SpanLog &Log, const std::string &Path, Report &R) {
  std::vector<Span> Spans = Log.spans();
  std::vector<std::uint64_t> Self = selfTimesNs(Spans);
  std::uint64_t T0 = ~std::uint64_t{0};
  for (const Span &S : Spans)
    T0 = std::min(T0, S.StartNs);

  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    R.fail("cannot write span file " + Path);
    return;
  }
  std::fputs("{\"spans\": [\n", F);
  for (std::size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"req\": %llu, \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"self_us\": %.3f}",
                 I ? ",\n" : "", S.Name.c_str(),
                 static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent),
                 static_cast<unsigned long long>(S.Req),
                 static_cast<double>(S.StartNs - T0) / 1e3,
                 static_cast<double>(S.EndNs - T0) / 1e3,
                 static_cast<double>(Self[I]) / 1e3);
  }
  std::fputs("\n]}\n", F);
  std::fclose(F);

  struct Totals {
    std::uint64_t Count = 0, TotalNs = 0, SelfNs = 0;
  };
  std::map<std::string, Totals> ByName;
  for (std::size_t I = 0; I != Spans.size(); ++I) {
    Totals &T = ByName[Spans[I].Name];
    ++T.Count;
    T.TotalNs += Spans[I].EndNs - Spans[I].StartNs;
    T.SelfNs += Self[I];
  }
  R.note("spans written to " + Path);
  for (const auto &[Name, T] : ByName) {
    char Buf[200];
    std::snprintf(Buf, sizeof(Buf),
                  "span %-22s count %7llu  total %10.3f ms  self %10.3f ms",
                  Name.c_str(), static_cast<unsigned long long>(T.Count),
                  static_cast<double>(T.TotalNs) / 1e6,
                  static_cast<double>(T.SelfNs) / 1e6);
    R.note(Buf);
  }
}

void reportStatCounters(Report &R, const SchedulerStats &Sum,
                        std::uint64_t Ops, int HighWater) {
  double N = Ops ? static_cast<double>(Ops) : 1.0;
  auto PerOp = [&](std::uint64_t V) { return static_cast<double>(V) / N; };
  R.layer("core.special_tasks", PerOp(Sum.SpecialTasks), "count/op");
  R.layer("core.steal_wait_ms", PerOp(Sum.StealWaitNs) / 1e6, "ms/op");
  R.layer("core.wait_children_ms", PerOp(Sum.WaitChildrenNs) / 1e6, "ms/op");
  R.layer("core.copied_bytes", PerOp(Sum.CopiedBytes), "B/op");
  R.layer("core.workspace_copies", PerOp(Sum.WorkspaceCopies), "count/op");
  R.layer("core.pool_overflows", PerOp(Sum.PoolOverflows), "count/op");
  R.layer("deque.steal_attempts", PerOp(Sum.StealAttempts), "count/op");
  R.layer("deque.steals", PerOp(Sum.Steals), "count/op");
  R.layer("deque.steal_success_ratio",
          Sum.StealAttempts ? static_cast<double>(Sum.Steals) /
                                  static_cast<double>(Sum.StealAttempts)
                            : 0.0,
          "ratio");
  R.layer("deque.lock_acquires", PerOp(Sum.LockAcquires), "count/op");
  R.layer("deque.cas_retries", PerOp(Sum.CasRetries), "count/op");
  R.layer("deque.high_water", HighWater, "count");
}

bool TraceAgg::add(const TraceLog &Log, double SeqMs, const std::string &Dir,
                   SpanLog *Spans, std::uint64_t Parent, std::uint64_t Req,
                   std::string &Error) {
  std::string Path =
      Dir + "/trace-scratch-" + std::to_string(getpid()) + ".json";
  std::uint64_t T0 = nowNanos();
  if (!writeChromeTraceFile(Log, Path)) {
    Error = "cannot write " + Path;
    return false;
  }
  std::uint64_t T1 = nowNanos();
  ParsedTrace Parsed;
  bool Ok = readTraceFile(Path, Parsed, Error);
  std::remove(Path.c_str());
  if (!Ok)
    return false;
  std::uint64_t T2 = nowNanos();
  TraceSummary S = summarizeTrace(Parsed);
  std::uint64_t T3 = nowNanos();
  if (Spans) {
    recordSpan(Spans, "trace.export", 0, Parent, Req, T0, T1);
    recordSpan(Spans, "trace.read", 0, Parent, Req, T1, T2);
    recordSpan(Spans, "trace.summarize", 0, Parent, Req, T2, T3);
  }

  for (const WorkerSummary &W : S.Workers) {
    BusyUs += W.BusyUs;
    IdleUs += W.IdleUs;
    SyncUs += W.SyncUs;
    auto It = W.ModeUs.find("check");
    if (It != W.ModeUs.end())
      CheckUs += It->second;
  }
  StealUs.insert(StealUs.end(), S.StealLatenciesUs.begin(),
                 S.StealLatenciesUs.end());
  ReseedUs.insert(ReseedUs.end(), S.ReseedLatenciesUs.begin(),
                  S.ReseedLatenciesUs.end());
  SeqUs += SeqMs * 1e3;
  ++Solves;
  return true;
}

void TraceAgg::report(Report &R) const {
  double Total = BusyUs + IdleUs + SyncUs;
  auto Share = [&](double V) { return Total > 0 ? V / Total : 0.0; };
  R.layer("core.busy_share", Share(BusyUs), "ratio");
  R.layer("core.idle_share", Share(IdleUs), "ratio");
  R.layer("core.sync_wait_share", Share(SyncUs), "ratio");
  R.layer("core.fake_share", BusyUs > 0 ? CheckUs / BusyUs : 0.0, "ratio");
  R.layer("core.work_inflation", SeqUs > 0 ? BusyUs / SeqUs : 0.0, "ratio");
  R.layer("core.reseed_latency_us.p50", percentile(ReseedUs, 50), "us");
  R.layer("deque.steal_latency_us.p50", percentile(StealUs, 50), "us");
  R.layer("deque.steal_latency_us.p90", percentile(StealUs, 90), "us");
  R.note("trace summaries: " + std::to_string(Solves) + " solves, " +
         std::to_string(StealUs.size()) + " steal episodes, " +
         std::to_string(ReseedUs.size()) + " reseeds");
}

void probeFixedCosts(SchedulerPool &Pool, Report &R) {
  constexpr int DispatchRounds = 2000;
  std::vector<double> DispatchUs;
  DispatchUs.reserve(DispatchRounds);
  std::function<void(int)> Empty = [](int) {};
  for (int I = 0; I != DispatchRounds; ++I) {
    std::uint64_t T0 = nowNanos();
    Pool.dispatch(Pool.size(), Empty);
    DispatchUs.push_back(static_cast<double>(nowNanos() - T0) / 1e3);
  }
  R.layer("core.pool_dispatch_us.p50", percentile(DispatchUs, 50), "us");
  R.layer("core.pool_dispatch_us.p99", percentile(DispatchUs, 99), "us");

  // fib:1 is a single leaf: the run is all per-run fixed cost (runtime
  // set-up, pool wake, termination, stats roll-up).
  ProblemRunner Tiny;
  std::string Err;
  if (!makeProblemRunner("fib", 1, Tiny, Err)) {
    R.fail(Err);
    return;
  }
  SchedulerConfig Cfg;
  Cfg.NumWorkers = Pool.size();
  Cfg.Executor = &Pool;
  constexpr int RunRounds = 500;
  std::vector<double> RunUs;
  for (int I = 0; I != RunRounds; ++I) {
    std::uint64_t T0 = nowNanos();
    long long V = Tiny.Run(Cfg).Value;
    RunUs.push_back(static_cast<double>(nowNanos() - T0) / 1e3);
    ++R.Attempted;
    if (V != 1) {
      ++R.Failed;
      R.fail("fib:1 returned " + std::to_string(V));
    }
  }
  R.layer("core.run_fixed_us", percentile(RunUs, 50), "us");
}

} // namespace pb
