//===- perfbench/src/Serve.cpp - Open-loop serving workload ---------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// serve-mixed: a JobServer in this process serves loopback HTTP on an
/// ephemeral port; an open-loop generator sends a seeded Poisson schedule
/// of a heavy-tailed job mix from four tenants (one with online tuning
/// on, a share of jobs carrying deadline_ms), long-polls every result,
/// checks it against the sequential oracle, and scrapes GET /metrics at a
/// fixed cadence. Latency runs from each job's scheduled send time to the
/// moment its terminal record is read, so a stall anywhere before
/// admission — the generator's own included — is charged to the jobs
/// it delays.
///
/// The generator holds at most as many connections as the server has
/// HTTP threads: one sender, one scraper and the rest long-polling
/// results in submission order. A long poll occupies a server HTTP thread,
/// so more would stall the sender's POSTs; fewer (two pollers on a 4-vCPU
/// host) left finished jobs waiting for a free poller behind a heavy one,
/// which charged the client's own queueing to the server.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "metrics/Exposition.h"
#include "problems/ProblemRegistry.h"
#include "server/Server.h"
#include "support/LoopbackHttp.h"
#include "trace/Json.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <thread>

using namespace atc;

namespace pb {

namespace {

struct MixEntry {
  const char *Kind;
  int Size;
  int Weight;
};

/// Mostly sub-millisecond jobs plus a few percent of 5 and 25 ms ones:
/// the heavy tail that queues the light jobs behind it. The heaviest kind
/// makes up ~2% of jobs, so p99 sits mid-way through its (narrow) run-time
/// distribution. knights:5 is left out: on 3 workers it runs 22-60 ms
/// bimodally, which made p99 jump between the two modes from run to run.
const std::vector<MixEntry> ServeMix = {
    {"sudoku", 2, 24},        {"strimko", 5, 24},
    {"fib", 20, 24},          {"nqueens-array", 9, 24},
    {"nqueens-array", 11, 2}, {"nqueens-array", 12, 2}};

/// Weight of the mix's heavy entries: the ones whose traced solves give
/// serve-mixed its trace-derived per-layer metrics.
constexpr int HeavyWeight = 2;

/// About a quarter of the mix's capacity on a 3-thread pool of a 4-vCPU
/// host (450 jobs/s still kept up, 700/s built a backlog and shed); at
/// half capacity p99 was not steady from run to run.
constexpr double ServeRatePerS = 150;
constexpr double WarmupS = 10;

/// Length of the serving probe of the traced search runs: the serve-mixed
/// traffic, without its warm-up.
constexpr double ProbeSeconds = 3;

constexpr int NumTenants = 4;
constexpr int TunedTenant = 3; ///< Runs with "tuning": "on".
constexpr double DeadlineShare = 0.4;
/// Generous enough that a healthy run expires nothing; they order and
/// classify jobs for deadline-aware scheduling.
constexpr int DeadlineChoicesMs[] = {500, 1000, 2000};

constexpr int ScrapeEveryMs = 100;
constexpr int ResultWaitMs = 10000;

/// A run whose sender ran later than this at p99 did not offer the
/// scheduled load; its numbers are not comparable and the run is failed.
constexpr double LateLimitMs = 50;

struct PlannedJob {
  double AtS = 0;
  int Entry = 0;
  int Tenant = 0;
  int DeadlineMs = 0; ///< 0 = none.
};

std::vector<PlannedJob> planJobs(std::uint64_t Seed,
                                 const std::vector<MixEntry> &Mix,
                                 double Rate, double Seconds) {
  std::vector<double> At = poissonArrivals(Seed, Rate, Seconds);
  std::mt19937_64 G(Seed ^ 0x5e17e5eedULL);
  int TotalWeight = 0;
  for (const MixEntry &E : Mix)
    TotalWeight += E.Weight;
  std::vector<PlannedJob> Jobs(At.size());
  for (std::size_t I = 0; I != At.size(); ++I) {
    PlannedJob &J = Jobs[I];
    J.AtS = At[I];
    int Pick = static_cast<int>(uniform01(G) * TotalWeight);
    while (Pick >= Mix[static_cast<std::size_t>(J.Entry)].Weight)
      Pick -= Mix[static_cast<std::size_t>(J.Entry++)].Weight;
    J.Tenant = static_cast<int>(uniform01(G) * NumTenants);
    if (uniform01(G) < DeadlineShare)
      J.DeadlineMs = DeadlineChoicesMs[static_cast<std::size_t>(
          uniform01(G) * std::size(DeadlineChoicesMs))];
  }
  return Jobs;
}

JobServerOptions serverOptions() {
  JobServerOptions O;
  O.PoolThreads = std::max(1, hostThreads() - 1);
  O.HttpPort = 0;
  return O;
}

JobSpec specFor(const MixEntry &E, int Tenant, int DeadlineMs) {
  JobSpec Spec;
  Spec.Problem = E.Kind;
  Spec.Size = E.Size;
  Spec.Tenant = "t" + std::to_string(Tenant);
  Spec.Tuning = Tenant == TunedTenant;
  Spec.DeadlineMs = DeadlineMs;
  return Spec;
}

/// What the generator observed for one job.
struct Outcome {
  bool Done = false;     ///< Terminal "done" with the oracle's value.
  bool Missed = false;   ///< Carried a deadline and missed it.
  int Tenant = 0;
  bool Spanned = false;  ///< Its spans were recorded (traced runs).
  double LatencyMs = 0;  ///< Scheduled send time -> result read.
  std::uint64_t ReadNs = 0; ///< When the terminal record was read.
  double LateMs = 0;     ///< Scheduled send time -> actual send.
  double SubmitMs = 0;   ///< POST /job round trip.
  double HttpGapMs = 0;  ///< Client-side latency minus server latency_ns.
  double QueueMs = 0;
  double RunMs = 0;
  SchedulerStats Stats;
};

struct LoadResult {
  std::vector<Outcome> Jobs;
  std::vector<std::string> Errors;
  std::uint64_t WrongValues = 0;
  std::uint64_t StartNs = 0, EndNs = 0; ///< First due time, last read.
  std::vector<double> ScrapeMs;
  double ScrapeBytes = 0;
  std::uint64_t TuneAdjustments = 0, TuneWindows = 0;
  std::uint64_t Shed = 0, Expired = 0, FailedJobs = 0;
};

/// A job the sender admitted and a waiter must resolve.
struct InFlight {
  std::size_t Index;
  std::uint64_t Id;
  std::uint64_t DueNs, SendNs, SpanId;
};

/// Drives one planned schedule against \p Server and collects every
/// outcome. Spans are recorded for even-numbered jobs when \p Spans is
/// set, so the span cost can be read off against the odd ones.
LoadResult driveLoad(JobServer &Server, const std::vector<MixEntry> &Mix,
                     const std::vector<PlannedJob> &Plan,
                     const std::vector<long long> &Expected, SpanLog *Spans) {
  LoadResult Res;
  Res.Jobs.resize(Plan.size());
  const int Port = Server.httpPort();
  const int Waiters = std::max(1, serverOptions().HttpThreads - 2);

  std::mutex Lock; // guards the fields below and Res.Errors
  std::condition_variable Ready;
  std::deque<InFlight> Pending;
  bool SenderDone = false;
  std::size_t Resolved = 0;
  auto noteError = [&](const std::string &E) {
    std::lock_guard<std::mutex> G(Lock);
    if (Res.Errors.size() < 20)
      Res.Errors.push_back(E);
  };
  auto resolve = [&] {
    std::lock_guard<std::mutex> G(Lock);
    ++Resolved;
    Ready.notify_all();
  };

  const std::uint64_t StartNs = nowNanos() + 20'000'000;
  auto dueNs = [&](std::size_t I) {
    return StartNs + static_cast<std::uint64_t>(Plan[I].AtS * 1e9);
  };

  std::thread Sender([&] {
    for (std::size_t I = 0; I != Plan.size(); ++I) {
      const PlannedJob &P = Plan[I];
      std::uint64_t Due = dueNs(I);
      std::uint64_t Now = nowNanos();
      if (Now < Due)
        std::this_thread::sleep_for(std::chrono::nanoseconds(Due - Now));
      Outcome &O = Res.Jobs[I];
      O.Tenant = P.Tenant;
      O.Spanned = Spans && I % 2 == 0;
      std::uint64_t SendNs = nowNanos();
      O.LateMs = msBetween(Due, SendNs);
      int Status = 0;
      std::string Body;
      bool Sent = httpRequest(
          Port, "POST", "/job",
          jobSpecJson(specFor(Mix[static_cast<std::size_t>(P.Entry)],
                              P.Tenant, P.DeadlineMs)),
          Status, Body);
      std::uint64_t PostEnd = nowNanos();
      O.SubmitMs = msBetween(SendNs, PostEnd);
      std::uint64_t SpanId = O.Spanned ? Spans->newId() : 0;
      if (O.Spanned)
        recordSpan(Spans, "server.submit", 0, SpanId, I, SendNs, PostEnd);
      json::Value Doc;
      std::string Err;
      if (!Sent || Status != 200 || !json::parse(Body, Doc, Err)) {
        // Shed (429) or transport failure: the job never ran.
        noteError("job " + std::to_string(I) + ": POST /job status " +
                  std::to_string(Status) + " " + Body);
        O.Missed = P.DeadlineMs > 0;
        if (O.Spanned)
          recordSpan(Spans, "gen.job", SpanId, 0, I, Due, PostEnd);
        resolve();
        continue;
      }
      std::lock_guard<std::mutex> G(Lock);
      Pending.push_back({I, static_cast<std::uint64_t>(Doc["id"].numberOr(0)),
                         Due, SendNs, SpanId});
      Ready.notify_all();
    }
    std::lock_guard<std::mutex> G(Lock);
    SenderDone = true;
    Ready.notify_all();
  });

  auto waiterMain = [&] {
    for (;;) {
      InFlight F;
      {
        std::unique_lock<std::mutex> G(Lock);
        Ready.wait(G, [&] { return !Pending.empty() || SenderDone; });
        if (Pending.empty())
          return;
        F = Pending.front();
        Pending.pop_front();
      }
      Outcome &O = Res.Jobs[F.Index];
      const PlannedJob &P = Plan[F.Index];
      std::uint64_t GetStart = nowNanos();
      int Status = 0;
      std::string Body;
      bool Got = httpRequest(Port, "GET",
                             "/result/" + std::to_string(F.Id) +
                                 "?wait=" + std::to_string(ResultWaitMs),
                             "", Status, Body);
      std::uint64_t ReadNs = nowNanos();
      O.LatencyMs = msBetween(F.DueNs, ReadNs);
      O.ReadNs = ReadNs;
      json::Value Doc;
      std::string Err;
      std::string State;
      if (Got && Status == 200 && json::parse(Body, Doc, Err))
        State = Doc["state"].stringOr("");
      if (State == "done") {
        long long Value = static_cast<long long>(Doc["value"].numberOr(-1));
        if (Value == Expected[static_cast<std::size_t>(P.Entry)]) {
          O.Done = true;
          double ServerMs = Doc["latency_ns"].numberOr(0) / 1e6;
          O.QueueMs = Doc["queue_ns"].numberOr(0) / 1e6;
          O.RunMs = ServerMs - O.QueueMs;
          O.HttpGapMs = msBetween(F.SendNs, ReadNs) - ServerMs;
          const json::Value &St = Doc["stats"];
          for (unsigned K = 0; K != NumStatFields; ++K) {
            auto Field = static_cast<StatField>(K);
            setStatFieldValue(O.Stats, Field,
                              static_cast<std::uint64_t>(
                                  St[statFieldPromName(Field)].numberOr(0)));
          }
        } else {
          std::lock_guard<std::mutex> G(Lock);
          ++Res.WrongValues;
        }
      }
      if (!O.Done)
        noteError("job " + std::to_string(F.Index) + " (id " +
                  std::to_string(F.Id) + "): state '" + State + "' " +
                  Body.substr(0, 200));
      O.Missed = P.DeadlineMs > 0 &&
                 (!O.Done || O.LatencyMs > static_cast<double>(P.DeadlineMs));
      if (O.Spanned) {
        recordSpan(Spans, "server.wait", 0, F.SpanId, F.Index,
                   GetStart, ReadNs);
        recordSpan(Spans, "gen.job", F.SpanId, 0, F.Index, F.DueNs, ReadNs);
      }
      resolve();
    }
  };
  std::vector<std::thread> WaiterThreads;
  for (int W = 0; W != Waiters; ++W)
    WaiterThreads.emplace_back(waiterMain);

  // Scraper: a fixed cadence on this thread until every job resolved.
  // The tuning counters reset with each job's registry rearm, so each
  // scraped epoch contributes the largest value seen for it.
  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> TuneByEpoch;
  double BytesSum = 0;
  for (std::uint64_t Tick = 0;; ++Tick) {
    {
      std::unique_lock<std::mutex> G(Lock);
      std::uint64_t Next =
          StartNs + Tick * static_cast<std::uint64_t>(ScrapeEveryMs) * 1000000;
      std::uint64_t Now = nowNanos();
      auto Done = [&] { return Resolved == Plan.size(); };
      if (Now < Next)
        Ready.wait_for(G, std::chrono::nanoseconds(Next - Now), Done);
      if (Done())
        break;
    }
    std::uint64_t T0 = nowNanos();
    int Status = 0;
    std::string Body;
    if (!httpRequest(Port, "GET", "/metrics", "", Status, Body) ||
        Status != 200) {
      noteError("GET /metrics failed, status " + std::to_string(Status));
      continue;
    }
    std::uint64_t T1 = nowNanos();
    Res.ScrapeMs.push_back(msBetween(T0, T1));
    BytesSum += static_cast<double>(Body.size());
    if (!Spans)
      continue;
    recordSpan(Spans, "metrics.scrape", 0, 0, Tick, T0, T1);
    std::vector<PromSample> Scrape = parsePrometheus(Body);
    auto &[Adj, Win] = TuneByEpoch[promTotal(Scrape, "atc_epoch", true)];
    Adj = std::max(Adj, promTotal(Scrape, "atc_tune_adjustments"));
    Win = std::max(Win, promTotal(Scrape, "atc_tune_windows"));
  }
  Sender.join();
  for (std::thread &T : WaiterThreads)
    T.join();
  Res.StartNs = StartNs;
  Res.EndNs = nowNanos();
  if (!Res.ScrapeMs.empty())
    Res.ScrapeBytes = BytesSum / static_cast<double>(Res.ScrapeMs.size());
  for (const auto &[Epoch, V] : TuneByEpoch) {
    Res.TuneAdjustments += V.first;
    Res.TuneWindows += V.second;
  }
  JobServer::Totals T = Server.totals();
  Res.Shed = T.Shed;
  Res.Expired = T.Expired;
  Res.FailedJobs = T.Failed;
  return Res;
}

/// Counts every job that did not come back done with the right value as
/// a failed operation (wrong value, HTTP error, shed, expired, lost), and
/// marks the run incorrect on a wrong value or a generator that fell
/// behind.
void account(const LoadResult &L, Report &R) {
  R.Attempted += L.Jobs.size();
  for (const Outcome &O : L.Jobs)
    R.Failed += O.Done ? 0 : 1;
  for (const std::string &E : L.Errors)
    R.note("failed job: " + E);
  if (L.WrongValues)
    R.fail(std::to_string(L.WrongValues) +
           " jobs returned a value other than the oracle's");
  std::vector<double> Late;
  for (const Outcome &O : L.Jobs)
    Late.push_back(O.LateMs);
  double LateP99 = percentile(Late, 99);
  if (LateP99 > LateLimitMs)
    R.fail("run invalid: generator fell behind (send lateness p99 " +
           std::to_string(LateP99) + " ms > " + std::to_string(LateLimitMs) +
           " ms)");
}

/// Share of all jobs that carried a deadline and missed it: expired,
/// refused, lost, or read back after deadline_ms.
double missRatio(const LoadResult &L) {
  std::size_t Missed = 0;
  for (const Outcome &O : L.Jobs)
    Missed += O.Missed;
  return L.Jobs.empty() ? 0.0
                        : static_cast<double>(Missed) /
                              static_cast<double>(L.Jobs.size());
}

/// The server, metrics, tuning and generator layer metrics of one load.
void reportServingLayers(const LoadResult &L, Report &R) {
  std::vector<double> Queue, Run, Submit, Gap, Late;
  for (const Outcome &O : L.Jobs) {
    Late.push_back(O.LateMs);
    Submit.push_back(O.SubmitMs);
    if (O.Done) {
      Queue.push_back(O.QueueMs);
      Run.push_back(O.RunMs);
      Gap.push_back(O.HttpGapMs);
    }
  }
  R.layer("server.queue_ms.p50", percentile(Queue, 50), "ms");
  R.layer("server.queue_ms.p99", percentile(Queue, 99), "ms");
  R.layer("server.run_ms.p50", percentile(Run, 50), "ms");
  R.layer("server.run_ms.p99", percentile(Run, 99), "ms");
  R.layer("server.submit_ms.p50", percentile(Submit, 50), "ms");
  R.layer("server.submit_ms.p99", percentile(Submit, 99), "ms");
  R.layer("server.http_gap_ms.p50", percentile(Gap, 50), "ms");
  R.layer("server.shed", static_cast<double>(L.Shed), "count");
  R.layer("server.expired", static_cast<double>(L.Expired), "count");
  R.layer("server.failed", static_cast<double>(L.FailedJobs), "count");
  R.layer("server.deadline_miss_ratio", missRatio(L), "ratio");
  R.layer("metrics.scrape_ms.p50", percentile(L.ScrapeMs, 50), "ms");
  R.layer("metrics.scrape_ms.p99", percentile(L.ScrapeMs, 99), "ms");
  R.layer("metrics.scrape_bytes", L.ScrapeBytes, "B");
  R.layer("tuning.adjustments", static_cast<double>(L.TuneAdjustments),
          "count");
  R.layer("tuning.windows", static_cast<double>(L.TuneWindows), "count");
  R.layer("gen.late_ms.p99", percentile(Late, 99), "ms");
}

/// Sequential oracle of every mix entry, timed. Returns false on a bad
/// registry entry.
bool oracles(const std::vector<MixEntry> &Mix, std::vector<long long> &Out,
             std::vector<double> &SeqMs, Report &R, SpanLog *Spans,
             std::uint64_t Parent) {
  Out.clear();
  SeqMs.clear();
  for (const MixEntry &E : Mix) {
    ProblemRunner Runner;
    std::string Err;
    if (!makeProblemRunner(E.Kind, E.Size, Runner, Err)) {
      R.fail(Err);
      return false;
    }
    std::uint64_t T0 = nowNanos();
    Out.push_back(Runner.RunSequential());
    std::uint64_t T1 = nowNanos();
    SeqMs.push_back(msBetween(T0, T1));
    recordSpan(Spans, "problems.oracle", 0, Parent, 0, T0, T1);
  }
  return true;
}

} // namespace

void runServeWorkload(const BenchArgs &A, Report &R, SpanLog *Spans) {
  std::unique_ptr<JobServer> Server;
  std::vector<long long> Expected;
  std::vector<double> SeqMs, SetupS;
  for (int Rep = 0; Rep != SetupRepeats; ++Rep) {
    Server.reset(); // drain and join the previous repetition first
    std::uint64_t Root = Spans ? Spans->newId() : 0;
    std::uint64_t T0 = nowNanos();
    Server = std::make_unique<JobServer>(serverOptions());
    if (!Server->start()) {
      R.fail("cannot bind a loopback port");
      return;
    }
    std::uint64_t T1 = nowNanos();
    recordSpan(Spans, "server.start", 0, Root, 0, T0, T1);
    if (!oracles(ServeMix, Expected, SeqMs, R, Spans, Root))
      return;
    // Warm-up: every mix entry once through the in-process API, checked.
    std::uint64_t T2 = nowNanos();
    for (std::size_t E = 0; E != ServeMix.size(); ++E) {
      JobServer::SubmitResult Sub = Server->submit(specFor(ServeMix[E], 0, 0));
      JobRecord Rec;
      if (!Sub.Accepted || !Server->waitResult(Sub.Id, Rec, ResultWaitMs) ||
          Rec.Value != Expected[E]) {
        R.fail(std::string("warm-up job ") + ServeMix[E].Kind +
               " failed or disagrees with the oracle");
        return;
      }
    }
    std::uint64_t T3 = nowNanos();
    recordSpan(Spans, "core.warmup", 0, Root, 0, T2, T3);
    recordSpan(Spans, "setup", Root, 0, 0, T0, T3);
    SetupS.push_back(msBetween(T0, T3) / 1e3);
  }

  std::vector<PlannedJob> Plan =
      planJobs(A.Seed, ServeMix, ServeRatePerS, A.Seconds);
  R.note(std::to_string(Plan.size()) + " jobs planned at " +
         std::to_string(ServeRatePerS) + "/s over " +
         std::to_string(A.Seconds) + " s, pool of " +
         std::to_string(Server->pool().size()) + " workers");
  // Unmeasured warm-up load from a different stream of the same seed:
  // the first seconds of serving after set-up run measurably slower (the
  // p99 of the first ~8 s was 2-4x that of the rest on a 4-vCPU VM), so
  // they are checked and counted but not timed.
  account(driveLoad(*Server, ServeMix,
                    planJobs(~A.Seed, ServeMix, ServeRatePerS, WarmupS),
                    Expected, nullptr),
          R);
  LoadResult L = driveLoad(*Server, ServeMix, Plan, Expected, Spans);
  account(L, R);

  std::vector<TimedSample> Lat;
  std::map<int, std::vector<double>> ByTenant;
  std::vector<double> Spanned, Unspanned;
  for (const Outcome &O : L.Jobs)
    if (O.Done) {
      Lat.push_back({O.ReadNs, O.LatencyMs});
      ByTenant[O.Tenant].push_back(O.LatencyMs);
      (O.Spanned ? Spanned : Unspanned).push_back(O.LatencyMs);
    }
  reportWindowed(R, Lat, L.StartNs, L.EndNs);
  R.endToEnd("setup_s", percentile(SetupS, 50), "s");
  R.endToEnd("peak_rss_mb", peakRssMb(), "MiB");
  for (const auto &[Tenant, V] : ByTenant) {
    char Buf[120];
    std::snprintf(Buf, sizeof(Buf), "tenant t%d%s: %zu jobs, p50 %.3f ms",
                  Tenant, Tenant == TunedTenant ? " (tuned)" : "", V.size(),
                  percentile(V, 50));
    R.note(Buf);
  }
  R.note("deadline_miss_ratio " + std::to_string(missRatio(L)));
  if (!Spans)
    return;

  reportServingLayers(L, R);
  SchedulerStats Sum;
  int HighWater = 0;
  for (const Outcome &O : L.Jobs)
    if (O.Done) {
      Sum += O.Stats;
      HighWater = std::max(HighWater, O.Stats.DequeHighWater);
    }
  reportStatCounters(R, Sum, Lat.size(), HighWater);

  // The serving path never arms SchedulerConfig::Trace, so the trace
  // layer's view comes from traced solves of the mix's heavy jobs on the
  // server's own (now idle) pool.
  TraceAgg Agg;
  SchedulerConfig Cfg;
  Cfg.NumWorkers = Server->pool().size();
  Cfg.Executor = &Server->pool();
  Cfg.Trace = true;
  Cfg.TraceCap = TraceCapEvents;
  for (std::size_t E = 0; E != ServeMix.size(); ++E) {
    if (ServeMix[E].Weight > HeavyWeight)
      continue;
    ProblemRunner Runner;
    std::string Err;
    makeProblemRunner(ServeMix[E].Kind, ServeMix[E].Size, Runner, Err);
    for (int I = 0; I != 8; ++I) {
      std::uint64_t Id = Spans->newId();
      std::uint64_t T0 = nowNanos();
      RunResult<long long> Res = Runner.Run(Cfg);
      recordSpan(Spans, "core.run", 0, Id, 0, T0, nowNanos());
      ++R.Attempted;
      if (Res.Value != Expected[E]) {
        ++R.Failed;
        R.fail(Runner.Workload + ": traced solve disagrees with the oracle");
      }
      if (Res.Trace && !Agg.add(*Res.Trace, SeqMs[E], A.OutDir, Spans, Id, 0,
                                Err))
        R.fail("trace round trip: " + Err);
      recordSpan(Spans, "bench.solve", Id, 0, 0, T0, nowNanos());
    }
  }
  Agg.report(R);
  probeFixedCosts(Server->pool(), R);
  double SeqTotal = 0;
  for (double Ms : SeqMs)
    SeqTotal += Ms;
  R.layer("problems.seq_ms_total", SeqTotal, "ms");
  double S50 = percentile(Spanned, 50), U50 = percentile(Unspanned, 50);
  double OverheadPct = U50 > 0 ? (S50 / U50 - 1) * 100 : 0;
  R.layer("bench.trace_overhead_pct", OverheadPct, "%");
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "tracing overhead: job p50 %.3f ms with spans vs %.3f ms "
                "without (%+.2f%%)",
                S50, U50, OverheadPct);
  R.note(Buf);
}

void runServingProbe(const BenchArgs &A, Report &R, SpanLog *Spans) {
  JobServer Server(serverOptions());
  if (!Server.start()) {
    R.fail("cannot bind a loopback port");
    return;
  }
  std::vector<long long> Expected;
  std::vector<double> SeqMs;
  if (!oracles(ServeMix, Expected, SeqMs, R, nullptr, 0))
    return;
  LoadResult L = driveLoad(
      Server, ServeMix,
      planJobs(A.Seed, ServeMix, ServeRatePerS, ProbeSeconds), Expected,
      Spans);
  account(L, R);
  reportServingLayers(L, R);
  R.note("serving probe: " + std::to_string(L.Jobs.size()) +
         " serve-mixed jobs over " + std::to_string(ProbeSeconds) + " s");
}

} // namespace pb
