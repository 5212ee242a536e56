//===- perfbench/src/Search.cpp - Closed-loop search workloads ------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// search-unbalanced and search-balanced: one caller runs runProblem
/// back-to-back on a persistent SchedulerPool with the default
/// SchedulerConfig (AdaptiveTC, THE deque), cycling through a seeded
/// input set, and checks every value against the input's sequential
/// oracle. The unbalanced set is the paper's target (steals, need_task
/// reseeding, special tasks, workspace copies); the balanced set runs
/// almost entirely on the fake-task fast path and the problem kernels.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "problems/ProblemRegistry.h"
#include "sim/SyntheticTreeProblem.h"

#include <algorithm>
#include <memory>

using namespace atc;

namespace pb {

namespace {

/// Unbalanced trees: large enough that a solve is dominated by
/// scheduling and search, small enough for well over 1000 solves in a
/// run. Each preset contributes six seeds: with one seed fixed, p99
/// repeated within a few percent, while it moved 30% between seeds.
constexpr long long UnbalancedNodes = 60000;
constexpr int UnbalancedTreesPerPreset = 6;
constexpr int SpinPerNode = 300;

/// The balanced set: one small balanced tree (the seeded input) next to
/// two registry kernels. Spin-loop trees slowed 1.5-2.5x more than the
/// kernels when the shared host was busy, so the kernels set the metrics:
/// in the time order tree < pentomino:7 < nqueens-array:12, p50 falls on
/// pentomino and p99 on nqueens.
constexpr long long BalancedNodes = 20000;

/// Traced solves whose trace is exported, read back and summarized:
/// every SummarizeStride-th one (the rest only pay the armed recorder).
constexpr int SummarizeStride = 4;

std::uint64_t splitmix(std::uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

struct Input {
  std::string Label;
  std::function<RunResult<long long>(const SchedulerConfig &)> Run;
  long long Expected = 0;
  double SeqMs = 0; ///< Sequential oracle time, measured at set-up.
};

struct Setup {
  std::unique_ptr<SchedulerPool> Pool;
  std::vector<Input> Inputs;
  std::vector<std::size_t> Order; ///< Seeded cycle over Inputs.
  double SeqMsTotal = 0;
};

/// Builds one input set and its oracle values. Returns false on an
/// oracle disagreement or an unknown registry entry.
bool buildInputs(bool Balanced, std::uint64_t Seed, Setup &S, Report &R,
                 SpanLog *Spans, std::uint64_t Parent) {
  std::vector<std::string> Presets =
      Balanced ? std::vector<std::string>{"balanced"}
               : std::vector<std::string>{"tree3l", "tree2l", "tree1r",
                                          "input2"};
  std::uint64_t Salt = 0;
  for (const std::string &Name : Presets)
    for (int K = 0; K != (Balanced ? 1 : UnbalancedTreesPerPreset); ++K) {
      TreeSpec Spec =
          SimTree::preset(Name, Balanced ? BalancedNodes : UnbalancedNodes);
      Spec.Seed = splitmix(Seed * 64 + ++Salt);
      auto Prob = std::make_shared<SyntheticTreeProblem>(Spec, SpinPerNode);
      auto Root = Prob->makeRoot();
      Input In;
      In.Label = Name + "#" + std::to_string(K);
      In.Run = [Prob, Root](const SchedulerConfig &Cfg) {
        return runProblem(*Prob, Root, Cfg);
      };
      std::uint64_t T0 = nowNanos();
      In.Expected = Prob->expectedLeaves();
      auto State = Root;
      long long Seq = runSequential(*Prob, State);
      std::uint64_t T1 = nowNanos();
      recordSpan(Spans, "problems.oracle", 0, Parent, 0, T0, T1);
      In.SeqMs = msBetween(T0, T1);
      if (Seq != In.Expected) {
        R.fail(In.Label + ": sequential run " + std::to_string(Seq) +
               " != expectedLeaves " + std::to_string(In.Expected));
        return false;
      }
      S.Inputs.push_back(std::move(In));
    }

  if (Balanced)
    for (auto [Kind, Size] : {std::pair<const char *, int>{"nqueens-array", 12},
                              {"pentomino", 7}}) {
      ProblemRunner Runner;
      std::string Err;
      if (!makeProblemRunner(Kind, Size, Runner, Err)) {
        R.fail(Err);
        return false;
      }
      Input In;
      In.Label = Runner.Workload;
      In.Run = Runner.Run;
      std::uint64_t T0 = nowNanos();
      In.Expected = Runner.RunSequential();
      std::uint64_t T1 = nowNanos();
      recordSpan(Spans, "problems.oracle", 0, Parent, 0, T0, T1);
      In.SeqMs = msBetween(T0, T1);
      S.Inputs.push_back(std::move(In));
    }

  for (const Input &In : S.Inputs)
    S.SeqMsTotal += In.SeqMs;
  S.Order.resize(S.Inputs.size());
  for (std::size_t I = 0; I != S.Order.size(); ++I)
    S.Order[I] = I;
  std::mt19937_64 G(splitmix(Seed));
  std::shuffle(S.Order.begin(), S.Order.end(), G);
  return true;
}

SchedulerConfig baseConfig(SchedulerPool &Pool) {
  SchedulerConfig Cfg; // defaults: AdaptiveTC, THE deque, steal-one
  Cfg.NumWorkers = Pool.size();
  Cfg.Executor = &Pool;
  return Cfg;
}

/// One full set-up: inputs + oracles, the pool, and a warm-up solve of
/// every input (caches and arenas filled before timing).
bool setUp(const BenchArgs &A, bool Balanced, Setup &S, Report &R,
           SpanLog *Spans) {
  std::uint64_t Root = Spans ? Spans->newId() : 0;
  std::uint64_t T0 = nowNanos();
  if (!buildInputs(Balanced, A.Seed, S, R, Spans, Root))
    return false;
  std::uint64_t T1 = nowNanos();
  S.Pool = std::make_unique<SchedulerPool>(hostThreads());
  std::uint64_t T2 = nowNanos();
  recordSpan(Spans, "core.pool_create", 0, Root, 0, T1, T2);
  SchedulerConfig Cfg = baseConfig(*S.Pool);
  for (const Input &In : S.Inputs)
    if (In.Run(Cfg).Value != In.Expected) {
      R.fail(In.Label + ": warm-up solve disagrees with the oracle");
      return false;
    }
  std::uint64_t T3 = nowNanos();
  recordSpan(Spans, "core.warmup", 0, Root, 0, T2, T3);
  recordSpan(Spans, "setup", Root, 0, 0, T0, T3);
  return true;
}

} // namespace

void runSearchWorkload(const BenchArgs &A, bool Balanced, Report &R,
                       SpanLog *Spans) {
  Setup S;
  std::vector<double> SetupS;
  for (int I = 0; I != SetupRepeats; ++I) {
    S = Setup(); // release the previous repetition first
    std::uint64_t T0 = nowNanos();
    if (!setUp(A, Balanced, S, R, Spans))
      return;
    SetupS.push_back(msBetween(T0, nowNanos()) / 1e3);
  }
  R.note(std::to_string(S.Inputs.size()) + " inputs, pool of " +
         std::to_string(S.Pool->size()) + " workers");

  SchedulerConfig Cfg = baseConfig(*S.Pool);
  SchedulerConfig Traced = Cfg;
  Traced.Trace = true;
  Traced.TraceCap = TraceCapEvents;

  const std::size_t K = S.Inputs.size();
  std::vector<TimedSample> Ops;
  std::vector<double> ArmedMs, PlainMs;
  SchedulerStats Sum;
  int HighWater = 0;
  TraceAgg Agg;
  std::uint64_t ArmedCount = 0;

  const std::uint64_t Start = nowNanos();
  const std::uint64_t Deadline =
      Start + static_cast<std::uint64_t>(A.Seconds * 1e9);
  std::uint64_t End = Start;
  for (std::uint64_t N = 0; End < Deadline; ++N) {
    const Input &In = S.Inputs[S.Order[N % K]];
    // Traced runs alternate whole cycles armed / unarmed, so both halves
    // see the same input mix and their latency gap is the overhead.
    bool Armed = Spans && (N / K) % 2 == 0;
    std::uint64_t SolveId = Spans ? Spans->newId() : 0;
    std::uint64_t T0 = nowNanos();
    RunResult<long long> Res = In.Run(Armed ? Traced : Cfg);
    std::uint64_t T1 = nowNanos();
    End = T1;
    double Ms = msBetween(T0, T1);
    Ops.push_back({T1, Ms});
    ++R.Attempted;
    if (Res.Value != In.Expected) {
      ++R.Failed;
      R.fail(In.Label + ": got " + std::to_string(Res.Value) + ", oracle " +
             std::to_string(In.Expected));
    }
    if (!Spans)
      continue;
    (Armed ? ArmedMs : PlainMs).push_back(Ms);
    Sum += Res.Stats;
    HighWater = std::max(HighWater, Res.Stats.DequeHighWater);
    recordSpan(Spans, "core.run", 0, SolveId, N, T0, T1);
    if (Armed && Res.Trace && ArmedCount++ % SummarizeStride == 0) {
      std::string Err;
      if (!Agg.add(*Res.Trace, In.SeqMs, A.OutDir, Spans, SolveId, N, Err))
        R.fail("trace round trip: " + Err);
    }
    recordSpan(Spans, "bench.solve", SolveId, 0, N, T0, nowNanos());
  }

  reportWindowed(R, Ops, Start, End);
  R.endToEnd("setup_s", percentile(SetupS, 50), "s");
  R.endToEnd("peak_rss_mb", peakRssMb(), "MiB");
  if (!Spans)
    return;

  reportStatCounters(R, Sum, Ops.size(), HighWater);
  Agg.report(R);
  probeFixedCosts(*S.Pool, R);
  R.layer("problems.seq_ms_total", S.SeqMsTotal, "ms");
  double Armed50 = percentile(ArmedMs, 50), Plain50 = percentile(PlainMs, 50);
  double OverheadPct = Plain50 > 0 ? (Armed50 / Plain50 - 1) * 100 : 0;
  R.layer("bench.trace_overhead_pct", OverheadPct, "%");
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "tracing overhead: solve p50 %.3f ms traced vs %.3f ms "
                "untraced (%+.2f%%)",
                Armed50, Plain50, OverheadPct);
  R.note(Buf);
  S.Pool.reset(); // the serving probe brings its own pool
  runServingProbe(A, R, Spans);
}

} // namespace pb
