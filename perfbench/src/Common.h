//===- perfbench/src/Common.h - Shared harness plumbing ---------*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: the run arguments, the metric report and
/// its JSON line, and the per-layer readers that turn scheduler stats,
/// traces and fixed-cost probes into named metrics.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "BenchMath.h"

#include "core/Runtime.h"
#include "core/SchedulerPool.h"
#include "support/Timer.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pb {

using atc::nowNanos;
using atc::SchedulerPool;
using atc::SchedulerStats;
using atc::TraceLog;

struct BenchArgs {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string OutDir; ///< Span files and scratch trace exports.
};

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int SetupRepeats = 3;

/// Trace ring capacity of traced solves, in events per worker (1 MiB).
inline constexpr int TraceCapEvents = 1 << 16;

/// Every metric a run measured, in insertion order, plus the operation
/// accounting. print() emits all of them as text and then the final JSON
/// line with the end-to-end set (untraced run) or the per-layer set
/// (traced run).
class Report {
public:
  void endToEnd(const std::string &Name, double Value, const char *Unit);
  void layer(const std::string &Name, double Value, const char *Unit);
  void note(const std::string &Line) { Notes.push_back(Line); }
  /// Marks the run incorrect (a wrong result or an invalid run).
  void fail(const std::string &Why);

  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;

  void print(bool Traced) const;

private:
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
    bool EndToEnd;
  };
  std::vector<Metric> Metrics;
  std::vector<std::string> Notes;
  std::vector<std::string> Errors;
};

inline double msBetween(std::uint64_t FromNs, std::uint64_t ToNs) {
  return ToNs > FromNs ? static_cast<double>(ToNs - FromNs) / 1e6 : 0.0;
}

/// Time windows per run for throughput and p50, and the most windows
/// for p99, each of which keeps at least MinWindowSamples operations so
/// its p99 has ten samples beyond it.
inline constexpr int RateWindows = 5;
inline constexpr int MaxP99Windows = 5;
inline constexpr std::size_t MinWindowSamples = 1000;

/// Reports throughput_per_s, latency_ms.p50 and latency_ms.p99 from the
/// operations of one run (EndNs = completion, Value = latency in ms) over
/// [StartNs, EndNs]. The run is cut into equal time windows and each
/// metric is the median of its per-window values, so one slow stretch of
/// a shared host moves it less than a whole-run figure would.
void reportWindowed(Report &R, const std::vector<TimedSample> &Ops,
                    std::uint64_t StartNs, std::uint64_t EndNs);

/// Peak resident set size of this process, in MiB.
double peakRssMb();

/// Worker count of the search pools: the host's hardware threads.
int hostThreads();

/// Adds one operation's span to \p Log (no-op when \p Log is null). Id 0
/// takes a fresh id: only a span that has children needs one up front.
void recordSpan(SpanLog *Log, const char *Name, std::uint64_t Id,
                std::uint64_t Parent, std::uint64_t Req,
                std::uint64_t StartNs, std::uint64_t EndNs);

/// Writes \p Log to \p Path as JSON (one object per span, self time
/// included) and prints the per-name self-time totals into \p R.
void finishSpans(const SpanLog &Log, const std::string &Path, Report &R);

/// Reports the scheduler-stats counters of \p Ops operations whose stats
/// sum to \p Sum (per-operation means), and the deque high-water mark.
void reportStatCounters(Report &R, const SchedulerStats &Sum,
                        std::uint64_t Ops, int HighWater);

/// Accumulates the trace summaries of traced solves: residency shares,
/// steal and reseed latencies, and busy time against the sequential
/// oracle time of the same inputs.
class TraceAgg {
public:
  /// Exports \p Log with writeChromeTrace to a scratch file under
  /// \p Dir, reads it back with readTrace, summarizes it and deletes the
  /// file. \p SeqMs is the oracle time of the traced input. Spans of the
  /// three trace steps go to \p Spans under \p Parent.
  bool add(const TraceLog &Log, double SeqMs, const std::string &Dir,
           SpanLog *Spans, std::uint64_t Parent, std::uint64_t Req,
           std::string &Error);
  void report(Report &R) const;
  int solves() const { return Solves; }

private:
  int Solves = 0;
  double BusyUs = 0, IdleUs = 0, SyncUs = 0, CheckUs = 0, SeqUs = 0;
  std::vector<double> StealUs, ReseedUs;
};

/// Fixed per-job costs on \p Pool: SchedulerPool::dispatch with an empty
/// body, and runProblem on the smallest registry job.
void probeFixedCosts(SchedulerPool &Pool, Report &R);

/// The workloads (Search.cpp, Serve.cpp). Each fills \p R with the
/// end-to-end metrics and, when \p Spans is non-null (traced run), the
/// per-layer metrics, recording its own spans into \p Spans.
void runSearchWorkload(const BenchArgs &A, bool Balanced, Report &R,
                       SpanLog *Spans);
void runServeWorkload(const BenchArgs &A, Report &R, SpanLog *Spans);

/// The traced search runs' probe of the layers their main loop never
/// enters (server, metrics, tuning, generator): a short open-loop burst
/// of the serve-mixed traffic through a JobServer over loopback HTTP.
void runServingProbe(const BenchArgs &A, Report &R, SpanLog *Spans);

} // namespace pb

#endif // PERFBENCH_COMMON_H
