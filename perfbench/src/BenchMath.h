//===- perfbench/src/BenchMath.h - Harness statistics and spans -*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own measuring math, kept independent of the runtime it
/// measures: interpolated percentiles, the seeded Poisson arrival
/// schedule of the open-loop workload, and the span log with its
/// self-time computation. Header-only so the unit tests
/// (perfbench/tests) compile it without the runtime libraries.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCHMATH_H
#define PERFBENCH_BENCHMATH_H

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace pb {

/// Percentile \p P (0..100) of ascending \p Sorted, interpolating
/// linearly between closest ranks (rank = P/100 * (n-1)). 0 when empty.
inline double percentileSorted(const std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  double Rank = std::clamp(P, 0.0, 100.0) / 100.0 *
                static_cast<double>(Sorted.size() - 1);
  auto Lo = static_cast<std::size_t>(Rank);
  std::size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
}

/// percentileSorted over an unsorted sample (sorts a copy).
inline double percentile(std::vector<double> Samples, double P) {
  std::sort(Samples.begin(), Samples.end());
  return percentileSorted(Samples, P);
}

/// A measured value stamped with the time its operation completed.
struct TimedSample {
  std::uint64_t EndNs = 0;
  double Value = 0;
};

/// Splits [\p FromNs, \p ToNs] into \p N equal time windows and returns
/// the values of the samples that completed in each (a sample at or past
/// ToNs lands in the last window).
inline std::vector<std::vector<double>>
splitWindows(const std::vector<TimedSample> &Samples, std::uint64_t FromNs,
             std::uint64_t ToNs, int N) {
  std::vector<std::vector<double>> Out(static_cast<std::size_t>(N));
  double Width = static_cast<double>(ToNs > FromNs ? ToNs - FromNs : 1) / N;
  for (const TimedSample &S : Samples) {
    double Off = S.EndNs > FromNs ? static_cast<double>(S.EndNs - FromNs) : 0;
    auto W = static_cast<std::size_t>(Off / Width);
    Out[std::min(W, Out.size() - 1)].push_back(S.Value);
  }
  return Out;
}

/// Uniform double in [0, 1) from the top 53 bits of one engine draw —
/// spelled out so a seed gives the same stream with any standard library.
inline double uniform01(std::mt19937_64 &G) {
  return static_cast<double>(G() >> 11) * 0x1p-53;
}

/// Arrival offsets, in seconds from 0, of a Poisson process with
/// \p RatePerS arrivals per second over [0, \p HorizonS): exponential
/// gaps drawn by inverting the CDF. Same seed, same schedule.
inline std::vector<double> poissonArrivals(std::uint64_t Seed, double RatePerS,
                                           double HorizonS) {
  std::vector<double> Out;
  if (RatePerS <= 0)
    return Out;
  std::mt19937_64 G(Seed);
  double T = 0;
  for (;;) {
    T += -std::log1p(-uniform01(G)) / RatePerS;
    if (T >= HorizonS)
      return Out;
    Out.push_back(T);
  }
}

/// One timed interval of the benchmark's own tracing: a call into a
/// layer. Spans of one operation share Req; Parent is the id of the span
/// that caused this one (0 = root).
struct Span {
  std::string Name;
  std::uint64_t Id = 0;
  std::uint64_t Parent = 0;
  std::uint64_t Req = 0;
  std::uint64_t StartNs = 0;
  std::uint64_t EndNs = 0;
};

/// In-memory span store, written out once when the run ends. Ids are
/// handed out before a span closes so children can name their parent;
/// finished spans are appended under a lock (several client threads
/// record concurrently in the serving workload).
class SpanLog {
public:
  std::uint64_t newId() { return NextId.fetch_add(1) + 1; }

  void record(Span S) {
    std::lock_guard<std::mutex> Guard(Lock);
    Spans.push_back(std::move(S));
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> Guard(Lock);
    return Spans;
  }

private:
  std::atomic<std::uint64_t> NextId{0};
  mutable std::mutex Lock;
  std::vector<Span> Spans;
};

/// Self time of every span, index-aligned with \p Spans: its duration
/// minus the part of its interval that its direct children cover
/// (children clipped to the parent, overlaps between children counted
/// once).
inline std::vector<std::uint64_t> selfTimesNs(const std::vector<Span> &Spans) {
  std::vector<std::size_t> Order(Spans.size());
  for (std::size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  // Children grouped by parent, each group in start order.
  std::sort(Order.begin(), Order.end(), [&](std::size_t A, std::size_t B) {
    return std::pair(Spans[A].Parent, Spans[A].StartNs) <
           std::pair(Spans[B].Parent, Spans[B].StartNs);
  });
  std::vector<std::pair<std::uint64_t, std::size_t>> ById;
  ById.reserve(Spans.size());
  for (std::size_t I = 0; I != Spans.size(); ++I)
    ById.emplace_back(Spans[I].Id, I);
  std::sort(ById.begin(), ById.end());

  std::vector<std::uint64_t> Covered(Spans.size(), 0);
  std::vector<std::uint64_t> CoverEnd(Spans.size(), 0);
  for (std::size_t C : Order) {
    const Span &Child = Spans[C];
    if (Child.Parent == 0)
      continue;
    auto It = std::lower_bound(ById.begin(), ById.end(),
                               std::pair(Child.Parent, std::size_t{0}));
    if (It == ById.end() || It->first != Child.Parent)
      continue; // parent not recorded: nothing to subtract from
    std::size_t P = It->second;
    std::uint64_t Lo = std::max(Child.StartNs, Spans[P].StartNs);
    Lo = std::max(Lo, CoverEnd[P]); // children arrive in start order
    std::uint64_t Hi = std::min(Child.EndNs, Spans[P].EndNs);
    if (Hi > Lo) {
      Covered[P] += Hi - Lo;
      CoverEnd[P] = Hi;
    }
  }

  std::vector<std::uint64_t> Self(Spans.size());
  for (std::size_t I = 0; I != Spans.size(); ++I) {
    std::uint64_t Dur =
        Spans[I].EndNs > Spans[I].StartNs ? Spans[I].EndNs - Spans[I].StartNs
                                          : 0;
    Self[I] = Dur > Covered[I] ? Dur - Covered[I] : 0;
  }
  return Self;
}

} // namespace pb

#endif // PERFBENCH_BENCHMATH_H
