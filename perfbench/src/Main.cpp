//===- perfbench/src/Main.cpp - Benchmark harness entry point -------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             --out-dir <dir>
///
/// Runs one workload (search-unbalanced, search-balanced, serve-mixed),
/// prints every metric it measured with its unit, and ends with one JSON
/// line: {"correct", "attempted", "failed", "metrics"} — the end-to-end
/// metrics with --trace 0, the per-layer metrics with --trace 1. The
/// traced run also writes its span file into --out-dir.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "search-unbalanced|search-balanced|serve-mixed --seed N "
               "--seconds S --trace 0|1 --out-dir DIR\n",
               Why);
  std::exit(2);
}

} // namespace

int main(int argc, char **argv) {
  pb::BenchArgs A;
  bool HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (I + 1 >= argc)
      usage(("missing value for " + Flag).c_str());
    std::string Value = argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = Value;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Value.c_str(), &End, 10);
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Value.c_str(), &End);
      if (*End || A.Seconds <= 0 || A.Seconds > 600)
        usage("--seconds must be in (0, 600]");
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        usage("--trace must be 0 or 1");
      A.Trace = Value == "1";
      HaveTrace = true;
    } else if (Flag == "--out-dir") {
      A.OutDir = Value;
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
    if (End && *End)
      usage(("bad number for " + Flag).c_str());
  }
  if (A.Workload.empty() || A.OutDir.empty() || !HaveTrace)
    usage("--workload, --trace and --out-dir are required");

  pb::Report R;
  pb::SpanLog Spans;
  pb::SpanLog *Log = A.Trace ? &Spans : nullptr;
  if (A.Workload == "search-unbalanced" || A.Workload == "search-balanced")
    pb::runSearchWorkload(A, A.Workload == "search-balanced", R, Log);
  else if (A.Workload == "serve-mixed")
    pb::runServeWorkload(A, R, Log);
  else
    usage(("unknown workload " + A.Workload).c_str());

  if (Log)
    pb::finishSpans(Spans,
                    A.OutDir + "/spans-" + A.Workload + "-seed" +
                        std::to_string(A.Seed) + ".json",
                    R);
  R.print(A.Trace);
  return 0;
}
