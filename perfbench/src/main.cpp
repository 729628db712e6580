// perfbench: the ifko benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work DIR] [--commit ID] [--write-golden]
//
// Run from the root of a checkout (it reads kernels_hil/ and
// perfbench/golden/ there); perfbench/run.py builds and starts it.
//
// Workloads: tune_l1_inl2, tune_all_ooc (tune.cpp) and serve_mix
// (serve.cpp).  With --trace 0 the run measures the end-to-end metrics;
// with --trace 1 it measures the per-layer metrics through a traced replay
// (replay.h).  Human-readable report lines start with '#'; the last line of
// standard output is the JSON result.  The exit code is 0 only when every
// output matched the golden snapshot under perfbench/golden/.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"
#include "support/json.h"
#include "support/str.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

/// Runs must end well inside the 180 s a benchmark run is allowed.
constexpr unsigned kWatchdogSeconds = 170;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload tune_l1_inl2|tune_all_ooc|"
               "serve_mix --seed N --seconds S --trace 0|1 [--work DIR] "
               "[--commit ID] [--write-golden]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  std::string work = ".bench_build";
  std::string commit = "unknown";
  bool haveSeed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool hasValue = i + 1 < argc;
    int64_t v = 0;
    if (a == "--workload" && hasValue) {
      o.workload = argv[++i];
    } else if (a == "--seed" && hasValue && ifko::parseInt64(argv[++i], &v) &&
               v >= 0) {
      o.seed = static_cast<uint64_t>(v);
      haveSeed = true;
    } else if (a == "--seconds" && hasValue &&
               ifko::parseInt64(argv[++i], &v) && v > 0 && v <= 120) {
      o.seconds = static_cast<double>(v);
    } else if (a == "--trace" && hasValue && ifko::parseInt64(argv[++i], &v) &&
               (v == 0 || v == 1)) {
      o.trace = v == 1;
    } else if (a == "--work" && hasValue) {
      work = argv[++i];
    } else if (a == "--commit" && hasValue) {
      commit = argv[++i];
    } else if (a == "--write-golden") {
      o.writeGolden = true;
    } else {
      return usage(("bad argument '" + a + "'").c_str());
    }
  }
  if (!haveSeed) return usage("--seed is required");
  if (!isTuneWorkload(o.workload) && o.workload != "serve_mix")
    return usage(("unknown workload '" + o.workload + "'").c_str());

  ::alarm(kWatchdogSeconds);
  o.workDir = work + "/perfbench-run/" + o.workload + "-" +
              std::to_string(static_cast<long>(::getpid()));
  o.goldenPath = "perfbench/golden/" + o.workload + ".jsonl";
  o.spansPath = work + "/perfbench-spans-" + o.workload + ".jsonl";
  std::filesystem::create_directories(o.workDir);

  ifko::JsonWriter fp;
  fp.field("workload", o.workload)
      .field("seed", o.seed)
      .field("trace", o.trace)
      .field("nproc", hostThreads())
      .field("cpu", cpuModel())
      .field("compiler", PERFBENCH_COMPILER)
      .field("build_type", PERFBENCH_BUILD_TYPE)
      .field("commit", commit);
  Outcome::note("fingerprint " + fp.str());

  const Outcome out =
      isTuneWorkload(o.workload) ? runTuneWorkload(o) : runServeWorkload(o);
  std::error_code ec;
  std::filesystem::remove_all(o.workDir, ec);
  std::printf("%s\n", out.json().c_str());
  std::fflush(stdout);
  return out.correct() ? 0 : 1;
}
