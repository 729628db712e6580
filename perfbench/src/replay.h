// The traced replay: re-executes, layer by layer, the candidate evaluations
// an orchestrator's own JSONL trace recorded, wrapping a span around each
// call into a layer's public entry point:
//
//   hil.lowerKernel          fko::lowerKernel (HIL front end)
//   analysis.analyzeKernel   fko::analyzeKernel
//   evalcache.lookup/insert  search::EvalCache::lookup / insert
//   fko.compile              search::EvalPipeline::compile (memo, prefix
//                            patch or full pass-stack compile)
//   sim.decode               sim::decodeFunction
//   tester                   EvalPipeline::testerPasses (kernels::testKernel
//                            or, for spec-less kernels, the differential
//                            fko::testAgainstUnoptimized)
//   sim.time                 sim::timeKernel (fko::timeCompiled when the
//                            kernel has no KernelSpec)
//
// Every replayed result is checked against the trace: the cache must hit
// and miss where the orchestrator's did, and every re-timed candidate must
// reproduce its recorded cycles and verdict.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "kernels/registry.h"
#include "search/linesearch.h"
#include "spans.h"

namespace perfbench {

struct KernelSource {
  std::string source;
  const ifko::kernels::KernelSpec* spec = nullptr;
};

struct ReplayInput {
  std::string tracePath;
  std::map<std::string, KernelSource> kernels;  ///< by trace kernel name
  /// Seed and tester length of the traced search (n and context come from
  /// each kernel_start event).
  ifko::search::SearchConfig config;
  /// Request id of the i-th kernel_start; empty = the kernel's index.
  std::vector<int64_t> kernelRequests;
  std::string workDir;  ///< replay cache files
};

/// Deterministic counts of one replay (and of the trace it replayed).
struct ReplayCounts {
  uint64_t kernels = 0;
  uint64_t evaluations = 0;  ///< kernel_end evaluations, summed
  uint64_t proposals = 0;
  uint64_t cacheHits = 0;  ///< replayed EvalCache lookups that hit
  uint64_t cacheMisses = 0;
  uint64_t dynInsts = 0;  ///< simulated instructions of the timed runs
  uint64_t fullCompiles = 0;
  uint64_t prefixPatches = 0;
  uint64_t memoHits = 0;
  uint64_t testerRuns = 0;
  double longestKernelSeconds = 0.0;  ///< from kernel_end, traced run
};

/// The deterministic counts as golden-snapshot fields.
[[nodiscard]] Golden::Fields countFields(const ReplayCounts& c);

struct ReplayResult {
  ReplayCounts counts;
  double wallSeconds = 0.0;
  /// The replay's spans are [spanBegin, spanEnd) of the recorder.
  size_t spanBegin = 0;
  size_t spanEnd = 0;
};

/// Replays `in.tracePath`, recording spans on `rec`; mismatches against
/// the trace are counted on `out`.
ReplayResult replayTrace(const ReplayInput& in, SpanRecorder& rec,
                         Outcome& out);

/// Context for the per-layer metrics that are not read off spans.
struct LayerContext {
  ReplayResult replay;
  int jobs = 1;
  double untracedWall = 0.0;  ///< the workload's own wall time, untraced
  double tracedWall = 0.0;    ///< the same work with the trace on
  double parallelSpeedup = 1.0;
  double replayWall = 0.0;  ///< everything the spans were recorded over
  uint64_t wisdomRecords = 0;  ///< serve: records the daemon's store holds
  std::vector<double> tuneLatencyMs;  ///< serve: TUNE request latencies
  std::vector<double> holWaitMs;      ///< serve: QUERY latency - service
};

/// Sets every per-layer metric on `out` (0 where this workload does not
/// exercise the layer).
void setLayerMetrics(const std::vector<Span>& spans, const LayerContext& ctx,
                     Outcome& out);

}  // namespace perfbench
