#include "replay.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>

#include "arch/machine.h"
#include "fko/harness.h"
#include "search/evalcache.h"
#include "search/evalpipeline.h"
#include "sim/decode.h"
#include "sim/timer.h"
#include "stats.h"
#include "support/hash.h"
#include "support/json.h"

namespace perfbench {

using namespace ifko;

namespace {

using JsonObject = std::map<std::string, JsonValue>;

std::string str(const JsonObject& o, const char* key) {
  const auto it = o.find(key);
  return it == o.end() ? std::string() : it->second.string;
}

uint64_t num(const JsonObject& o, const char* key) {
  const auto it = o.find(key);
  return it == o.end() ? 0 : it->second.asUint();
}

std::optional<arch::MachineConfig> machineNamed(const std::string& name) {
  for (arch::MachineConfig m : {arch::p4e(), arch::opteron()})
    if (m.name == name) return m;
  return std::nullopt;
}

/// One kernel's search being replayed.  Owns what its EvalPipeline refers
/// to, so it lives behind a unique_ptr.
struct KernelState {
  std::string name;
  KernelSource src;
  arch::MachineConfig machine;
  search::SearchConfig config;
  std::unique_ptr<search::EvalPipeline> pipeline;
  search::EvalCache* cache = nullptr;
  search::EvalKey baseKey;
  int64_t request = 0;
  int64_t span = -1;
  uint64_t hits = 0;
  uint64_t misses = 0;
};

class Replayer {
 public:
  Replayer(const ReplayInput& in, SpanRecorder& rec, Outcome& out)
      : in_(in), rec_(rec), out_(out) {}

  ReplayResult run() {
    const double t0 = rec_.now();
    result_.spanBegin = rec_.spans().size();
    std::ifstream trace(in_.tracePath);
    if (!trace) out_.fail("cannot read trace " + in_.tracePath);
    std::string line;
    while (std::getline(trace, line)) {
      JsonObject ev;
      if (!parseJsonObject(line, &ev)) {
        out_.fail("damaged trace line: " + line);
        continue;
      }
      const std::string event = str(ev, "event");
      if (event == "kernel_start") {
        kernelStart(ev);
      } else if (event == "candidate" && cur_ != nullptr) {
        candidate(ev);
      } else if (event == "kernel_end" && cur_ != nullptr) {
        kernelEnd(ev);
      }
    }
    if (cur_ != nullptr) out_.fail("trace ends inside kernel " + cur_->name);
    result_.wallSeconds = rec_.now() - t0;
    result_.spanEnd = rec_.spans().size();
    return result_;
  }

 private:
  void kernelStart(const JsonObject& ev) {
    auto k = std::make_unique<KernelState>();
    k->name = str(ev, "kernel");
    const auto src = in_.kernels.find(k->name);
    const auto machine = machineNamed(str(ev, "machine"));
    if (src == in_.kernels.end() || !machine.has_value()) {
      out_.fail("trace names unknown kernel/machine: " + k->name);
      return;
    }
    k->src = src->second;
    k->machine = *machine;
    k->config = in_.config;
    k->config.n = static_cast<int64_t>(num(ev, "n"));
    k->config.context = str(ev, "context") == sim::contextName(
                                                  sim::TimeContext::InL2)
                            ? sim::TimeContext::InL2
                            : sim::TimeContext::OutOfCache;
    // The replay decodes by itself, so sim.decode gets its own span.
    k->config.predecode = false;
    const size_t index = result_.counts.kernels++;
    k->request = index < in_.kernelRequests.size()
                     ? in_.kernelRequests[index]
                     : static_cast<int64_t>(index);
    k->span = rec_.open("search.kernel", k->request);
    {
      ScopedSpan s(rec_, "hil.lowerKernel", k->request);
      (void)fko::lowerKernel(k->src.source);
    }
    {
      ScopedSpan s(rec_, "analysis.analyzeKernel", k->request);
      (void)fko::analyzeKernel(k->src.source, k->machine);
    }
    k->pipeline = std::make_unique<search::EvalPipeline>(
        k->src.source, k->src.spec, k->machine, k->config);

    const std::string context(sim::contextName(k->config.context));
    const std::string combo = k->machine.name + "|" + context + "|" +
                              std::to_string(k->config.n);
    auto& cache = caches_[combo];
    if (cache == nullptr) {
      cache = std::make_unique<search::EvalCache>();
      std::string err;
      if (!cache->open(in_.workDir + "/replay." +
                           std::to_string(caches_.size()) + ".cache.jsonl",
                       &err))
        out_.fail("replay cache: " + err);
    }
    k->cache = cache.get();
    k->baseKey = {hashHex(k->src.source), k->machine.name, context,
                  k->config.n,            k->config.seed,  k->config.testerN,
                  ""};
    cur_ = std::move(k);
  }

  void candidate(const JsonObject& ev) {
    KernelState& k = *cur_;
    const std::string params = str(ev, "params");
    const bool traceHit = str(ev, "cache") == "hit";
    search::EvalKey key = k.baseKey;
    key.params = params;

    const int64_t span = rec_.open(
        traceHit ? "search.replayed_hit" : "search.evaluation", k.request);
    std::optional<search::EvalRecord> cached;
    {
      ScopedSpan s(rec_, "evalcache.lookup", k.request);
      cached = k.cache->lookup(key);
    }
    ++(cached.has_value() ? k.hits : k.misses);
    if (cached.has_value() != traceHit)
      out_.fail(k.name + " " + params + ": replayed cache " +
                (cached.has_value() ? "hit" : "missed") +
                " where the traced run did not");
    if (!cached.has_value()) evaluate(k, key, ev);
    rec_.close(span);
  }

  void evaluate(KernelState& k, const search::EvalKey& key,
                const JsonObject& ev) {
    const opt::TuningSpec spec = opt::parseTuningSpec(key.params);
    if (!spec.ok || opt::formatTuningSpec(spec.params) != key.params) {
      out_.fail(k.name + ": trace params do not round-trip: " + key.params);
      return;
    }
    // The pipeline's own counters tell which way compile() went: a full
    // pass-stack run, a prefetch-distance patch of a sibling, or a memo hit.
    const search::EvalPipeline::Stats before = k.pipeline->stats();
    const int64_t span = rec_.open("fko.compile", k.request);
    const std::shared_ptr<const search::CompiledCandidate> cand =
        k.pipeline->compile(spec.params);
    rec_.close(span);
    const search::EvalPipeline::Stats after = k.pipeline->stats();
    if (after.prefixPatches != before.prefixPatches)
      rec_.rename(span, "fko.prefix_patch");
    else if (after.memoHits != before.memoHits)
      rec_.rename(span, "fko.memo_hit");
    auto status = search::EvalOutcome::Status::Timed;
    uint64_t cycles = 0;
    std::optional<search::EvalCounters> counters;
    if (!cand->compiled.ok) {
      status = search::EvalOutcome::Status::CompileFail;
    } else {
      sim::DecodedFunction decoded;
      {
        ScopedSpan s(rec_, "sim.decode", k.request);
        decoded = sim::decodeFunction(cand->compiled.fn, k.machine);
      }
      bool pass = true;
      {
        ScopedSpan s(rec_, "tester", k.request);
        pass = k.pipeline->testerPasses(cand);
      }
      if (!pass) {
        status = search::EvalOutcome::Status::TesterFail;
      } else {
        sim::TimeResult timed;
        {
          ScopedSpan s(rec_, "sim.time", k.request);
          const search::SearchConfig& c = k.config;
          timed = k.src.spec != nullptr
                      ? sim::timeKernel(k.machine, decoded, *k.src.spec, c.n,
                                        c.context, c.seed, 0,
                                        k.pipeline->dataTemplate())
                      : fko::timeCompiled(k.machine, decoded, c.n, c.context,
                                          c.seed, k.pipeline->maxStrideElems(),
                                          0, k.pipeline->genericTemplate());
        }
        cycles = timed.cycles;
        result_.counts.dynInsts += timed.dynInsts;
        counters = search::collectCounters(cand->compiled, timed);
      }
    }
    const std::string verdict =
        status == search::EvalOutcome::Status::Timed
            ? "pass"
            : std::string(search::evalStatusName(status));
    if (verdict != str(ev, "verdict") || cycles != num(ev, "cycles"))
      out_.fail(k.name + " " + key.params + ": replay gave " + verdict + "/" +
                std::to_string(cycles) + ", trace recorded " +
                str(ev, "verdict") + "/" + std::to_string(num(ev, "cycles")));
    {
      ScopedSpan s(rec_, "evalcache.insert", k.request);
      k.cache->insert(key, cycles, status, counters);
    }
  }

  void kernelEnd(const JsonObject& ev) {
    KernelState& k = *cur_;
    ReplayCounts& c = result_.counts;
    c.evaluations += num(ev, "evaluations");
    c.proposals += num(ev, "proposals");
    c.cacheHits += k.hits;
    c.cacheMisses += k.misses;
    const auto secs = ev.find("seconds");
    if (secs != ev.end())
      c.longestKernelSeconds =
          std::max(c.longestKernelSeconds, secs->second.number);
    const search::EvalPipeline::Stats st = k.pipeline->stats();
    c.fullCompiles += st.fullCompiles;
    c.prefixPatches += st.prefixPatches;
    c.memoHits += st.memoHits;
    c.testerRuns += st.testerRuns;
    if (k.hits != num(ev, "cache_hits") || k.misses != num(ev, "cache_misses"))
      out_.fail(k.name + ": replayed cache hits/misses " +
                std::to_string(k.hits) + "/" + std::to_string(k.misses) +
                " differ from the trace");
    rec_.close(k.span);
    cur_.reset();
  }

  const ReplayInput& in_;
  SpanRecorder& rec_;
  Outcome& out_;
  ReplayResult result_;
  std::unique_ptr<KernelState> cur_;
  std::map<std::string, std::unique_ptr<search::EvalCache>> caches_;
};

std::vector<double> durations(const std::vector<Span>& spans,
                              const std::string& name) {
  std::vector<double> d;
  for (const Span& s : spans)
    if (s.name == name) d.push_back(s.duration());
  return d;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

Golden::Fields countFields(const ReplayCounts& c) {
  return {{"evaluations", std::to_string(c.evaluations)},
          {"proposals", std::to_string(c.proposals)},
          {"dyn_insts", std::to_string(c.dynInsts)},
          {"full_compiles", std::to_string(c.fullCompiles)},
          {"prefix_patches", std::to_string(c.prefixPatches)},
          {"tester_runs", std::to_string(c.testerRuns)},
          {"cache_hits", std::to_string(c.cacheHits)},
          {"cache_misses", std::to_string(c.cacheMisses)}};
}

ReplayResult replayTrace(const ReplayInput& in, SpanRecorder& rec,
                         Outcome& out) {
  return Replayer(in, rec, out).run();
}

void setLayerMetrics(const std::vector<Span>& spans, const LayerContext& ctx,
                     Outcome& out) {
  const ReplayCounts& c = ctx.replay.counts;
  auto us = [&](const char* name) {
    return 1e6 * median(durations(spans, name));
  };
  auto ms = [&](const char* name) {
    return 1e3 * median(durations(spans, name));
  };
  auto busy = [&](const char* name) { return sum(durations(spans, name)); };

  out.set("hil.frontend_us", us("hil.lowerKernel"), "us");
  out.set("analysis.analyze_us", us("analysis.analyzeKernel"), "us");
  // compile_ms_p50 is the full pass-stack compile; the busy time counts
  // every EvalPipeline::compile call (patches and memo hits too).
  out.set("fko.compile_ms_p50", ms("fko.compile"), "ms");
  out.set("fko.compile_busy_s",
          busy("fko.compile") + busy("fko.prefix_patch") +
              busy("fko.memo_hit"),
          "s");
  out.set("fko.full_compiles", static_cast<double>(c.fullCompiles), "count");
  out.set("fko.prefix_patches", static_cast<double>(c.prefixPatches),
          "count");
  out.set("fko.memo_hit_ratio",
          ratio(static_cast<double>(c.memoHits),
                static_cast<double>(c.memoHits + c.fullCompiles +
                                    c.prefixPatches)),
          "ratio");
  out.set("sim.decode_us_p50", us("sim.decode"), "us");
  out.set("tester.busy_s", busy("tester"), "s");
  out.set("tester.runs", static_cast<double>(c.testerRuns), "count");
  const double timeBusy = busy("sim.time");
  out.set("sim.time_busy_s", timeBusy, "s");
  out.set("sim.dyn_insts", static_cast<double>(c.dynInsts), "count");
  out.set("sim.minsts_per_s",
          ratio(static_cast<double>(c.dynInsts) / 1e6, timeBusy), "Minst/s");
  out.set("search.evaluations", static_cast<double>(c.evaluations), "count");
  out.set("search.proposals", static_cast<double>(c.proposals), "count");
  out.set("search.eval_ms_p50", ms("search.evaluation"), "ms");
  out.set("orchestrator.core_util",
          ratio(busy("search.evaluation"), ctx.jobs * ctx.tracedWall),
          "ratio");
  out.set("orchestrator.longest_kernel_share",
          ratio(c.longestKernelSeconds, ctx.tracedWall), "ratio");
  out.set("orchestrator.parallel_speedup", ctx.parallelSpeedup, "x");
  out.set("evalcache.hit_ratio",
          ratio(static_cast<double>(c.cacheHits),
                static_cast<double>(c.cacheHits + c.cacheMisses)),
          "ratio");
  out.set("evalcache.hits", static_cast<double>(c.cacheHits), "count");
  out.set("evalcache.misses", static_cast<double>(c.cacheMisses), "count");
  out.set("evalcache.lookup_us_p50", us("evalcache.lookup"), "us");
  out.set("evalcache.insert_us_p50", us("evalcache.insert"), "us");
  out.set("wisdom.find_us_p50", us("wisdom.find"), "us");
  out.set("wisdom.save_ms_p50", ms("wisdom.save"), "ms");
  out.set("wisdom.records", static_cast<double>(ctx.wisdomRecords), "count");
  out.set("serve.parse_us_p50", us("serve.parseRequest"), "us");
  out.set("serve.handle_query_us_p50", us("serve.handleLine/QUERY"), "us");
  out.set("serve.tune_p50_ms", median(ctx.tuneLatencyMs), "ms");
  out.set("serve.hol_wait_ms_p99", percentile(ctx.holWaitMs, 99.0), "ms");
  out.set("trace.wall_s", ctx.tracedWall, "s");
  out.set("trace.overhead", ratio(ctx.tracedWall, ctx.untracedWall), "ratio");
  out.set("trace.replay_s", ctx.replayWall, "s");

  // Coverage: self time of the candidate replay's spans around layer calls,
  // over that replay's wall time.  The search.* spans group a kernel's or a
  // candidate's calls; their self time is the replay's own glue, which no
  // layer accounts for.  serve_mix's request replay is left out: its TUNE
  // spans contain whole searches with no spans inside.
  const std::vector<double> self = selfTimes(spans);
  double layerSelf = 0.0;
  for (size_t i = ctx.replay.spanBegin; i < ctx.replay.spanEnd; ++i)
    if (spans[i].name.rfind("search.", 0) != 0) layerSelf += self[i];
  out.set("trace.coverage", ratio(layerSelf, ctx.replay.wallSeconds),
          "ratio");
}

}  // namespace perfbench
