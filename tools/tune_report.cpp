// Renders a human-readable report from an orchestrator event trace
// (ifko tune / tune-all --trace=FILE; schema in docs/TUNING.md).
//
//   tune_report [<trace.jsonl>...] [--wisdom=FILE] [--ledger] [--all-runs]
//               [--attr]
//
// Several trace files aggregate into one report (the fleet posture: each
// tune-all worker writes its own trace; see docs/DISTRIBUTED.md).  More
// than one trace implies --all-runs, since "the last run" of independent
// files is meaningless.
//
// Summarizes, per kernel: candidates evaluated, cache hit rate, tester and
// compile rejections, timeouts and crashes the search survived, the
// default -> best cycle improvement, and (with --ledger) the per-dimension
// progression the search committed.  --attr adds the trace-v3 cycle
// attribution: per kernel, the share of cycles each stall cause claims for
// the FKO defaults versus the search's winner.  The trace file is
// append-mode across runs; each run opens with a run_start event.  By
// default only the last run is reported — --all-runs aggregates every run
// in the file.
//
// --wisdom=FILE adds a wisdom-store summary (docs/SERVING.md): one row per
// record — kernel, machine, context, N-class, cycles, provenance — plus,
// when a trace is also given, staleness against it: "stale" marks a record
// whose kernel the trace has since tuned to strictly fewer cycles, i.e. the
// store is behind what the most recent run found.  Works without a trace
// (wisdom summary only).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "search/counters.h"
#include "sim/timing.h"
#include "support/json.h"
#include "support/str.h"
#include "support/table.h"
#include "wisdom/wisdom.h"

using namespace ifko;

namespace {

struct DimBest {
  std::string dim;
  uint64_t bestCycles = 0;
};

struct KernelStats {
  std::string name;
  int candidates = 0;
  int hits = 0;
  int misses = 0;
  int testerFails = 0;
  int compileFails = 0;
  int timeouts = 0;
  int crashes = 0;
  std::vector<DimBest> ledger;
  bool ok = false;
  bool ended = false;
  bool quarantined = false;
  std::string error;
  uint64_t defaultCycles = 0;
  uint64_t bestCycles = 0;
  double speedup = 0.0;
  double seconds = 0.0;
  // --attr: the DEFAULTS candidate's attribution and the best (fewest
  // cycles) passing candidate's, from the nested trace-v3 counters.
  std::optional<sim::Attribution> defAttr;
  std::optional<sim::Attribution> bestAttr;
  uint64_t bestAttrCycles = 0;
};

const JsonValue* get(const std::map<std::string, JsonValue>& obj,
                     const char* key) {
  auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

std::string getStr(const std::map<std::string, JsonValue>& obj,
                   const char* key) {
  const JsonValue* v = get(obj, key);
  return v != nullptr && v->kind == JsonValue::Kind::String ? v->string : "";
}

double getNum(const std::map<std::string, JsonValue>& obj, const char* key) {
  const JsonValue* v = get(obj, key);
  return v != nullptr && v->kind == JsonValue::Kind::Number ? v->number : 0.0;
}

bool getBool(const std::map<std::string, JsonValue>& obj, const char* key) {
  const JsonValue* v = get(obj, key);
  return v != nullptr && v->kind == JsonValue::Kind::Bool && v->boolean;
}

/// A candidate's attribution out of its nested trace-v3 counters object;
/// nullopt when it has none or they charge no cycles.
std::optional<sim::Attribution> readAttr(
    const std::map<std::string, JsonValue>& obj) {
  const JsonValue* counters = get(obj, "counters");
  if (counters == nullptr || counters->kind != JsonValue::Kind::Object ||
      counters->object == nullptr)
    return std::nullopt;
  const sim::Attribution attr = search::parseCounters(*counters->object).attr;
  if (attr.total() == 0) return std::nullopt;
  return attr;
}

}  // namespace

int main(int argc, char** argv) {
  bool showLedger = false;
  bool allRuns = false;
  bool showAttr = false;
  std::vector<std::string> tracePaths;
  std::string wisdomPath;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ledger") == 0) showLedger = true;
    else if (std::strcmp(argv[i], "--all-runs") == 0) allRuns = true;
    else if (std::strcmp(argv[i], "--attr") == 0) showAttr = true;
    else if (startsWith(argv[i], "--wisdom="))
      wisdomPath = argv[i] + std::strlen("--wisdom=");
    else if (argv[i][0] != '-') tracePaths.push_back(argv[i]);
    else {
      std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
      return 2;
    }
  }
  if (tracePaths.empty() && wisdomPath.empty()) {
    std::fprintf(stderr,
                 "usage: tune_report [<trace.jsonl>...] [--wisdom=FILE] "
                 "[--ledger] [--all-runs] [--attr]\n");
    return 2;
  }
  // "The last run" of several independent files is meaningless; aggregate.
  const bool multiTrace = tracePaths.size() > 1;
  if (multiTrace) allRuns = true;

  std::vector<std::string> order;
  std::map<std::string, KernelStats> kernels;
  auto statsFor = [&](const std::string& name) -> KernelStats& {
    auto it = kernels.find(name);
    if (it == kernels.end()) {
      order.push_back(name);
      it = kernels.emplace(name, KernelStats{name}).first;
    }
    return it->second;
  };

  bool sawBatchEnd = false;
  double batchSeconds = 0.0;
  int badLines = 0;
  int runs = 0;
  for (const std::string& tracePath : tracePaths) {
    std::ifstream in(tracePath);
    if (!in) {
      std::fprintf(stderr, "cannot read '%s'\n", tracePath.c_str());
      return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      std::map<std::string, JsonValue> obj;
      if (!parseJsonObject(line, &obj)) {
        ++badLines;
        continue;
      }
      std::string event = getStr(obj, "event");
      std::string kernel = getStr(obj, "kernel");
      if (event == "run_start") {
        ++runs;
        if (!allRuns) {
          // Only the last run matters: drop everything accumulated so far.
          order.clear();
          kernels.clear();
          sawBatchEnd = false;
          batchSeconds = 0.0;
        }
      } else if (event == "candidate") {
        KernelStats& k = statsFor(kernel);
        ++k.candidates;
        if (getStr(obj, "cache") == "hit") ++k.hits;
        else ++k.misses;
        std::string verdict = getStr(obj, "verdict");
        if (verdict == "tester_fail") ++k.testerFails;
        else if (verdict == "compile_fail") ++k.compileFails;
        else if (verdict == "timeout") ++k.timeouts;
        else if (verdict == "crash") ++k.crashes;
        if (verdict == "pass") {
          std::optional<sim::Attribution> attr = readAttr(obj);
          if (attr.has_value()) {
            std::string dim = getStr(obj, "dim");
            if (dim == "DEFAULTS" && !k.defAttr.has_value()) k.defAttr = attr;
            uint64_t cycles = static_cast<uint64_t>(getNum(obj, "cycles"));
            if (!k.bestAttr.has_value() || cycles < k.bestAttrCycles) {
              k.bestAttr = attr;
              k.bestAttrCycles = cycles;
            }
          }
        }
      } else if (event == "dimension_end") {
        statsFor(kernel).ledger.push_back(
            {getStr(obj, "dim"),
             static_cast<uint64_t>(getNum(obj, "best_cycles"))});
      } else if (event == "kernel_end") {
        KernelStats& k = statsFor(kernel);
        k.ended = true;
        k.ok = getBool(obj, "ok");
        k.quarantined = getBool(obj, "quarantined");
        k.error = getStr(obj, "error");
        k.defaultCycles = static_cast<uint64_t>(getNum(obj, "default_cycles"));
        k.bestCycles = static_cast<uint64_t>(getNum(obj, "best_cycles"));
        k.speedup = getNum(obj, "speedup");
        k.seconds = getNum(obj, "seconds");
      } else if (event == "batch_end") {
        sawBatchEnd = true;
        batchSeconds += getNum(obj, "seconds");
      }
    }
  }

  if (order.empty() && !tracePaths.empty()) {
    std::fprintf(stderr, "no trace events in %s\n",
                 tracePaths.size() == 1 ? ("'" + tracePaths[0] + "'").c_str()
                                        : "the given trace files");
    return 1;
  }

  if (!order.empty()) {
    TextTable t;
    t.setHeader({"kernel", "cands", "hit%", "tester-", "compile-", "t/o",
                 "crash", "FKO cyc", "ifko cyc", "speedup", "sec"});
    int totalCands = 0, totalHits = 0, totalTimeouts = 0, totalCrashes = 0;
    int quarantinedKernels = 0;
    for (const auto& name : order) {
      const KernelStats& k = kernels.at(name);
      totalCands += k.candidates;
      totalHits += k.hits;
      totalTimeouts += k.timeouts;
      totalCrashes += k.crashes;
      quarantinedKernels += k.quarantined ? 1 : 0;
      double hitPct = k.candidates == 0 ? 0.0 : 100.0 * k.hits / k.candidates;
      std::string label = k.name + (k.quarantined ? " (quarantined)" : "");
      if (!k.ended || !k.ok) {
        t.addRow({label, std::to_string(k.candidates), fmtFixed(hitPct, 1),
                  std::to_string(k.testerFails), std::to_string(k.compileFails),
                  std::to_string(k.timeouts), std::to_string(k.crashes), "-",
                  "-",
                  !k.ended ? "(incomplete)"
                           : (k.error.empty() ? "(failed)" : k.error),
                  fmtFixed(k.seconds, 2)});
        continue;
      }
      t.addRow({label, std::to_string(k.candidates), fmtFixed(hitPct, 1),
                std::to_string(k.testerFails), std::to_string(k.compileFails),
                std::to_string(k.timeouts), std::to_string(k.crashes),
                std::to_string(k.defaultCycles), std::to_string(k.bestCycles),
                fmtFixed(k.speedup, 2) + "x", fmtFixed(k.seconds, 2)});
    }
    std::fputs(t.str().c_str(), stdout);

    std::printf("\n%zu kernels, %d candidate evaluations, %.1f%% served from "
                "cache",
                order.size(), totalCands,
                totalCands == 0 ? 0.0 : 100.0 * totalHits / totalCands);
    if (totalTimeouts + totalCrashes > 0)
      std::printf(", %d timeouts / %d crashes survived", totalTimeouts,
                  totalCrashes);
    if (quarantinedKernels > 0)
      std::printf(", %d kernel(s) quarantined", quarantinedKernels);
    if (sawBatchEnd) std::printf(", %.2f s wall", batchSeconds);
    if (badLines != 0)
      std::printf(" (%d malformed trace lines skipped)", badLines);
    if (runs > 1)
      std::printf(
          "\n%s",
          allRuns ? ("aggregated over " + std::to_string(runs) + " runs" +
                     (multiTrace ? " in " + std::to_string(tracePaths.size()) +
                                       " trace files"
                                 : std::string(" (--all-runs)")) +
                     "\n")
                        .c_str()
                  : ("trace holds " + std::to_string(runs) +
                     " runs; reporting the last (use --all-runs "
                     "to aggregate)\n")
                        .c_str());
    else
      std::printf("\n");
  }

  if (showLedger) {
    for (const auto& name : order) {
      const KernelStats& k = kernels.at(name);
      if (k.ledger.empty()) continue;
      std::printf("\n%s ledger (default %llu cycles):\n", k.name.c_str(),
                  static_cast<unsigned long long>(k.defaultCycles));
      uint64_t prev = k.defaultCycles;
      for (const auto& d : k.ledger) {
        double gain = d.bestCycles == 0
                          ? 0.0
                          : 100.0 * (static_cast<double>(prev) /
                                         static_cast<double>(d.bestCycles) -
                                     1.0);
        std::printf("  %-7s -> %10llu cycles (%+.1f%%)\n", d.dim.c_str(),
                    static_cast<unsigned long long>(d.bestCycles), gain);
        prev = d.bestCycles;
      }
    }
  }

  if (showAttr) {
    // Per-cause share of each run's own cycle total; attribution sums
    // exactly to the cycle count, so the shares per row sum to 100.
    TextTable a;
    std::vector<std::string> header = {"kernel", "who"};
    for (size_t i = 0; i < sim::kNumStallCauses; ++i)
      header.emplace_back(sim::stallCauseName(static_cast<sim::StallCause>(i)));
    a.setHeader(header);
    int kernelsWithAttr = 0;
    auto addAttrRow = [&](const std::string& label, const char* who,
                          const sim::Attribution& s) {
      std::vector<std::string> row = {label, who};
      uint64_t total = s.total();
      for (size_t i = 0; i < sim::kNumStallCauses; ++i)
        row.push_back(
            fmtFixed(total == 0 ? 0.0
                                : 100.0 * static_cast<double>(s.cycles[i]) /
                                      static_cast<double>(total),
                     1));
      a.addRow(row);
    };
    for (const auto& name : order) {
      const KernelStats& k = kernels.at(name);
      if (!k.defAttr.has_value() && !k.bestAttr.has_value()) continue;
      ++kernelsWithAttr;
      if (k.defAttr.has_value()) addAttrRow(k.name, "FKO", *k.defAttr);
      if (k.bestAttr.has_value()) addAttrRow(k.name, "ifko", *k.bestAttr);
    }
    if (kernelsWithAttr == 0) {
      std::printf("\nno attribution counters in the trace (written before "
                  "trace schema v3)\n");
    } else {
      std::printf("\ncycle attribution (%% of each run's cycles):\n");
      std::fputs(a.str().c_str(), stdout);
    }
  }

  if (!wisdomPath.empty()) {
    wisdom::WisdomStore store;
    std::string werr;
    if (!store.load(wisdomPath, &werr)) {
      std::fprintf(stderr, "cannot read wisdom '%s': %s\n", wisdomPath.c_str(),
                   werr.c_str());
      return 1;
    }
    TextTable w;
    w.setHeader({"kernel", "machine", "context", "N", "FKO cyc", "best cyc",
                 "speedup", "evals", "run", "vs trace"});
    size_t stale = 0;
    for (const wisdom::WisdomRecord* rec : store.records()) {
      // Staleness: the trace's most recent tune of this kernel found
      // strictly fewer cycles than the record remembers — the store is
      // behind and worth re-exporting.
      std::string vsTrace = "-";
      auto it = kernels.find(rec->kernel);
      if (it != kernels.end() && it->second.ok && it->second.bestCycles > 0) {
        if (it->second.bestCycles < rec->bestCycles) {
          vsTrace = "stale (trace " + std::to_string(it->second.bestCycles) +
                    " < " + std::to_string(rec->bestCycles) + ")";
          ++stale;
        } else {
          vsTrace = "fresh";
        }
      }
      w.addRow({rec->kernel, rec->key.machine, rec->key.context,
                rec->key.nClass, std::to_string(rec->defaultCycles),
                std::to_string(rec->bestCycles),
                fmtFixed(rec->speedup(), 2) + "x",
                std::to_string(rec->evaluations), rec->runId, vsTrace});
    }
    std::printf("\nwisdom store %s: %zu record(s)", wisdomPath.c_str(),
                store.size());
    if (store.damagedLines() > 0)
      std::printf(", %zu damaged line(s) skipped", store.damagedLines());
    if (store.schemaSkippedLines() > 0)
      std::printf(", %zu line(s) from another wisdom_schema skipped",
                  store.schemaSkippedLines());
    if (!tracePaths.empty())
      std::printf(", %zu stale vs th%s trace%s", stale,
                  tracePaths.size() == 1 ? "is" : "ese",
                  tracePaths.size() == 1 ? "" : "s");
    std::printf("\n");
    std::fputs(w.str().c_str(), stdout);
  }
  return 0;
}
