#include "driver/options.h"

#include <climits>
#include <cstdio>

#include "opt/params.h"
#include "search/strategy/strategy.h"
#include "support/str.h"

namespace ifko::driver {
namespace {

using Verb = serve::Request::Verb;

// Each function below stores one flag's value into `o` and returns "", or
// returns the error.  Values that end up in an int take Max = INT_MAX, so
// an out-of-range flag is an error instead of a silently narrowed number;
// `Given`, when set, records that the flag was given at all.
template <auto Field, int64_t Min, int64_t Max = INT64_MAX,
          bool Options::*Given = nullptr>
std::string intValue(Options& o, std::string_view flag, const std::string& v) {
  int64_t parsed = 0;
  if (!parseInt64(v, &parsed) || parsed < Min || parsed > Max)
    return "bad " + std::string(flag) + " (want integer " +
           (Max == INT64_MAX ? ">= " + std::to_string(Min)
                             : "in " + std::to_string(Min) + ".." +
                                   std::to_string(Max)) +
           "): '" + v + "'";
  o.*Field = parsed;
  if constexpr (Given != nullptr) o.*Given = true;
  return "";
}

template <auto Field>
std::string stringValue(Options& o, std::string_view, const std::string& v) {
  o.*Field = v;
  return "";
}

template <auto Field>
std::string setSwitch(Options& o, std::string_view, const std::string&) {
  o.*Field = true;
  return "";
}

template <Verb V>
std::string queryVerb(Options& o, std::string_view, const std::string& v) {
  o.queryVerb = V;
  o.exportPath = v;  // only --export takes a value
  return "";
}

// Every tuning-parameter flag funnels through the TuningSpec parser, so
// validation and serialization live in exactly one place (opt/params.cpp):
// --ur=4 is exactly --params=ur=4.
std::string applySpec(Options& o, const std::string& fragment) {
  auto spec = opt::parseTuningSpec(fragment, o.compile.tuning);
  if (!spec.ok) return "bad tuning spec '" + fragment + "': " + spec.error;
  o.compile.tuning = spec.params;
  return "";
}

std::string paramsValue(Options& o, std::string_view, const std::string& v) {
  return applySpec(o, v);
}

/// --ur=4 -> "ur=4".
std::string specValue(Options& o, std::string_view flag, const std::string& v) {
  return applySpec(o, std::string(flag.substr(2)) + "=" + v);
}

/// --wnt -> "wnt=Y".
std::string specSwitch(Options& o, std::string_view flag, const std::string&) {
  return applySpec(o, std::string(flag.substr(2)) + "=Y");
}

/// ARRAY:KIND:DIST (e.g. --pf=X:nta:1024) -> pf(ARRAY)=KIND:DIST.
std::string prefetchValue(Options& o, std::string_view, const std::string& v) {
  const size_t colon = v.find(':');
  if (colon == std::string::npos || colon == 0)
    return "bad --pf (want ARRAY:KIND:DIST): " + v;
  const std::string rest = v.substr(colon + 1);
  return applySpec(o, "pf(" + v.substr(0, colon) + ")=" +
                          (rest == "none:0" ? "none" : rest));
}

std::string archValue(Options& o, std::string_view, const std::string& v) {
  auto machine = arch::parseArchFlag(v);
  if (!machine.has_value()) return "unknown arch '" + v + "' (want p4e|opteron)";
  o.machine = *machine;
  o.archFlag = v;
  return "";
}

std::string contextValue(Options& o, std::string_view, const std::string& v) {
  auto ctx = sim::parseContextFlag(v);
  if (!ctx.has_value()) return "unknown context '" + v + "' (want ooc|inl2)";
  o.context = *ctx;
  o.contextFlag = v;
  return "";
}

std::string strategyValue(Options& o, std::string_view, const std::string& v) {
  // A removed strategy names the one that replaced it.
  if (v == "random")
    return "strategy 'random' was removed; use evolve (its first generation "
           "is uniform random sampling)";
  if (v == "bandit")
    return "strategy 'bandit' was removed; use attribution (at equal budgets "
           "it lands closest to each kernel's best)";
  auto kind = search::parseStrategyKind(v);
  if (!kind.has_value()) {
    std::string want;
    for (search::StrategyKind k : search::allStrategies())
      want += (want.empty() ? "" : "|") + std::string(search::strategyName(k));
    return "unknown strategy '" + v + "' (want " + want + ")";
  }
  o.strategy = *kind;
  return "";
}

std::string faultPlanValue(Options& o, std::string_view, const std::string& v) {
  std::string error;
  auto plan = search::FaultPlan::parse(v, &error);
  if (!plan.has_value()) return "bad --fault-plan: " + error;
  o.faultPlan = *plan;
  return "";
}

std::string fromValue(Options& o, std::string_view, const std::string& v) {
  o.fromPaths.push_back(v);
  return "";
}

using F = FlagValue;

const FlagSpec kFlags[] = {
    {"--arch", "p4e|opteron", F::Required, kArchFlag, archValue},
    {"--sv", "0|1", F::Required, kParamFlags, specValue},
    {"--ur", "N", F::Required, kParamFlags, specValue},
    {"--ae", "N", F::Required, kParamFlags, specValue},
    {"--wnt", "", F::None, kParamFlags, specSwitch},
    {"--lc", "0|1", F::Required, kParamFlags, specValue},
    {"--pf", "ARRAY:KIND:DIST", F::Required, kParamFlags, prefetchValue},
    {"--bf", "", F::None, kParamFlags, specSwitch},
    {"--cisc", "", F::None, kParamFlags, specSwitch},
    {"--params", "SPEC", F::Required, kParamFlags, paramsValue},
    {"--dump-ir", "", F::None, kParamFlags, setSwitch<&Options::dumpIr>},
    {"--n", "N", F::Required, kNFlag,
     intValue<&Options::n, 1, INT64_MAX, &Options::nSet>},
    {"--context", "ooc|inl2", F::Required, kContextFlag, contextValue},
    {"--fast", "", F::None, kSearchFlags, setSwitch<&Options::fast>},
    {"--extensions", "", F::None, kSearchFlags,
     setSwitch<&Options::extensions>},
    {"--jobs", "N", F::Required, kSearchFlags,
     intValue<&Options::jobs, 1, INT_MAX>},
    {"--cache", "FILE", F::Required, kSearchFlags,
     stringValue<&Options::cachePath>},
    {"--cache-dir", "DIR", F::Required, kSearchFlags,
     stringValue<&Options::cacheDirPath>},
    {"--shard", "NAME", F::Required, kSearchFlags,
     stringValue<&Options::cacheShard>},
    {"--trace", "FILE", F::Required, kSearchFlags,
     stringValue<&Options::tracePath>},
    {"--strategy", "line|hillclimb|evolve|attribution", F::Required,
     kSearchFlags, strategyValue},
    {"--budget", "N", F::Required, kSearchFlags,
     intValue<&Options::budget, 1, INT_MAX>},
    {"--budget-cycles", "N", F::Required, kSearchFlags,
     intValue<&Options::budgetCycles, 1>},
    {"--search-seed", "S", F::Required, kSearchFlags,
     intValue<&Options::searchSeed, 0>},
    {"--eval-timeout-ms", "N", F::Required, kSearchFlags,
     intValue<&Options::evalTimeoutMs, 0>},
    {"--quarantine", "N", F::Required, kSearchFlags,
     intValue<&Options::quarantine, 0, INT_MAX>},
    {"--fault-plan", "SPEC", F::Required, kSearchFlags, faultPlanValue},
    {"--wisdom", "FILE", F::Required, kWisdomFlag,
     stringValue<&Options::wisdomPath>},
    {"--workers", "N", F::Required, kFleetFlags,
     intValue<&Options::workers, 1, INT_MAX>},
    {"--worker-id", "K", F::Required, kFleetFlags,
     intValue<&Options::workerId, 0, INT_MAX, &Options::workerIdSet>},
    {"--socket", "PATH", F::Required, kEndpointFlags,
     stringValue<&Options::socketPath>},
    {"--port", "N", F::Required, kEndpointFlags,
     intValue<&Options::tcpPort, 0, 65535>},
    {"--kernels", "DIR", F::Required, kDaemonFlags,
     stringValue<&Options::kernelsDir>},
    {"--recv-timeout-ms", "N", F::Required, kDaemonFlags,
     intValue<&Options::recvTimeoutMs, 0, INT_MAX>},
    {"--tune", "", F::None, kQueryFlags, queryVerb<Verb::Tune>},
    {"--explain-verb", "", F::None, kQueryFlags, queryVerb<Verb::Explain>},
    {"--stats", "", F::None, kQueryFlags, queryVerb<Verb::Stats>},
    {"--export", "PATH", F::Optional, kQueryFlags, queryVerb<Verb::Export>},
    {"--shutdown", "", F::None, kQueryFlags, queryVerb<Verb::Shutdown>},
    {"--from", "PATH", F::Required, kFromFlag, fromValue},
};

// `explain` is `tune` without --wisdom; `serve` takes the search flags
// because they configure its tune-on-miss path.
constexpr unsigned kTuneFlags =
    kArchFlag | kSizeFlags | kSearchFlags | kWisdomFlag;

const VerbSpec kVerbs[] = {
    {"analyze", Command::Analyze, "<file.hil>",
     "what FKO's analysis reports to the search", true, true, kArchFlag},
    {"compile", Command::Compile, "<file.hil>",
     "one FKO compile with explicit parameters", true, true,
     kArchFlag | kParamFlags | kNFlag},
    {"run", Command::Run, "<file.hil>",
     "compile, check, and time on the simulated machine", true, true,
     kArchFlag | kParamFlags | kSizeFlags},
    {"tune", Command::Tune, "<file.hil>",
     "the empirical search (--wisdom warm-starts and records it)", true, true,
     kTuneFlags},
    {"tune-all", Command::TuneAll, "<dir>",
     "batch-tune every *.hil kernel in <dir>", true, false,
     kTuneFlags | kFleetFlags},
    {"explain", Command::Explain, "<file.hil>",
     "attribute the winner's cycles cause by cause", true, true,
     kTuneFlags & ~kWisdomFlag},
    {"sim", Command::Sim, "<file.ir>",
     "time a textual IR dump on the simulated machine", true, true,
     kArchFlag | kSizeFlags},
    {"serve", Command::Serve, "", "tuning daemon over --socket/--port", false,
     false, kTuneFlags | kEndpointFlags | kDaemonFlags},
    {"query", Command::Query, "[<kernel>]", "client for a running serve daemon",
     false, false, kArchFlag | kSizeFlags | kEndpointFlags | kQueryFlags},
    {"cache-merge", Command::CacheMerge, "<out>",
     "set-union eval-cache shards (a directory expands to its shards)", true,
     false, kFromFlag},
    {"wisdom-merge", Command::WisdomMerge, "<out>",
     "keep-best merge wisdom files", true, false, kFromFlag},
};

std::string flagUsage(const FlagSpec& f) {
  switch (f.value) {
    case FlagValue::None: return f.name;
    case FlagValue::Required: return std::string(f.name) + "=" + f.valueHelp;
    case FlagValue::Optional:
      return std::string(f.name) + "[=" + f.valueHelp + "]";
  }
  return f.name;
}

}  // namespace

std::span<const FlagSpec> flagTable() { return kFlags; }
std::span<const VerbSpec> verbTable() { return kVerbs; }

const VerbSpec* findVerb(std::string_view name) {
  for (const VerbSpec& v : kVerbs)
    if (name == v.name) return &v;
  return nullptr;
}

bool parseOptions(const VerbSpec& verb, const std::vector<std::string>& args,
                  Options* o, std::string* error) {
  for (const std::string& a : args) {
    const size_t eq = a.find('=');
    const bool hasValue = eq != std::string::npos;
    const FlagSpec* flag = nullptr;
    for (const FlagSpec& f : kFlags)
      if (std::string_view(a).substr(0, eq) == f.name) flag = &f;
    if (flag == nullptr)
      *error = "unknown option '" + a + "'";
    else if ((verb.groups & flag->group) == 0)
      *error = std::string(verb.name) + " does not take " + flag->name;
    else if (hasValue && flag->value == FlagValue::None)
      *error = std::string(flag->name) + " takes no value";
    else if (!hasValue && flag->value == FlagValue::Required)
      *error = std::string(flag->name) + " needs a value (" +
               flagUsage(*flag) + ")";
    else
      *error = flag->apply(*o, flag->name, hasValue ? a.substr(eq + 1) : "");
    if (!error->empty()) return false;
  }
  return true;
}

std::string usageText() {
  std::string verbs;
  for (const VerbSpec& v : kVerbs)
    verbs += (verbs.empty() ? "" : "|") + std::string(v.name);
  std::string out = "usage: ifko <" + verbs + "> [<arg>] [flags]\n";
  for (const VerbSpec& v : kVerbs) {
    char head[160];
    std::snprintf(head, sizeof head, "  %-12s %-11s %s\n", v.name, v.argHelp,
                  v.summary);
    out += head;
    // The verb's flags, wrapped under it with a deeper indent.
    std::string line;
    for (const FlagSpec& f : kFlags) {
      if ((v.groups & f.group) == 0) continue;
      const std::string word = flagUsage(f);
      if (!line.empty() && line.size() + 1 + word.size() > 72) {
        out += "      " + line + "\n";
        line.clear();
      }
      line += (line.empty() ? "" : " ") + word;
    }
    if (!line.empty()) out += "      " + line + "\n";
  }
  out +=
      "flags are documented in docs/TUNING.md (search), docs/SERVING.md "
      "(serve, query)\nand docs/DISTRIBUTED.md (fleet, merges)\n";
  return out;
}

}  // namespace ifko::driver
