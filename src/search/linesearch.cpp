#include "search/linesearch.h"

#include <algorithm>


namespace ifko::search {

using opt::TuningParams;

std::string_view evalStatusName(EvalOutcome::Status s) {
  switch (s) {
    case EvalOutcome::Status::Timed: return "timed";
    case EvalOutcome::Status::CompileFail: return "compile_fail";
    case EvalOutcome::Status::TesterFail: return "tester_fail";
    case EvalOutcome::Status::Timeout: return "timeout";
    case EvalOutcome::Status::Crash: return "crash";
  }
  return "?";
}

std::optional<EvalOutcome::Status> parseEvalStatus(std::string_view name) {
  using S = EvalOutcome::Status;
  for (S s : {S::Timed, S::CompileFail, S::TesterFail, S::Timeout, S::Crash})
    if (evalStatusName(s) == name) return s;
  return std::nullopt;
}

opt::TuningParams fkoDefaults(const fko::AnalysisReport& report,
                              const arch::MachineConfig& machine) {
  TuningParams p;
  p.simdVectorize = true;  // SV = Yes
  p.nonTemporalWrites = false;
  const int line = machine.lineBytes();
  // L_e: elements per line, counted in SIMD vectors when vectorized.
  int elemBytes = report.vectorizable && p.simdVectorize
                      ? ir::kVecBytes
                      : scalBytes(report.elemType);
  p.unroll = std::max(1, line / elemBytes);
  p.accumExpand = 1;  // AE = No
  for (const auto& a : report.arrays) {
    if (!a.prefetchable) continue;
    p.prefetch[a.name] = {true, ir::PrefKind::NTA, 2 * line};
  }
  return p;
}

uint64_t timeParams(const kernels::KernelSpec& spec,
                    const arch::MachineConfig& machine,
                    const opt::TuningParams& params,
                    const SearchConfig& config) {
  fko::CompileOptions opts;
  opts.tuning = params;
  auto compiled = fko::compileKernel(spec.hilSource(), opts, machine);
  if (!compiled.ok) return 0;
  auto t = sim::timeKernel(machine, compiled.fn, spec, config.n,
                           config.context, config.seed);
  return t.cycles;
}

std::vector<std::string> paramsRow(const opt::TuningParams& params,
                                   const fko::AnalysisReport& analysis) {
  std::vector<std::string> row;
  bool sv = params.simdVectorize && analysis.vectorizable;
  row.push_back(std::string(sv ? "Y" : "N") + ":" +
                (params.nonTemporalWrites ? "Y" : "N"));
  auto prefCell = [&](const std::string& name) -> std::string {
    bool exists = false;
    for (const auto& a : analysis.arrays)
      if (a.name == name) exists = true;
    if (!exists) return "n/a:0";
    auto it = params.prefetch.find(name);
    if (it == params.prefetch.end() || !it->second.enabled) return "none:0";
    return opt::formatPref(it->second);
  };
  row.push_back(prefCell("X"));
  row.push_back(prefCell("Y"));
  row.push_back(std::to_string(params.unroll) + ":" +
                std::to_string(params.accumExpand > 1 ? params.accumExpand : 0));
  return row;
}

}  // namespace ifko::search
