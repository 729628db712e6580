// Bridge between the search and the wisdom store, shared by its three
// users — `ifko tune --wisdom`, `ifko tune-all --wisdom`, and the serve
// daemon's tune-on-miss path.
//
// Before a tune, keyFor names the kernel's record and findWarmStart turns
// the nearest record into the search's warm-start point.  After it,
// harvestRecord turns a search::TuneResult into the same WisdomRecord
// everywhere: winning spec, both cycle counts, evaluation count,
// provenance, and the winner's attribution summary from the counters the
// search kept for it (TuneResult::bestCounters — no re-simulation, no cache
// lookup).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "arch/machine.h"
#include "opt/params.h"
#include "search/linesearch.h"
#include "sim/timer.h"
#include "wisdom/wisdom.h"

namespace ifko::wisdom {

/// The wisdom key of `source` tuned on `machine` in `context` at size `n`.
[[nodiscard]] WisdomKey keyFor(const std::string& source,
                               const arch::MachineConfig& machine,
                               sim::TimeContext context, int64_t n);

/// A wisdom record's winner as a search warm start, with how it matched.
struct WarmStart {
  opt::TuningParams params;
  WisdomMatch match;  ///< points into the store it was found in
};

/// The warm-start lookup (a search::WarmStartFn body): probes `store` for
/// `key`, ranking fallback records by similarity to the attribution of
/// the kernel's own DEFAULTS outcome, and parses the match's TuningSpec.
/// nullopt on a miss or when the record's params do not parse.
[[nodiscard]] std::optional<WarmStart> findWarmStart(
    const WisdomStore& store, const WisdomKey& key,
    const search::EvalOutcome& defaults);

/// Builds the record for a successful tune (`result.ok` assumed).  Without
/// result.bestCounters the record carries no attribution summary.
[[nodiscard]] WisdomRecord harvestRecord(const WisdomKey& key,
                                         const std::string& kernel,
                                         const std::string& runId,
                                         const search::TuneResult& result);

}  // namespace ifko::wisdom
