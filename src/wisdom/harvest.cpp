#include "wisdom/harvest.h"

#include "support/hash.h"

namespace ifko::wisdom {

WisdomKey keyFor(const std::string& source, const arch::MachineConfig& machine,
                 sim::TimeContext context, int64_t n) {
  WisdomKey key;
  key.sourceHash = hashHex(source);
  key.machine = machine.name;
  key.context = std::string(sim::contextName(context));
  key.nClass = nClassFor(n);
  return key;
}

std::optional<WarmStart> findWarmStart(const WisdomStore& store,
                                       const WisdomKey& key,
                                       const search::EvalOutcome& defaults) {
  std::optional<AttrShares> probe;
  if (defaults.counters.has_value())
    probe = attrSharesFrom(*defaults.counters);
  const WisdomMatch m = store.find(key, probe.has_value() ? &*probe : nullptr);
  if (!m.hit()) return std::nullopt;
  const opt::TuningSpec seed = opt::parseTuningSpec(m.record->params);
  if (!seed.ok) return std::nullopt;
  return WarmStart{seed.params, m};
}

WisdomRecord harvestRecord(const WisdomKey& key, const std::string& kernel,
                           const std::string& runId,
                           const search::TuneResult& result) {
  WisdomRecord rec;
  rec.key = key;
  rec.kernel = kernel;
  rec.params = opt::formatTuningSpec(result.best);
  rec.bestCycles = result.bestCycles;
  rec.defaultCycles = result.defaultCycles;
  rec.evaluations = result.evaluations;
  rec.runId = runId;
  if (result.bestCounters.has_value()) applyCounters(rec, *result.bestCounters);
  return rec;
}

}  // namespace ifko::wisdom
