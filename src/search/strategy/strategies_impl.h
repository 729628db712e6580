// Internal: constructors for the concrete strategies, one per translation
// unit, linked together by makeStrategy (strategy.cpp).  Callers outside
// the subsystem go through the StrategyKind factory instead of naming
// concrete classes — the whole point of the pluggable interface.
#pragma once

#include <cstdint>
#include <memory>

#include "search/strategy/strategy.h"

namespace ifko::search {

[[nodiscard]] std::unique_ptr<SearchStrategy> makeLineSearchStrategy();
[[nodiscard]] std::unique_ptr<SearchStrategy> makeEvolutionaryStrategy(
    uint64_t seed);
/// Steepest-ascent hill climbing with random restarts; `guided` steers
/// each step by the incumbent's stall-cause attribution (the attribution
/// strategy), unguided it is the plain hillclimb strategy.
[[nodiscard]] std::unique_ptr<SearchStrategy> makeAttributionStrategy(
    uint64_t seed, bool guided);

}  // namespace ifko::search
