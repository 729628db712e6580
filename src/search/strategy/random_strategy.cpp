// Uniform random search: the baseline every smarter strategy must beat.
//
// Each propose() draws up to maxBatch points uniformly from the legal space
// (opt::ParamSpace::sample) that have not been proposed or observed before,
// rejection-sampling each slot.  When 64 consecutive draws for a slot all
// land on seen points the space is treated as exhausted and the strategy
// finishes — the budget normally stops it long before that on real spaces.
#include <string>
#include <unordered_set>
#include <vector>

#include "search/strategy/strategies_impl.h"
#include "support/rng.h"

namespace ifko::search {
namespace {

using opt::TuningParams;

class RandomStrategy final : public SearchStrategy {
 public:
  explicit RandomStrategy(uint64_t seed) : rng_(seed) {}

  void init(const opt::ParamSpace& space,
            const TuningParams& defaults) override {
    space_ = space;
    base_ = defaults;
  }

  [[nodiscard]] Proposal propose(int maxBatch) override {
    Proposal p{"RAND", {}};
    const int want = maxBatch < 1 ? 1 : maxBatch;
    for (int slot = 0; slot < want; ++slot) {
      bool found = false;
      for (int attempt = 0; attempt < 64 && !found; ++attempt) {
        TuningParams s = space_.sample(base_, rng_);
        if (seen_.insert(opt::formatTuningSpec(s)).second) {
          p.candidates.push_back(std::move(s));
          found = true;
        }
      }
      if (!found) {
        exhausted_ = true;
        break;
      }
    }
    if (p.candidates.empty()) exhausted_ = true;
    return p;
  }

  void observe(const TuningParams& spec, const EvalOutcome&) override {
    seen_.insert(opt::formatTuningSpec(spec));  // the DEFAULTS point
  }

  [[nodiscard]] bool done() const override { return exhausted_; }

 private:
  opt::ParamSpace space_;
  TuningParams base_;
  SplitMix64 rng_;
  std::unordered_set<std::string> seen_;
  bool exhausted_ = false;
};

}  // namespace

std::unique_ptr<SearchStrategy> makeRandomStrategy(uint64_t seed) {
  return std::make_unique<RandomStrategy>(seed);
}

}  // namespace ifko::search
