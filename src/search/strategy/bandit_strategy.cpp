// UCB1 bandit portfolio over the concrete strategies.
//
// No single search policy wins on every kernel: line search is strong when
// axes are independent, hill climbing when the space is locally smooth,
// evolution when it is not, attribution guidance when one stall cause
// dominates.  Rather than asking the user to pick, this strategy treats
// each constituent (line, hillclimb, evolve, attribution) as a
// bandit arm and allocates the shared evaluation budget with UCB1: each
// pull hands one arm a batch (its own next proposal), the reward is binary
// — did that batch improve the portfolio-wide best? — and the index
// mean + sqrt(2 ln N / n) balances exploiting the arm that keeps winning
// against revisiting the others as improvements dry up.
//
// Every arm observes the DEFAULTS point (the loop reports it first);
// after that, observations go only to the arm whose batch is out, so each
// constituent sees exactly the (defaults + own proposals) stream it would
// see running alone and its internal state stays well-formed.  Arm seeds
// derive from the budget seed through SplitMix64, ties break toward the
// earlier arm, and rewards are a pure function of observed outcomes — so
// the pull sequence, like every proposal, is replay-deterministic at any
// --jobs, warm or cold cache.
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "search/strategy/strategies_impl.h"
#include "support/rng.h"

namespace ifko::search {
namespace {

using opt::TuningParams;

class BanditStrategy final : public SearchStrategy {
 public:
  explicit BanditStrategy(uint64_t seed) {
    SplitMix64 mix(seed);
    arms_.push_back({"line", makeLineSearchStrategy()});
    arms_.push_back(
        {"hillclimb", makeAttributionStrategy(mix.next(), /*guided=*/false)});
    arms_.push_back({"evolve", makeEvolutionaryStrategy(mix.next())});
    arms_.push_back(
        {"attribution", makeAttributionStrategy(mix.next(), /*guided=*/true)});
  }

  void init(const opt::ParamSpace& space,
            const TuningParams& defaults) override {
    for (Arm& a : arms_) a.strategy->init(space, defaults);
  }

  [[nodiscard]] Proposal propose() override {
    settle();
    while (true) {
      const int ai = pickArm();
      if (ai < 0) return {};
      Arm& arm = arms_[ai];
      Proposal p = arm.strategy->propose();
      if (p.candidates.empty()) {
        arm.finished = true;
        continue;
      }
      cur_ = ai;
      bestAtBatchStart_ = bestCycles_;
      p.dimension = arm.label + ":" + p.dimension;
      return p;
    }
  }

  void observe(const TuningParams& spec, const EvalOutcome& o) override {
    if (o.cycles != 0 && (bestCycles_ == 0 || o.cycles < bestCycles_))
      bestCycles_ = o.cycles;
    if (!sawDefaults_) {
      // The DEFAULTS anchor: every arm starts from the same incumbent.
      for (Arm& a : arms_) a.strategy->observe(spec, o);
      sawDefaults_ = true;
      return;
    }
    arms_[cur_].strategy->observe(spec, o);
  }

  [[nodiscard]] std::vector<DimensionResult> ledger() const override {
    return ledger_;
  }

 private:
  struct Arm {
    std::string label;
    std::unique_ptr<SearchStrategy> strategy;
    int pulls = 0;
    double rewardSum = 0.0;
    bool finished = false;
  };

  /// Credits the batch that just came back: reward 1 iff it improved the
  /// portfolio-wide best.
  void settle() {
    if (cur_ < 0) return;
    Arm& arm = arms_[cur_];
    ++arm.pulls;
    ++totalPulls_;
    if (bestCycles_ < bestAtBatchStart_) arm.rewardSum += 1.0;
    ledger_.push_back(
        {arm.label + " pull " + std::to_string(arm.pulls), bestCycles_});
    cur_ = -1;
  }

  /// UCB1 with a fixed-order cold-start sweep (each live arm pulled once
  /// before any index comparison); ties break toward the earlier arm.  An
  /// arm is finished once its propose comes back empty.
  [[nodiscard]] int pickArm() const {
    for (size_t i = 0; i < arms_.size(); ++i)
      if (!arms_[i].finished && arms_[i].pulls == 0)
        return static_cast<int>(i);
    int best = -1;
    double bestIndex = 0.0;
    for (size_t i = 0; i < arms_.size(); ++i) {
      const Arm& a = arms_[i];
      if (a.finished) continue;
      const double mean = a.rewardSum / a.pulls;
      const double index =
          mean + std::sqrt(2.0 * std::log(static_cast<double>(totalPulls_)) /
                           a.pulls);
      if (best < 0 || index > bestIndex) {
        best = static_cast<int>(i);
        bestIndex = index;
      }
    }
    return best;
  }

  std::vector<Arm> arms_;
  int cur_ = -1;
  int totalPulls_ = 0;
  uint64_t bestCycles_ = 0;
  uint64_t bestAtBatchStart_ = 0;
  bool sawDefaults_ = false;
  std::vector<DimensionResult> ledger_;
};

}  // namespace

std::unique_ptr<SearchStrategy> makeBanditStrategy(uint64_t seed) {
  return std::make_unique<BanditStrategy>(seed);
}

}  // namespace ifko::search
