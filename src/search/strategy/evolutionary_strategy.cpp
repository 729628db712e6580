// A small (mu + lambda) evolutionary search over the tuning space.
//
// Generation 0 seeds the population with the DEFAULTS point (observed by
// the loop before the first propose) plus kPop-1 uniform samples; each
// later generation breeds kPop children by binary-tournament parent
// selection, per-axis uniform crossover, and a coin-flip one-step mutation
// (opt::ParamSpace::crossover / mutate).  Survivor selection is elitist
// mu+lambda: the kPop fittest of parents plus children carry over, with
// failed candidates (0 cycles) ranked worst.  Children are rejection-
// sampled against everything already proposed, so a converged population
// that can produce nothing new ends the run rather than re-spending budget.
#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "search/strategy/strategies_impl.h"
#include "support/rng.h"

namespace ifko::search {
namespace {

using opt::TuningParams;

class EvolutionaryStrategy final : public SearchStrategy {
 public:
  explicit EvolutionaryStrategy(uint64_t seed) : rng_(seed) {}

  void init(const opt::ParamSpace& space,
            const TuningParams& defaults) override {
    space_ = space;
    base_ = defaults;
  }

  [[nodiscard]] Proposal propose() override {
    settle();
    if (done_ || gen_ > kMaxGen) {
      done_ = true;
      return {};
    }
    Proposal p{"GEN " + std::to_string(gen_), {}};
    if (gen_ == 0) {
      for (int i = 0; i < kPop - 1; ++i) {
        if (auto s = drawUnseen([&] { return space_.sample(base_, rng_); }))
          p.candidates.push_back(std::move(*s));
      }
    } else {
      for (int i = 0; i < kPop; ++i) {
        if (auto s = drawUnseen([&] { return breed(); }))
          p.candidates.push_back(std::move(*s));
      }
    }
    if (p.candidates.empty()) {
      done_ = true;  // nothing new to try: converged
      return {};
    }
    awaiting_ = true;
    return p;
  }

  void observe(const TuningParams& spec, const EvalOutcome& o) override {
    obs_.push_back({spec, o.cycles});
    if (o.cycles != 0 && (bestCycles_ == 0 || o.cycles < bestCycles_))
      bestCycles_ = o.cycles;
  }

  [[nodiscard]] std::vector<DimensionResult> ledger() const override {
    return ledger_;
  }

 private:
  static constexpr int kPop = 16;
  static constexpr int kMaxGen = 40;

  struct Individual {
    TuningParams spec;
    uint64_t cycles;  ///< 0 = failed to compile/verify

    /// Lower is fitter; failures rank last.
    [[nodiscard]] uint64_t fitness() const {
      return cycles == 0 ? UINT64_MAX : cycles;
    }
  };

  void settle() {
    if (obs_.empty()) return;
    for (Individual& o : obs_) {
      seen_.insert(opt::formatTuningSpec(o.spec));
      pop_.push_back(std::move(o));
    }
    obs_.clear();
    std::stable_sort(pop_.begin(), pop_.end(),
                     [](const Individual& a, const Individual& b) {
                       return a.fitness() < b.fitness();
                     });
    if (pop_.size() > static_cast<size_t>(kPop)) pop_.resize(kPop);
    if (awaiting_) {  // a generation's batch came back (not just DEFAULTS)
      ledger_.push_back({"GEN " + std::to_string(gen_), bestCycles_});
      ++gen_;
      awaiting_ = false;
    }
  }

  [[nodiscard]] const TuningParams& tournament() {
    const size_t i = rng_.below(pop_.size());
    const size_t j = rng_.below(pop_.size());
    return pop_[pop_[j].fitness() < pop_[i].fitness() ? j : i].spec;
  }

  [[nodiscard]] TuningParams breed() {
    const TuningParams& a = tournament();
    const TuningParams& b = tournament();
    TuningParams child = space_.crossover(a, b, rng_);
    if (rng_.below(2) == 1) child = space_.mutate(child, rng_);
    return child;
  }

  template <typename Gen>
  std::optional<TuningParams> drawUnseen(const Gen& gen) {
    for (int attempt = 0; attempt < 16; ++attempt) {
      TuningParams s = gen();
      if (seen_.insert(opt::formatTuningSpec(s)).second) return s;
    }
    return std::nullopt;
  }

  opt::ParamSpace space_;
  TuningParams base_;
  SplitMix64 rng_;
  uint64_t bestCycles_ = 0;
  int gen_ = 0;
  bool awaiting_ = false;
  bool done_ = false;
  std::vector<Individual> obs_;
  std::vector<Individual> pop_;
  std::unordered_set<std::string> seen_;
  std::vector<DimensionResult> ledger_;
};

}  // namespace

std::unique_ptr<SearchStrategy> makeEvolutionaryStrategy(uint64_t seed) {
  return std::make_unique<EvolutionaryStrategy>(seed);
}

}  // namespace ifko::search
