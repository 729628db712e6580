// Steepest-ascent hill climbing with random restarts, optionally guided by
// the cycle-attribution counters: the counters as a search policy, not just
// an observability feed.
//
// Each climb step proposes unseen one-step neighbors of the current point
// (opt::ParamSpace::neighbors) as one indivisible batch; the next propose()
// moves to the best strictly improving neighbor, or — at a local optimum —
// restarts from a fresh uniform point.  Neighborhoods are filtered against
// everything already proposed, so the climber never re-spends budget on a
// point it has seen (the evaluator would just serve the cache, but the
// Budget meters observations).  After kMaxRestarts restarts, or when no
// unseen point can be drawn, the strategy finishes.  Unguided, every step
// is the full neighborhood: that is the `hillclimb` strategy.
//
// Guided (the `attribution` strategy), a step attacks the stall causes.
// The simulator charges every cycle to one of ten stall causes
// (sim::Attribution, an enforced accounting identity), and every
// EvalOutcome carries those counters.  This strategy reads the incumbent's
// normalized stall-cause vector and proposes only the one-step moves that
// attack the cause groups actually charged with the cycles:
//
//   memory   (mem_l1 + mem_l2 + mem_main + store)        -> prefetch
//     distance/kind moves, the WNT toggle, and UR moves: fetch earlier,
//     write around the cache, and widen the window of outstanding misses
//     one iteration covers (unroll amortizes loop control in streaming
//     loops, so it is a memory lever as much as a pipeline one)
//   fp-dep   (fp_dep)                                    -> AE and UR
//     moves: break the reduction recurrence, expose more parallel chains
//   pipeline (issue + int_dep + rob + mispredict + unit) -> UR moves and
//     a prefetch-schedule flip: fewer loop-control instructions per
//     element, different placement inside the body
//
// The three groups partition the ten causes.  A step is guided when the
// largest group owns at least kDominantShare of the incumbent's cycles;
// the step then attacks every group whose share is at least
// kSecondaryShare — a streaming reduction is ~70% memory and ~30% fp_dep,
// and pruning the fp moves there would hide the AE win behind a restart.
// What gets pruned is only the groups the counters say are noise.  When
// no group dominates, the step is the full neighborhood, i.e. plain hill
// climbing.  A guided step that fails to improve also widens to the full
// neighborhood before the climber declares a local optimum, so the
// guidance prunes provably-cold moves early without ever searching a
// smaller space than the unguided climber; restarts and budget accounting
// are shared, making strategy_compare an apples-to-apples referee for the
// value of the attribution signal.
//
// Determinism: moves derive only from (space, incumbent, observed
// outcomes), counters are part of the outcome and replayed by the v3
// eval cache, so warm and cold runs propose identically at any --jobs.
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "search/counters.h"
#include "search/strategy/strategies_impl.h"
#include "sim/timing.h"
#include "support/rng.h"

namespace ifko::search {
namespace {

using opt::TuningParams;

/// Which stall-cause groups a step should attack (bitmask; kNone = no
/// guidance, propose the full neighborhood).
enum TargetMask : uint8_t {
  kNone = 0,
  kMem = 1 << 0,
  kFp = 1 << 1,
  kPipe = 1 << 2,
};

std::string targetLabel(uint8_t mask) {
  if (mask == kNone) return "none";
  std::string s;
  if (mask & kMem) s += "mem";
  if (mask & kFp) s += s.empty() ? "fp" : "+fp";
  if (mask & kPipe) s += s.empty() ? "pipe" : "+pipe";
  return s;
}

class AttributionStrategy final : public SearchStrategy {
 public:
  AttributionStrategy(uint64_t seed, bool guided)
      : guided_(guided), rng_(seed) {}

  void init(const opt::ParamSpace& space,
            const TuningParams& defaults) override {
    space_ = space;
    base_ = defaults;
    cur_ = defaults;
  }

  [[nodiscard]] Proposal propose() override {
    settle();
    while (!done_) {
      if (restartPending_) {
        if (restarts_ >= kMaxRestarts) {
          done_ = true;
          break;
        }
        std::optional<TuningParams> pt = drawUnseen();
        if (!pt.has_value()) {
          done_ = true;
          break;
        }
        ++restarts_;
        mode_ = Mode::RestartWait;
        return {"RESTART " + std::to_string(restarts_), {*pt}};
      }

      const uint8_t target = guided_ && !widen_
                                 ? targetOf(curAttr_)
                                 : static_cast<uint8_t>(kNone);
      std::vector<TuningParams> fresh;
      for (TuningParams& t : space_.neighbors(cur_)) {
        if (target != kNone && !moveTargets(t, target)) continue;
        if (seen_.insert(opt::formatTuningSpec(t)).second)
          fresh.push_back(std::move(t));
      }
      if (target & kPipe) addSchedFlip(fresh);
      if (fresh.empty()) {
        // Nothing fresh in the targeted subset: widen to the whole
        // neighborhood; nothing fresh there either means local optimum.
        if (target != kNone) {
          widen_ = true;
          continue;
        }
        widen_ = false;
        restartPending_ = true;
        continue;
      }
      ++steps_;
      targeted_ = target != kNone;
      mode_ = Mode::StepWait;
      // Batch labels: "ATTR <target> n" guided, "CLIMB n" unguided.
      return {guided_ ? "ATTR " + targetLabel(target) + " " +
                            std::to_string(steps_)
                      : "CLIMB " + std::to_string(steps_),
              std::move(fresh)};
    }
    return {};
  }

  void observe(const TuningParams& spec, const EvalOutcome& o) override {
    obs_.push_back({spec, o.cycles, o.counters});
    if (o.cycles != 0 && (bestCycles_ == 0 || o.cycles < bestCycles_))
      bestCycles_ = o.cycles;
  }

  [[nodiscard]] std::vector<DimensionResult> ledger() const override {
    return ledger_;
  }

 private:
  enum class Mode : uint8_t { Defaults, StepWait, RestartWait };
  static constexpr int kMaxRestarts = 6;
  /// Guidance engages only when the largest cause group owns at least
  /// this share of the incumbent's cycles (the groups partition the
  /// causes, so the max share is always >= 1/3 — the threshold keeps
  /// near-uniform profiles on the unbiased full neighborhood).
  static constexpr double kDominantShare = 0.40;
  /// Once engaged, every group at or above this share is attacked too:
  /// a secondary cause worth a quarter of the cycles is a real lever,
  /// not noise (e.g. fp_dep in a streaming reduction).
  static constexpr double kSecondaryShare = 0.25;

  struct Observed {
    TuningParams spec;
    uint64_t cycles;
    std::optional<EvalCounters> counters;
  };

  static uint8_t targetOf(const std::optional<EvalCounters>& counters) {
    if (!counters.has_value()) return kNone;
    const sim::Attribution& a = counters->attr;
    const uint64_t total = a.total();
    if (total == 0) return kNone;
    const double mem = static_cast<double>(a.memoryStalls()) / total;
    const double fp =
        static_cast<double>(a.of(sim::StallCause::FpDep)) / total;
    const double pipe = 1.0 - mem - fp;
    if (mem < kDominantShare && fp < kDominantShare && pipe < kDominantShare)
      return kNone;
    uint8_t mask = kNone;
    if (mem >= kSecondaryShare) mask |= kMem;
    if (fp >= kSecondaryShare) mask |= kFp;
    if (pipe >= kSecondaryShare) mask |= kPipe;
    return mask;
  }

  /// Whether the move cur_ -> t touches an axis that attacks any group in
  /// `target`.
  [[nodiscard]] bool moveTargets(const TuningParams& t, uint8_t target) const {
    if ((target & kMem) &&
        (t.prefetch != cur_.prefetch ||
         t.nonTemporalWrites != cur_.nonTemporalWrites ||
         t.blockFetch != cur_.blockFetch || t.unroll != cur_.unroll))
      return true;
    if ((target & kFp) &&
        (t.accumExpand != cur_.accumExpand || t.unroll != cur_.unroll))
      return true;
    if ((target & kPipe) &&
        (t.unroll != cur_.unroll || t.prefSched != cur_.prefSched ||
         t.ciscIndexing != cur_.ciscIndexing))
      return true;
    return false;
  }

  /// neighbors() does not move prefSched; pipeline-bound steps add the flip
  /// (placement inside the body matters when issue pressure dominates).
  void addSchedFlip(std::vector<TuningParams>& fresh) {
    bool anyPref = false;
    for (const auto& [name, p] : cur_.prefetch) anyPref |= p.enabled;
    if (!anyPref) return;
    TuningParams t = cur_;
    t.prefSched = t.prefSched == opt::PrefSched::Spread ? opt::PrefSched::Top
                                                        : opt::PrefSched::Spread;
    if (seen_.insert(opt::formatTuningSpec(t)).second)
      fresh.push_back(std::move(t));
  }

  void settle() {
    if (obs_.empty()) return;
    switch (mode_) {
      case Mode::Defaults:
        // The loop guarantees the DEFAULTS point timed successfully.
        curCycles_ = obs_[0].cycles;
        curAttr_ = obs_[0].counters;
        seen_.insert(opt::formatTuningSpec(cur_));
        break;

      case Mode::StepWait: {
        size_t bi = SIZE_MAX;
        for (size_t i = 0; i < obs_.size(); ++i) {
          const uint64_t c = obs_[i].cycles;
          if (c == 0 || c >= curCycles_) continue;
          if (bi == SIZE_MAX || c < obs_[bi].cycles) bi = i;
        }
        if (bi != SIZE_MAX) {
          cur_ = obs_[bi].spec;
          curCycles_ = obs_[bi].cycles;
          curAttr_ = obs_[bi].counters;
          widen_ = false;
        } else if (targeted_) {
          widen_ = true;  // targeted probes failed: try the full neighborhood
        } else {
          widen_ = false;
          restartPending_ = true;  // local optimum
        }
        ledger_.push_back({(guided_ ? "STEP " : "CLIMB ") +
                               std::to_string(steps_),
                           bestCycles_});
        break;
      }

      case Mode::RestartWait:
        if (obs_[0].cycles != 0) {
          cur_ = obs_[0].spec;
          curCycles_ = obs_[0].cycles;
          curAttr_ = obs_[0].counters;
          restartPending_ = false;
          widen_ = false;
        }  // a failed restart point keeps restartPending_: draw another
        ledger_.push_back({"RESTART " + std::to_string(restarts_), bestCycles_});
        break;
    }
    obs_.clear();
  }

  std::optional<TuningParams> drawUnseen() {
    for (int attempt = 0; attempt < 64; ++attempt) {
      TuningParams s = space_.sample(base_, rng_);
      if (seen_.insert(opt::formatTuningSpec(s)).second) return s;
    }
    return std::nullopt;
  }

  const bool guided_;
  opt::ParamSpace space_;
  TuningParams base_;
  TuningParams cur_;
  uint64_t curCycles_ = 0;
  uint64_t bestCycles_ = 0;
  std::optional<EvalCounters> curAttr_;
  SplitMix64 rng_;
  Mode mode_ = Mode::Defaults;
  bool restartPending_ = false;
  bool widen_ = false;
  bool targeted_ = false;
  bool done_ = false;
  int steps_ = 0;
  int restarts_ = 0;
  std::vector<Observed> obs_;
  std::unordered_set<std::string> seen_;
  std::vector<DimensionResult> ledger_;
};

}  // namespace

std::unique_ptr<SearchStrategy> makeAttributionStrategy(uint64_t seed,
                                                        bool guided) {
  return std::make_unique<AttributionStrategy>(seed, guided);
}

}  // namespace ifko::search
