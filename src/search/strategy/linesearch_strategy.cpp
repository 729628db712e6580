// The paper's modified line search as a SearchStrategy.
//
// The sweep is a propose/observe state machine: each propose() emits the
// next indivisible batch (one dimension's grid, or one per-array sub-batch
// of the PF sweeps), and observe() applies the serial commit rule — take
// every strict improvement, scanning in proposal order.  Batches are built
// from the running point `cur_`, so the proposal sequence, the committed
// parameters and the dimension ledger are those of a serial sweep
// (search_golden_test holds them to a snapshot).
//
// Ledger timing: a dimension's entry is recorded at the first propose()
// after one of its batches was observed (closeAfter_), which keeps the
// evaluate -> dimension_end -> next-dimension event order through the
// orchestrator's ledger flush.  A dimension of several batches (PF DST and
// PF INS: one per array) updates its one entry in place after each, so a
// budget that stops it between two batches still leaves the entry, at the
// cycles the search reached.
#include <algorithm>
#include <string>
#include <vector>

#include "search/strategy/strategies_impl.h"

namespace ifko::search {
namespace {

using opt::PrefParam;
using opt::TuningParams;

class LineSearchStrategy final : public SearchStrategy {
 public:
  void init(const opt::ParamSpace& space,
            const TuningParams& defaults) override {
    space_ = space;
    cur_ = defaults;
  }

  [[nodiscard]] Proposal propose() override {
    flushClose();
    while (stage_ != Stage::Done) {
      Proposal p = buildCurrent();
      if (!p.candidates.empty()) return p;
      flushClose();  // the stage had nothing to try; its ledger entry lands
    }
    return {};
  }

  void observe(const TuningParams& spec, const EvalOutcome& o) override {
    // The serial commit rule: every strict improvement, in proposal order.
    // The first observation is the DEFAULTS point (curCycles_ == 0).
    if (o.cycles != 0 && (curCycles_ == 0 || o.cycles < curCycles_)) {
      curCycles_ = o.cycles;
      cur_ = spec;
    }
  }

  [[nodiscard]] std::vector<DimensionResult> ledger() const override {
    return ledger_;
  }

 private:
  enum class Stage : uint8_t { Wnt, PfDst, PfIns, Ur, Ae, UrAe, Bf, Cisc, Done };

  void flushClose() {
    if (closeAfter_.empty()) return;
    if (!ledger_.empty() && ledger_.back().name == closeAfter_)
      ledger_.back().cyclesAfter = curCycles_;
    else
      ledger_.push_back({closeAfter_, curCycles_});
    closeAfter_.clear();
  }

  Proposal buildCurrent() {
    switch (stage_) {
      case Stage::Wnt: {
        Proposal p{"WNT", {}};
        if (space_.wnt) {
          TuningParams t = cur_;
          t.nonTemporalWrites = !t.nonTemporalWrites;
          p.candidates.push_back(std::move(t));
        }
        closeAfter_ = "WNT";
        stage_ = Stage::PfDst;
        return p;
      }

      case Stage::PfDst: {
        // One batch per prefetchable array, arrays committed sequentially,
        // two rounds when the arrays' distances interact through the bus.
        closeAfter_ = "PF DST";
        if (space_.prefArrays.empty()) {
          stage_ = Stage::PfIns;
          pfIdx_ = 0;
          return {};
        }
        const std::string& arr = space_.prefArrays[pfIdx_];
        Proposal p{"PF DST", {}};
        for (int dist : space_.prefDistBytes) {
          TuningParams t = cur_;
          PrefParam& pp = t.prefetch[arr];
          if (dist == 0) {
            pp.enabled = false;
            pp.distBytes = 0;
          } else {
            pp.enabled = true;
            pp.distBytes = dist;
          }
          p.candidates.push_back(std::move(t));
        }
        const size_t rounds = space_.prefArrays.size() > 1 ? 2 : 1;
        if (++pfIdx_ >= space_.prefArrays.size()) {
          pfIdx_ = 0;
          if (++pfRound_ >= rounds) stage_ = Stage::PfIns;
        }
        return p;
      }

      case Stage::PfIns: {
        closeAfter_ = "PF INS";
        while (pfIdx_ < space_.prefArrays.size()) {
          const std::string& arr = space_.prefArrays[pfIdx_++];
          Proposal p{"PF INS", {}};
          auto it = cur_.prefetch.find(arr);
          if (it != cur_.prefetch.end() && it->second.enabled) {
            ir::PrefKind curKind = it->second.kind;
            for (ir::PrefKind kind : space_.prefKinds) {
              if (kind == curKind) continue;
              TuningParams t = cur_;
              t.prefetch[arr].kind = kind;
              p.candidates.push_back(std::move(t));
            }
          }
          if (!p.candidates.empty()) return p;
        }
        stage_ = Stage::Ur;
        return {};
      }

      case Stage::Ur: {
        Proposal p{"UR", {}};
        for (int u : space_.unrolls) {
          if (u == cur_.unroll) continue;
          TuningParams t = cur_;
          t.unroll = u;
          t.accumExpand = std::min(t.accumExpand, u);
          p.candidates.push_back(std::move(t));
        }
        closeAfter_ = "UR";
        stage_ = Stage::Ae;
        return p;
      }

      case Stage::Ae: {
        Proposal p{"AE", {}};
        for (int m : space_.accums) {
          if (m == cur_.accumExpand || m > cur_.unroll) continue;
          TuningParams t = cur_;
          t.accumExpand = m;
          p.candidates.push_back(std::move(t));
        }
        closeAfter_ = "AE";
        stage_ = !space_.accums.empty() && !space_.reduced ? Stage::UrAe
                 : space_.extensions                       ? Stage::Bf
                                                           : Stage::Done;
        return p;
      }

      case Stage::UrAe: {
        // Restricted 2-D refinement of the strongly interacting pair, on
        // the full grids (this stage only runs with them).
        Proposal p{"UR*AE", {}};
        auto near = [](int v, const std::vector<int>& grid) {
          std::vector<int> out;
          auto it = std::find(grid.begin(), grid.end(), v);
          if (it == grid.end()) return out;
          if (it != grid.begin()) out.push_back(*(it - 1));
          if (it + 1 != grid.end()) out.push_back(*(it + 1));
          return out;
        };
        std::vector<int> urCands = near(cur_.unroll, space_.unrolls);
        urCands.push_back(cur_.unroll);
        std::vector<int> aeCands = near(cur_.accumExpand, space_.accums);
        aeCands.push_back(cur_.accumExpand);
        for (int u : urCands)
          for (int m : aeCands) {
            if (m > u) continue;
            if (u == cur_.unroll && m == cur_.accumExpand) continue;
            TuningParams t = cur_;
            t.unroll = u;
            t.accumExpand = m;
            p.candidates.push_back(std::move(t));
          }
        closeAfter_ = "UR*AE";
        stage_ = space_.extensions ? Stage::Bf : Stage::Done;
        return p;
      }

      case Stage::Bf: {
        Proposal p{"BF", {}};
        TuningParams t = cur_;
        t.blockFetch = !t.blockFetch;
        p.candidates.push_back(std::move(t));
        // Block fetch wants whole blocks per iteration: retry deeper unrolls.
        for (int u : {8, 16, 32}) {
          if (u > space_.maxUnroll) continue;
          TuningParams t2 = cur_;
          t2.blockFetch = true;
          t2.unroll = u;
          p.candidates.push_back(std::move(t2));
        }
        closeAfter_ = "BF";
        stage_ = Stage::Cisc;
        return p;
      }

      case Stage::Cisc: {
        Proposal p{"CISC", {}};
        TuningParams t = cur_;
        t.ciscIndexing = !t.ciscIndexing;
        p.candidates.push_back(std::move(t));
        closeAfter_ = "CISC";
        stage_ = Stage::Done;
        return p;
      }

      case Stage::Done: break;
    }
    return {};
  }

  opt::ParamSpace space_;
  TuningParams cur_;
  uint64_t curCycles_ = 0;
  Stage stage_ = Stage::Wnt;
  size_t pfIdx_ = 0;
  size_t pfRound_ = 0;
  std::string closeAfter_;
  std::vector<DimensionResult> ledger_;
};

}  // namespace

std::unique_ptr<SearchStrategy> makeLineSearchStrategy() {
  return std::make_unique<LineSearchStrategy>();
}

}  // namespace ifko::search
