#include "search/faultguard.h"

#include <exception>

#include "sim/budget.h"
#include "support/rng.h"
#include "support/str.h"

namespace ifko::search {

std::string_view faultKindName(FaultPlan::Kind kind) {
  switch (kind) {
    case FaultPlan::Kind::Crash: return "crash";
    case FaultPlan::Kind::Hang: return "hang";
    case FaultPlan::Kind::TesterFail: return "tester";
  }
  return "?";
}

std::optional<FaultPlan::Kind> FaultPlan::fires(uint64_t evalIndex) const {
  for (const Rule& r : rules) {
    bool due = false;
    if (r.oneIn != 0) {
      // Seed-stable per-index decision: hash the index through SplitMix64
      // so neighbouring indices are uncorrelated.
      due = SplitMix64(r.seed * 0x9E3779B97F4A7C15ull + evalIndex).next() %
                r.oneIn ==
            0;
    } else if (r.every != 0) {
      due = evalIndex >= r.at && (evalIndex - r.at) % r.every == 0;
    } else {
      due = evalIndex == r.at;
    }
    if (due) return r.kind;
  }
  return std::nullopt;
}

std::optional<FaultPlan> FaultPlan::parse(const std::string& spec,
                                          std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return std::optional<FaultPlan>{};
  };
  // 0 is never a valid index/period/seed here.
  auto parsePositive = [](std::string_view s, uint64_t* out) {
    int64_t v = 0;
    if (!parseInt64(s, &v) || v < 1) return false;
    *out = static_cast<uint64_t>(v);
    return true;
  };

  FaultPlan plan;
  for (const std::string& partStr : split(spec, ',')) {
    std::string_view part = trim(partStr);
    if (part.empty()) continue;
    Rule rule;
    std::string_view rest = part;
    // A trailing ":seed=S" option.
    if (size_t colon = rest.rfind(':'); colon != std::string_view::npos &&
                                        rest.substr(colon + 1, 5) == "seed=") {
      if (!parsePositive(rest.substr(colon + 6), &rule.seed))
        return fail("bad seed in fault rule '" + std::string(part) + "'");
      rest = rest.substr(0, colon);
    }

    size_t sep = rest.find_first_of("@%");
    if (sep == std::string_view::npos || sep == 0)
      return fail("fault rule '" + std::string(part) +
                  "' wants kind@N, kind@N+K, or kind%P");
    std::string_view kindStr = rest.substr(0, sep);
    if (kindStr == "crash") rule.kind = Kind::Crash;
    else if (kindStr == "hang") rule.kind = Kind::Hang;
    else if (kindStr == "tester") rule.kind = Kind::TesterFail;
    else
      return fail("unknown fault kind '" + std::string(kindStr) +
                  "' (want crash|hang|tester)");

    std::string_view sched = rest.substr(sep + 1);
    if (rest[sep] == '%') {
      if (!parsePositive(sched, &rule.oneIn))
        return fail("bad probability in fault rule '" + std::string(part) +
                    "' (want kind%P with integer P >= 1)");
    } else {
      size_t plus = sched.find('+');
      std::string_view atStr =
          plus == std::string_view::npos ? sched : sched.substr(0, plus);
      if (!parsePositive(atStr, &rule.at))
        return fail("bad evaluation index in fault rule '" +
                    std::string(part) + "'");
      if (plus != std::string_view::npos &&
          !parsePositive(sched.substr(plus + 1), &rule.every))
        return fail("bad period in fault rule '" + std::string(part) + "'");
    }
    plan.rules.push_back(rule);
  }
  return plan;
}

namespace {

/// What an injected crash throws.  Any exception type would do — the guard
/// classifies everything non-TimeoutError as Crash — but a named message
/// keeps diagnostics honest about the fault being injected.
struct InjectedCrash : std::runtime_error {
  explicit InjectedCrash(uint64_t idx)
      : std::runtime_error("injected crash at evaluation " +
                           std::to_string(idx)) {}
};

}  // namespace

std::optional<EvalOutcome> FaultInjector::fire(uint64_t evalIndex) const {
  std::optional<FaultPlan::Kind> kind = plan_.fires(evalIndex);
  if (!kind.has_value()) return std::nullopt;
  switch (*kind) {
    case FaultPlan::Kind::Crash:
      throw InjectedCrash(evalIndex);
    case FaultPlan::Kind::Hang:
      // A hang is "work that never ends": exhaust the cooperative budget
      // so the deadline fires.  It is charged whole, not in chunks, so even
      // a saturated budget (a huge --eval-timeout-ms) expires at the second
      // charge rather than after ~1e13 of them.  With no deadline armed the
      // hang would be unbounded, so it times out immediately — containment
      // must not depend on the flag being set.
      if (!sim::ScopedEvalBudget::active())
        throw sim::TimeoutError("injected hang at evaluation " +
                                std::to_string(evalIndex) +
                                " (no deadline armed)");
      for (;;) sim::ScopedEvalBudget::chargeSteps(UINT64_MAX);
    case FaultPlan::Kind::TesterFail:
      return EvalOutcome{0, EvalOutcome::Status::TesterFail};
  }
  return std::nullopt;
}

EvalOutcome guardedEvaluateCandidate(const EvalRequest& req) {
  const SearchConfig& config = req.pipeline->config();
  const FaultInjector* injector = req.injector;
  try {
    std::optional<sim::ScopedEvalBudget> deadline;
    if (config.evalTimeoutMs > 0) {
      // Saturate rather than wrap: a huge timeout must mean "no practical
      // limit", never a tiny cap.
      const uint64_t ms = static_cast<uint64_t>(config.evalTimeoutMs);
      auto cap = [ms](uint64_t perMs) {
        return ms > UINT64_MAX / perMs ? UINT64_MAX : ms * perMs;
      };
      deadline.emplace(cap(kStepsPerTimeoutMs), cap(kCyclesPerTimeoutMs));
    }
    if (injector != nullptr && !injector->empty()) {
      if (auto forced = injector->fire(req.faultIndex)) return *forced;
    }
    return evaluateCandidate(req);
  } catch (const sim::TimeoutError&) {
    return {0, EvalOutcome::Status::Timeout};
  } catch (...) {
    return {0, EvalOutcome::Status::Crash};
  }
}

}  // namespace ifko::search
