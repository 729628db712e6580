// The wisdom store: the versioned best-config artifact must round-trip
// bit-identically (attribution vector included), merge keep-best, tolerate
// damaged lines loudly, load old-schema (v1) lines while refusing unknown
// schemas, and fall back exact -> attribution-similar -> near-N ->
// near-context without ever crossing kernel or machine.  The warm-start
// lookup shared by tune, tune-all and the serve daemon turns a match into
// parsed parameters, probing with the kernel's own DEFAULTS attribution.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "arch/machine.h"
#include "search/counters.h"
#include "support/hash.h"
#include "wisdom/harvest.h"
#include "wisdom/wisdom.h"

namespace ifko::wisdom {
namespace {

std::string tmpFile(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

WisdomRecord makeRecord(const std::string& hash, const std::string& machine,
                        const std::string& context, const std::string& nClass,
                        uint64_t best) {
  WisdomRecord rec;
  rec.key = {hash, machine, context, nClass};
  rec.kernel = "ddot";
  rec.params = "sv=Y ur=8";
  rec.bestCycles = best;
  rec.defaultCycles = 2 * best;
  rec.evaluations = 15;
  rec.runId = "test/line";
  return rec;
}

TEST(NClass, PowerOfTwoBuckets) {
  EXPECT_EQ(nClassFor(1), "2^0");
  EXPECT_EQ(nClassFor(2), "2^1");
  EXPECT_EQ(nClassFor(3), "2^2");
  EXPECT_EQ(nClassFor(4096), "2^12");
  EXPECT_EQ(nClassFor(4097), "2^13");
  EXPECT_EQ(nClassFor(8192), "2^13");
  EXPECT_EQ(nClassFor(80000), "2^17");
}

TEST(NClass, ExponentRoundTrip) {
  EXPECT_EQ(nClassExponent(nClassFor(4096)), 12);
  EXPECT_EQ(nClassExponent("2^0"), 0);
  EXPECT_EQ(nClassExponent("2^62"), 62);
  EXPECT_EQ(nClassExponent("2^63"), -1);
  EXPECT_EQ(nClassExponent("4096"), -1);
  EXPECT_EQ(nClassExponent("2^-1"), -1);
  EXPECT_EQ(nClassExponent(""), -1);
}

TEST(WisdomRecordFormat, ParseInvertsFormat) {
  WisdomRecord rec = makeRecord("abc123", "P4E", "out-of-cache", "2^12", 1000);
  rec.topCause = "mem_main";
  rec.topCauseShare = 0.5;
  rec.memStallShare = 0.75;
  const std::string line = WisdomStore::formatRecord(rec);
  bool drift = true;
  std::optional<WisdomRecord> back = WisdomStore::parseRecord(line, &drift);
  ASSERT_TRUE(back.has_value()) << line;
  EXPECT_FALSE(drift);
  EXPECT_EQ(*back, rec);
}

TEST(WisdomRecordFormat, DamagedAndDriftedLines) {
  bool drift = false;
  EXPECT_FALSE(WisdomStore::parseRecord("not json", &drift).has_value());
  EXPECT_FALSE(drift);
  // Well-formed JSON that is not a wisdom record is damage, not drift.
  EXPECT_FALSE(WisdomStore::parseRecord("{\"a\":1}", &drift).has_value());
  EXPECT_FALSE(drift);
  // Missing required field (params).
  EXPECT_FALSE(
      WisdomStore::parseRecord(
          "{\"wisdom_schema\":1,\"source\":\"x\",\"machine\":\"P4E\","
          "\"context\":\"out-of-cache\",\"n_class\":\"2^12\","
          "\"best_cycles\":1,\"default_cycles\":2}",
          &drift)
          .has_value());
  EXPECT_FALSE(drift);
  // A record from a future schema is drift: never reinterpreted.
  WisdomRecord rec = makeRecord("abc", "P4E", "out-of-cache", "2^12", 10);
  std::string future = WisdomStore::formatRecord(rec);
  const std::string tag = "\"wisdom_schema\":2";
  future.replace(future.find(tag), tag.size(), "\"wisdom_schema\":3");
  EXPECT_FALSE(WisdomStore::parseRecord(future, &drift).has_value());
  EXPECT_TRUE(drift);
}

TEST(WisdomRecordFormat, OldSchemaStillLoads) {
  // v1 lines are a strict subset of v2 (no attribution vector): compat,
  // not drift — a store written before the schema bump keeps working.
  WisdomRecord rec = makeRecord("abc", "P4E", "out-of-cache", "2^12", 10);
  std::string v1 = WisdomStore::formatRecord(rec);
  const std::string tag = "\"wisdom_schema\":2";
  v1.replace(v1.find(tag), tag.size(), "\"wisdom_schema\":1");
  bool drift = true;
  std::optional<WisdomRecord> back = WisdomStore::parseRecord(v1, &drift);
  ASSERT_TRUE(back.has_value()) << v1;
  EXPECT_FALSE(drift);
  EXPECT_FALSE(back->hasAttr());
  EXPECT_EQ(back->params, rec.params);
  EXPECT_EQ(back->bestCycles, rec.bestCycles);
}

TEST(WisdomRecordFormat, AttributionVectorRoundTrips) {
  WisdomRecord rec = makeRecord("abc", "P4E", "out-of-cache", "2^12", 10);
  rec.topCause = "mem_main";
  rec.topCauseShare = 0.5;
  rec.memStallShare = 0.75;
  rec.attrShare = {0.1, 0.05, 0.05, 0.0, 0.0, 0.05, 0.1, 0.05, 0.5, 0.1};
  const std::string line = WisdomStore::formatRecord(rec);
  EXPECT_NE(line.find("\"attr\":{"), std::string::npos) << line;
  EXPECT_NE(line.find("\"mem_main\":0.5"), std::string::npos) << line;
  bool drift = true;
  std::optional<WisdomRecord> back = WisdomStore::parseRecord(line, &drift);
  ASSERT_TRUE(back.has_value()) << line;
  EXPECT_FALSE(drift);
  EXPECT_EQ(*back, rec);
}

TEST(WisdomStore, KeepBestRecord) {
  WisdomStore store;
  EXPECT_TRUE(store.record(makeRecord("h", "P4E", "out-of-cache", "2^12", 100)));
  // Slower config for the same key: rejected.
  EXPECT_FALSE(
      store.record(makeRecord("h", "P4E", "out-of-cache", "2^12", 150)));
  // A tie keeps the incumbent, so merge order cannot flip the winner.
  EXPECT_FALSE(
      store.record(makeRecord("h", "P4E", "out-of-cache", "2^12", 100)));
  // Zero cycles is "no measurement", never a winner.
  EXPECT_FALSE(store.record(makeRecord("h", "P4E", "out-of-cache", "2^12", 0)));
  // Faster config: adopted.
  EXPECT_TRUE(store.record(makeRecord("h", "P4E", "out-of-cache", "2^12", 90)));
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.records()[0]->bestCycles, 90u);
}

TEST(WisdomStore, MergeKeepsBestAcrossStores) {
  WisdomStore a;
  a.record(makeRecord("h", "P4E", "out-of-cache", "2^12", 100));
  a.record(makeRecord("h", "P4E", "in-L2", "2^12", 50));
  WisdomStore b;
  b.record(makeRecord("h", "P4E", "out-of-cache", "2^12", 80));  // beats a's
  b.record(makeRecord("h", "P4E", "in-L2", "2^12", 60));         // loses
  b.record(makeRecord("h", "Opteron", "in-L2", "2^12", 70));     // new key
  EXPECT_EQ(a.merge(b), 2u);
  ASSERT_EQ(a.size(), 3u);
  WisdomKey ooc{"h", "P4E", "out-of-cache", "2^12"};
  ASSERT_NE(a.lookup(ooc), nullptr);
  EXPECT_EQ(a.lookup(ooc)->bestCycles, 80u);
  WisdomKey inl2{"h", "P4E", "in-L2", "2^12"};
  ASSERT_NE(a.lookup(inl2), nullptr);
  EXPECT_EQ(a.lookup(inl2)->bestCycles, 50u);
}

TEST(WisdomStore, SaveLoadSaveIsByteIdentical) {
  WisdomStore store;
  WisdomRecord withAttr = makeRecord("h2", "P4E", "in-L2", "2^10", 321);
  withAttr.topCause = "mem_main";
  withAttr.topCauseShare = 0.474951;
  withAttr.memStallShare = 0.850952;
  store.record(makeRecord("h1", "Opteron", "out-of-cache", "2^17", 12345));
  store.record(withAttr);
  store.record(makeRecord("h1", "P4E", "out-of-cache", "2^12", 999));

  const std::string first = tmpFile("wisdom_roundtrip_a.jsonl");
  const std::string second = tmpFile("wisdom_roundtrip_b.jsonl");
  ASSERT_TRUE(store.save(first));
  WisdomStore loaded;
  ASSERT_TRUE(loaded.load(first));
  EXPECT_EQ(loaded.damagedLines(), 0u);
  EXPECT_EQ(loaded.schemaSkippedLines(), 0u);
  ASSERT_EQ(loaded.size(), store.size());
  ASSERT_TRUE(loaded.save(second));
  EXPECT_EQ(slurp(first), slurp(second));
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST(WisdomStore, LoadCountsDamageAndSchemaDriftSeparately) {
  const std::string path = tmpFile("wisdom_damaged.jsonl");
  {
    std::ofstream out(path, std::ios::trunc);
    out << WisdomStore::formatRecord(
               makeRecord("h", "P4E", "out-of-cache", "2^12", 100))
        << "\n";
    out << "this line is not json\n";
    out << "{\"also\":\"not a wisdom record\"}\n";
    out << "\n";  // blank lines are fine, not damage
    WisdomRecord future = makeRecord("h9", "P4E", "in-L2", "2^9", 5);
    std::string line = WisdomStore::formatRecord(future);
    const std::string tag = "\"wisdom_schema\":2";
    line.replace(line.find(tag), tag.size(), "\"wisdom_schema\":99");
    out << line << "\n";
  }
  WisdomStore store;
  ASSERT_TRUE(store.load(path));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.damagedLines(), 2u);
  EXPECT_EQ(store.schemaSkippedLines(), 1u);
  std::remove(path.c_str());
}

TEST(WisdomStore, LoadMergesKeepBest) {
  // Concatenating two wisdom files must be a correct merge: the same key
  // twice in one file keeps the lower best_cycles whichever comes first.
  const std::string path = tmpFile("wisdom_concat.jsonl");
  {
    std::ofstream out(path, std::ios::trunc);
    out << WisdomStore::formatRecord(
               makeRecord("h", "P4E", "out-of-cache", "2^12", 200))
        << "\n";
    out << WisdomStore::formatRecord(
               makeRecord("h", "P4E", "out-of-cache", "2^12", 100))
        << "\n";
    out << WisdomStore::formatRecord(
               makeRecord("h", "P4E", "out-of-cache", "2^12", 150))
        << "\n";
  }
  WisdomStore store;
  ASSERT_TRUE(store.load(path));
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.records()[0]->bestCycles, 100u);
  std::remove(path.c_str());
}

TEST(WisdomStore, MissingFileIsEmptyNotError) {
  WisdomStore store;
  std::string err;
  EXPECT_TRUE(store.load(tmpFile("wisdom_does_not_exist.jsonl"), &err));
  EXPECT_TRUE(err.empty());
  EXPECT_EQ(store.size(), 0u);
}

TEST(WisdomStore, FindFallsBackExactThenNearNThenNearContext) {
  WisdomStore store;
  store.record(makeRecord("h", "P4E", "out-of-cache", "2^12", 100));
  store.record(makeRecord("h", "P4E", "out-of-cache", "2^17", 500));
  store.record(makeRecord("h", "P4E", "in-L2", "2^13", 80));
  store.record(makeRecord("other", "P4E", "out-of-cache", "2^14", 1));
  store.record(makeRecord("h", "Opteron", "out-of-cache", "2^14", 1));

  // Exact hit.
  WisdomMatch m = store.find({"h", "P4E", "out-of-cache", "2^12"});
  ASSERT_TRUE(m.hit());
  EXPECT_EQ(m.kind, MatchKind::Exact);
  EXPECT_EQ(m.record->bestCycles, 100u);

  // Same context, nearest N-class: 2^14 is 2 from 2^12 and 3 from 2^17.
  m = store.find({"h", "P4E", "out-of-cache", "2^14"});
  ASSERT_TRUE(m.hit());
  EXPECT_EQ(m.kind, MatchKind::NearNClass);
  EXPECT_EQ(m.record->key.nClass, "2^12");
  EXPECT_EQ(matchKindName(m.kind), "near-n");

  // Same-context near-N beats the other context even at a larger distance.
  m = store.find({"h", "P4E", "in-L2", "2^9"});
  ASSERT_TRUE(m.hit());
  EXPECT_EQ(m.kind, MatchKind::NearNClass);
  EXPECT_EQ(m.record->key.context, "in-L2");

  // Other context only.
  store = WisdomStore();
  store.record(makeRecord("h", "P4E", "out-of-cache", "2^12", 100));
  m = store.find({"h", "P4E", "in-L2", "2^12"});
  ASSERT_TRUE(m.hit());
  EXPECT_EQ(m.kind, MatchKind::NearContext);
  EXPECT_EQ(matchKindName(m.kind), "near-context");

  // Fallback never crosses kernel hash or machine.
  m = store.find({"zzz", "P4E", "out-of-cache", "2^12"});
  EXPECT_FALSE(m.hit());
  m = store.find({"h", "Opteron", "out-of-cache", "2^12"});
  EXPECT_FALSE(m.hit());
}

TEST(WisdomStore, NearNTiesBreakTowardSmallerClass) {
  // Regression: the old scan used strict `<` over lexicographic map order,
  // and "2^11" sorts before "2^9" as a string — so at equal exponent
  // distance the larger class used to win by iteration accident.  The
  // tie-break is now explicit: smaller class.
  WisdomStore store;
  store.record(makeRecord("h", "P4E", "out-of-cache", "2^11", 300));
  store.record(makeRecord("h", "P4E", "out-of-cache", "2^9", 200));
  WisdomMatch m = store.find({"h", "P4E", "out-of-cache", "2^10"});
  ASSERT_TRUE(m.hit());
  EXPECT_EQ(m.kind, MatchKind::NearNClass);
  EXPECT_EQ(m.record->key.nClass, "2^9");

  // Insertion order must not matter.
  WisdomStore reversed;
  reversed.record(makeRecord("h", "P4E", "out-of-cache", "2^9", 200));
  reversed.record(makeRecord("h", "P4E", "out-of-cache", "2^11", 300));
  m = reversed.find({"h", "P4E", "out-of-cache", "2^10"});
  ASSERT_TRUE(m.hit());
  EXPECT_EQ(m.record->key.nClass, "2^9");
}

TEST(WisdomStore, FindRanksByAttributionSimilarity) {
  // Two same-context candidates: a memory-bound winner one class up and an
  // fp-bound winner three classes up.  An fp-heavy probe must pick the
  // fp-bound record even though it is numerically farther — that is the
  // whole point of the performance-derived key.
  WisdomRecord memBound = makeRecord("h", "P4E", "out-of-cache", "2^13", 100);
  memBound.attrShare = {0.05, 0.05, 0.0, 0.0, 0.0, 0.0, 0.1, 0.1, 0.6, 0.1};
  WisdomRecord fpBound = makeRecord("h", "P4E", "out-of-cache", "2^15", 100);
  fpBound.attrShare = {0.1, 0.7, 0.05, 0.0, 0.0, 0.05, 0.05, 0.0, 0.0, 0.05};
  WisdomStore store;
  store.record(memBound);
  store.record(fpBound);

  AttrShares fpProbe = {0.1, 0.65, 0.05, 0.0, 0.0, 0.1, 0.05, 0.0, 0.0, 0.05};
  WisdomMatch m = store.find({"h", "P4E", "out-of-cache", "2^12"}, &fpProbe);
  ASSERT_TRUE(m.hit());
  EXPECT_EQ(m.kind, MatchKind::AttrSimilar);
  EXPECT_EQ(matchKindName(m.kind), "attr-similar");
  EXPECT_EQ(m.record->key.nClass, "2^15");

  AttrShares memProbe = {0.05, 0.1, 0.0, 0.0, 0.0, 0.0, 0.1, 0.1, 0.55, 0.1};
  m = store.find({"h", "P4E", "out-of-cache", "2^12"}, &memProbe);
  ASSERT_TRUE(m.hit());
  EXPECT_EQ(m.kind, MatchKind::AttrSimilar);
  EXPECT_EQ(m.record->key.nClass, "2^13");

  // Without a probe the ranking degrades to nearest-N.
  m = store.find({"h", "P4E", "out-of-cache", "2^12"});
  ASSERT_TRUE(m.hit());
  EXPECT_EQ(m.kind, MatchKind::NearNClass);
  EXPECT_EQ(m.record->key.nClass, "2^13");

  // Records without vectors (v1 imports) rank after informed ones but are
  // still found; the match kind reports the N-heuristic, not similarity.
  WisdomStore v1only;
  v1only.record(makeRecord("h", "P4E", "out-of-cache", "2^13", 100));
  m = v1only.find({"h", "P4E", "out-of-cache", "2^12"}, &fpProbe);
  ASSERT_TRUE(m.hit());
  EXPECT_EQ(m.kind, MatchKind::NearNClass);

  // A probe never widens the fallback across kernel or machine.
  m = store.find({"zzz", "P4E", "out-of-cache", "2^12"}, &fpProbe);
  EXPECT_FALSE(m.hit());
  m = store.find({"h", "Opteron", "out-of-cache", "2^12"}, &fpProbe);
  EXPECT_FALSE(m.hit());

  // Same context still outranks the other context even when the other
  // context's vector is closer: contexts are tiers, similarity ranks
  // within a tier.
  WisdomRecord otherCtx = makeRecord("h", "P4E", "in-L2", "2^12", 90);
  otherCtx.attrShare = fpBound.attrShare;
  WisdomStore tiered;
  tiered.record(memBound);
  tiered.record(otherCtx);
  m = tiered.find({"h", "P4E", "out-of-cache", "2^12"}, &fpProbe);
  ASSERT_TRUE(m.hit());
  EXPECT_EQ(m.record->key.context, "out-of-cache");
}

TEST(AttrMath, CosineDistanceBasics) {
  AttrShares a{}, b{};
  a[8] = 1.0;  // mem_main only
  b[8] = 1.0;
  EXPECT_NEAR(attrCosineDistance(a, b), 0.0, 1e-12);
  b = {};
  b[1] = 1.0;  // fp_dep only: orthogonal
  EXPECT_NEAR(attrCosineDistance(a, b), 1.0, 1e-12);
  // An all-zero side means "no information": sentinel 2.0, ranked after
  // any real distance.
  EXPECT_EQ(attrCosineDistance(a, AttrShares{}), 2.0);
  EXPECT_EQ(attrCosineDistance(AttrShares{}, AttrShares{}), 2.0);
}

// --- the shared warm-start lookup (wisdom/harvest.h) ------------------------

/// A timed DEFAULTS outcome whose attribution has the given shares.
search::EvalOutcome defaultsWithShares(const AttrShares& shares) {
  search::EvalCounters c;
  for (size_t i = 0; i < kAttrCauses; ++i)
    c.attr.cycles[i] = static_cast<uint64_t>(std::lround(shares[i] * 1000));
  search::EvalOutcome o;
  o.cycles = c.attr.total();
  o.counters = c;
  return o;
}

TEST(WisdomKeyFor, NamesSourceMachineContextAndNClass) {
  const WisdomKey key =
      keyFor("kernel text", arch::opteron(), sim::TimeContext::InL2, 5000);
  EXPECT_EQ(key, (WisdomKey{hashHex("kernel text"), "Opteron", "in-L2",
                            "2^13"}));
}

TEST(WarmStart, ExactRecordGivesItsParsedParams) {
  WisdomRecord rec = makeRecord("h", "P4E", "out-of-cache", "2^12", 100);
  rec.params = "sv=Y ur=8 ae=2 wnt=Y";
  WisdomStore store;
  store.record(rec);
  const auto warm = findWarmStart(store, rec.key, search::EvalOutcome{});
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(warm->match.kind, MatchKind::Exact);
  EXPECT_EQ(warm->match.record, store.lookup(rec.key));
  EXPECT_EQ(warm->params.unroll, 8);
  EXPECT_EQ(warm->params.accumExpand, 2);
  EXPECT_TRUE(warm->params.nonTemporalWrites);
  EXPECT_EQ(warm->params, opt::parseTuningSpec(rec.params).params);
}

TEST(WarmStart, UnparseableParamsGiveNoWarmStart) {
  WisdomRecord rec = makeRecord("h", "P4E", "out-of-cache", "2^12", 100);
  rec.params = "ur=banana";
  WisdomStore store;
  store.record(rec);
  ASSERT_TRUE(store.find(rec.key).hit());  // the record is there...
  // ...but a spec that does not parse must never seed a search.
  EXPECT_FALSE(
      findWarmStart(store, rec.key, search::EvalOutcome{}).has_value());
  EXPECT_FALSE(findWarmStart(store, {"other", "P4E", "out-of-cache", "2^12"},
                             search::EvalOutcome{})
                   .has_value());
}

TEST(WarmStart, DefaultsAttributionIsTheProbe) {
  // The two same-context records of FindRanksByAttributionSimilarity, with
  // distinct winners: the DEFAULTS outcome's own attribution must pick
  // the performance-nearest one.
  WisdomRecord memBound = makeRecord("h", "P4E", "out-of-cache", "2^13", 100);
  memBound.attrShare = {0.05, 0.05, 0.0, 0.0, 0.0, 0.0, 0.1, 0.1, 0.6, 0.1};
  memBound.params = "sv=Y ur=4";
  WisdomRecord fpBound = makeRecord("h", "P4E", "out-of-cache", "2^15", 100);
  fpBound.attrShare = {0.1, 0.7, 0.05, 0.0, 0.0, 0.05, 0.05, 0.0, 0.0, 0.05};
  fpBound.params = "sv=Y ur=16 ae=4";
  WisdomStore store;
  store.record(memBound);
  store.record(fpBound);
  const WisdomKey key{"h", "P4E", "out-of-cache", "2^12"};

  auto warm = findWarmStart(
      store, key,
      defaultsWithShares({0.1, 0.65, 0.05, 0.0, 0.0, 0.1, 0.05, 0.0, 0.0,
                          0.05}));
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(warm->match.kind, MatchKind::AttrSimilar);
  EXPECT_EQ(warm->match.record->key.nClass, "2^15");
  EXPECT_EQ(warm->params.unroll, 16);
  EXPECT_EQ(warm->params.accumExpand, 4);

  warm = findWarmStart(store, key,
                       defaultsWithShares({0.05, 0.1, 0.0, 0.0, 0.0, 0.0, 0.1,
                                           0.1, 0.55, 0.1}));
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(warm->match.kind, MatchKind::AttrSimilar);
  EXPECT_EQ(warm->params.unroll, 4);

  // A DEFAULTS outcome without counters has no probe: nearest N wins.
  warm = findWarmStart(store, key, search::EvalOutcome{});
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(warm->match.kind, MatchKind::NearNClass);
  EXPECT_EQ(warm->match.record->key.nClass, "2^13");
}

}  // namespace
}  // namespace ifko::wisdom
