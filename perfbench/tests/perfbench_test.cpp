// Unit tests of the benchmark's own arithmetic: percentile selection,
// open-loop accounting, span self time and the golden-snapshot check.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "bench.h"
#include "openloop.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> oneTo(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentiles, NearestRank) {
  EXPECT_EQ(nearestRank(50.0, 10), 5u);
  EXPECT_EQ(nearestRank(99.0, 1000), 990u);  // exact product, no round-up
  EXPECT_EQ(nearestRank(99.0, 1001), 991u);
  EXPECT_EQ(nearestRank(0.0, 7), 1u);
  EXPECT_EQ(nearestRank(100.0, 7), 7u);
}

TEST(Percentiles, MedianIgnoresOrder) {
  EXPECT_EQ(median({5, 1, 4, 2, 3}), 3.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.0);  // nearest rank: the lower middle
  EXPECT_EQ(median({}), 0.0);
}

TEST(Percentiles, TailNeedsTenSamplesBeyond) {
  EXPECT_TRUE(tailSupported(99.0, 1000));   // rank 990, 10 beyond
  EXPECT_FALSE(tailSupported(99.0, 999));   // rank 990, 9 beyond
  EXPECT_TRUE(tailSupported(75.0, 40));     // rank 30, 10 beyond
  EXPECT_FALSE(tailSupported(75.0, 39));
  EXPECT_FALSE(tailSupported(50.0, 19));
}

TEST(Percentiles, SummaryPicksHighestSupportedLevel) {
  const Summary s1000 = summarize(oneTo(1000));
  EXPECT_EQ(s1000.count, 1000u);
  EXPECT_EQ(s1000.p50, 500.0);
  EXPECT_EQ(s1000.tailLevel, 99.0);  // p99.5 has only 5 beyond
  EXPECT_EQ(s1000.tail, 990.0);

  const Summary s2000 = summarize(oneTo(2000));
  EXPECT_EQ(s2000.tailLevel, 99.5);
  EXPECT_EQ(s2000.tail, 1990.0);

  const Summary s40 = summarize(oneTo(40));
  EXPECT_EQ(s40.tailLevel, 75.0);
  EXPECT_EQ(s40.tail, 30.0);

  const Summary s12 = summarize(oneTo(12));
  EXPECT_EQ(s12.count, 12u);
  EXPECT_EQ(s12.tailLevel, 0.0);  // not even the median has 10 beyond
  EXPECT_EQ(s12.p50, 6.0);
}

TEST(Percentiles, Geomean) {
  EXPECT_DOUBLE_EQ(geomean({2.0, 8.0}), 4.0);
  EXPECT_EQ(geomean({}), 0.0);
}

TEST(OpenLoop, ScheduleIsEvenlySpread) {
  const std::vector<double> due = fixedRateSchedule(4, 2.0);
  ASSERT_EQ(due.size(), 4u);
  EXPECT_DOUBLE_EQ(due[0], 0.0);
  EXPECT_DOUBLE_EQ(due[1], 0.5);
  EXPECT_DOUBLE_EQ(due[3], 1.5);
}

TEST(OpenLoop, LatencyCountsFromTheDueTime) {
  // Request 1 is stuck behind request 0's 2.5 s of service; the generator
  // itself ran 0.1 s late on request 2.
  const std::vector<RequestTiming> reqs = {
      {0.0, 0.0, 2.5},  // due, sent, done
      {1.0, 1.0, 2.6},
      {2.0, 2.1, 2.7},
      {3.0, 3.0, 3.1},
  };
  const OpenLoopSummary s = account(reqs);
  ASSERT_EQ(s.latencyMs.size(), 4u);
  EXPECT_NEAR(s.latencyMs[0], 2500.0, 1e-9);
  EXPECT_NEAR(s.latencyMs[1], 1600.0, 1e-9);
  EXPECT_NEAR(s.latencyMs[2], 700.0, 1e-9);  // done - sent would hide 100
  EXPECT_NEAR(s.latencyMs[3], 100.0, 1e-9);
  EXPECT_NEAR(s.latenessMaxMs, 100.0, 1e-9);
  EXPECT_NEAR(s.latenessP50Ms, 0.0, 1e-9);
  // At t=2.0 requests 0, 1 and 2 are due and none is answered.
  EXPECT_EQ(s.maxBacklog, 3u);
  EXPECT_DOUBLE_EQ(s.makespan, 3.1);
  // Busy: [0, 2.5] + [2.5, 2.6] + [2.6, 2.7] + [3.0, 3.1].
  EXPECT_NEAR(s.busySeconds, 2.8, 1e-12);
}

TEST(OpenLoop, BacklogStaysOneWhenRequestsNeverOverlap) {
  const std::vector<RequestTiming> reqs = {
      {0.0, 0.0, 0.1}, {1.0, 1.0, 1.1}, {2.0, 2.0, 2.1}};
  EXPECT_EQ(account(reqs).maxBacklog, 1u);  // each is briefly outstanding
}

Span span(const char* name, double start, double end, int64_t parent) {
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = parent;
  return s;
}

TEST(Spans, SelfTimeSubtractsChildren) {
  const std::vector<Span> spans = {
      span("root", 0.0, 10.0, -1),
      span("a", 1.0, 3.0, 0),
      span("b", 4.0, 5.0, 0),
      span("a.inner", 1.5, 2.0, 1),
  };
  const std::vector<double> self = selfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 7.0);  // 10 - (2 + 1): grandchildren not twice
  EXPECT_DOUBLE_EQ(self[1], 1.5);
  EXPECT_DOUBLE_EQ(self[2], 1.0);
  EXPECT_DOUBLE_EQ(self[3], 0.5);
}

TEST(Spans, OverlappingAndOverhangingChildrenCountOnce) {
  const std::vector<Span> spans = {
      span("p", 0.0, 4.0, -1),
      span("c1", 1.0, 3.0, 0),
      span("c2", 2.0, 3.5, 0),  // overlaps c1: union is [1, 3.5]
      span("c3", 3.8, 9.0, 0),  // clipped to [3.8, 4]
  };
  const std::vector<double> self = selfTimes(spans);
  EXPECT_NEAR(self[0], 4.0 - 2.5 - 0.2, 1e-12);
}

TEST(Spans, RecorderNestsAndCloses) {
  SpanRecorder rec;
  {
    ScopedSpan outer(rec, "outer", 7);
    ScopedSpan inner(rec, "inner", 7);
  }
  ScopedSpan after(rec, "after", 8);
  const std::vector<Span>& s = rec.spans();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].parent, -1);
  EXPECT_EQ(s[1].parent, 0);
  EXPECT_EQ(s[2].parent, -1);  // opened after both closed
  EXPECT_EQ(s[1].request, 7);
  EXPECT_LE(s[0].start, s[1].start);
  EXPECT_LE(s[1].end, s[0].end);
  const std::vector<double> self = selfTimes(s);
  EXPECT_GE(self[0], 0.0);
}

TEST(Golden, RecordMissingFromARunFailsIt) {
  Golden g;
  Outcome out;
  g.check("a", {{"evaluations", "3"}}, /*write=*/true, out);
  g.check("b", {{"evaluations", "4"}}, /*write=*/true, out);
  g.check("totals", {{"evaluations", "7"}}, /*write=*/true, out);
  g.requireVisited({}, /*write=*/true, out);
  EXPECT_EQ(out.failed(), 0);
  EXPECT_EQ(g.sum("evaluations", {"totals"}), 7);

  g.check("a", {{"evaluations", "3"}}, /*write=*/false, out);
  EXPECT_EQ(out.failed(), 0);
  g.requireVisited({"totals"}, /*write=*/false, out);  // "b" never produced
  EXPECT_EQ(out.failed(), 1);
  g.requireVisited({"a", "b", "totals"}, /*write=*/false, out);
  EXPECT_EQ(out.failed(), 1);
}

}  // namespace
}  // namespace perfbench
