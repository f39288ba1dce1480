// Unit tests of the load driver's pure logic (bench_lib.h): schedule
// determinism, the tail-percentile rule, registry-scrape bucket deltas
// (single-process dumps and `metrics cluster` merges), the capacity ladder
// and the result schema.

#include "bench_lib.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "obs/exposition.h"
#include "obs/metrics.h"

namespace e2ebench {
namespace {

MixSpec PairRwSpec() {
  MixSpec s;
  s.keys = 100'000;
  s.theta = 0.99;
  s.get_share = 0.5;
  s.marker_rate = 100;
  s.sample_every_s = 0.25;
  return s;
}

bool SameOps(const std::vector<std::vector<Op>>& a,
             const std::vector<std::vector<Op>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t c = 0; c < a.size(); c++) {
    if (a[c].size() != b[c].size()) return false;
    for (size_t i = 0; i < a[c].size(); i++) {
      const Op& x = a[c][i];
      const Op& y = b[c][i];
      if (x.at_ns != y.at_ns || x.verb != y.verb || x.value_id != y.value_id ||
          x.keys[0] != y.keys[0] || x.keys[1] != y.keys[1] ||
          x.keys[2] != y.keys[2]) {
        return false;
      }
    }
  }
  return true;
}

TEST(Schedule, IdenticalForTheSameSeed) {
  const auto a = BuildSchedule(PairRwSpec(), 7, 0, 3000, 2, 3);
  const auto b = BuildSchedule(PairRwSpec(), 7, 0, 3000, 2, 3);
  EXPECT_TRUE(SameOps(a, b));
  EXPECT_FALSE(SameOps(a, BuildSchedule(PairRwSpec(), 8, 0, 3000, 2, 3)));
  EXPECT_FALSE(SameOps(a, BuildSchedule(PairRwSpec(), 7, 1, 3000, 2, 3)));
}

TEST(Schedule, RateMixMarkersAndSamples) {
  MixSpec spec;
  spec.keys = 1000;
  spec.get_share = 0.45;
  spec.mput_share = 0.15;
  spec.marker_rate = 50;
  spec.sample_every_s = 0.5;
  const auto s = BuildSchedule(spec, 1, 0, 4000, 5, 4);
  size_t load = 0, gets = 0, mputs = 0, markers = 0, samples = 0;
  for (const auto& conn : s) {
    for (size_t i = 0; i < conn.size(); i++) {
      if (i > 0) {
        EXPECT_LE(conn[i - 1].at_ns, conn[i].at_ns);
      }
      EXPECT_LT(conn[i].at_ns, 5'000'000'000);
      switch (conn[i].verb) {
        case Verb::kGet:
          gets++;
          load++;
          break;
        case Verb::kMput:
          mputs++;
          load++;
          EXPECT_NE(conn[i].keys[0], conn[i].keys[1]);
          EXPECT_NE(conn[i].keys[1], conn[i].keys[2]);
          EXPECT_NE(conn[i].keys[0], conn[i].keys[2]);
          break;
        case Verb::kPut:
          load++;
          EXPECT_LT(conn[i].keys[0], 1000u);
          break;
        case Verb::kMarker:
          markers++;
          break;
        case Verb::kSample:
          samples++;
          break;
      }
    }
  }
  EXPECT_NEAR(static_cast<double>(load), 20'000, 600);
  EXPECT_NEAR(static_cast<double>(gets) / load, 0.45, 0.02);
  EXPECT_NEAR(static_cast<double>(mputs) / load, 0.15, 0.02);
  EXPECT_EQ(markers, 250u);      // connection 0 only
  EXPECT_EQ(samples, 4u * 9u);   // every connection, 0.5 s apart
}

TEST(Percentiles, NearestRank) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(&v, 0.5), 3);
  EXPECT_EQ(Percentile(&v, 0.99), 5);
  EXPECT_EQ(Percentile(&v, 0), 1);
  std::vector<double> empty;
  EXPECT_EQ(Percentile(&empty, 0.5), 0);
}

TEST(Percentiles, TailRuleNeedsTenSamplesBeyond) {
  EXPECT_TRUE(TailSupported(1000, 0.99));
  EXPECT_FALSE(TailSupported(999, 0.99));
  EXPECT_TRUE(TailSupported(100, 0.9));
  EXPECT_FALSE(TailSupported(99, 0.9));
  EXPECT_EQ(HighestSupportedTail(19), 0);
  EXPECT_EQ(HighestSupportedTail(20), 0.5);
  EXPECT_EQ(HighestSupportedTail(100), 0.9);
  EXPECT_EQ(HighestSupportedTail(9'999), 0.99);
  EXPECT_EQ(HighestSupportedTail(10'000), 0.999);
  EXPECT_EQ(HighestSupportedTail(1'000'000), 0.9999);
}

TEST(Percentiles, WindowedTailIgnoresOneStalledWindow) {
  std::vector<TimedSample> v;
  for (int i = 0; i < 10'000; i++) {
    const double t = i / 1000.0;  // 10 s
    // Sub-window 2 of 5 holds a 50 ms stall.
    const double value = (t >= 4 && t < 4.3) ? 50.0 : 1.0 + (i % 100) / 100.0;
    v.push_back({t, value});
  }
  int used = 0;
  const double tail = WindowedQuantile(v, 10, 5, 0.99, &used);
  EXPECT_EQ(used, 5);
  EXPECT_LT(tail, 2.0);
  std::vector<double> all;
  for (const TimedSample& s : v) all.push_back(s.value);
  EXPECT_EQ(Percentile(&all, 0.99), 50.0);
  // Too few samples for two sub-windows: the whole-sample quantile.
  std::vector<TimedSample> few(v.begin(), v.begin() + 1500);
  EXPECT_DOUBLE_EQ(WindowedQuantile(few, 10, 5, 0.99, &used), 1.98);
  EXPECT_EQ(used, 1);
}

TEST(Percentiles, WindowStealBracketsEachWindow) {
  // Readings every 0.5 s over 4 s; 100 ticks per 0.5 s, steal only in
  // [1, 2) (20 ticks per reading) and [3, 3.5) (50 ticks).
  std::vector<HostSample> r;
  double total = 0, steal = 0;
  for (int i = 0; i <= 8; i++) {
    const double t = i * 0.5;
    r.push_back({t, total, steal});
    total += 100;
    if (t >= 1 && t < 2) steal += 20;
    if (t == 3) steal += 50;
  }
  const std::vector<double> s = WindowSteal(r, 4, 4);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_DOUBLE_EQ(s[0], 0);
  EXPECT_DOUBLE_EQ(s[1], 0.2);
  EXPECT_DOUBLE_EQ(s[2], 0);
  EXPECT_DOUBLE_EQ(s[3], 0.25);
  // A window without readings on both sides shows no ticks: 0.
  EXPECT_EQ(WindowSteal({}, 4, 2), std::vector<double>(2, 0.0));
  const std::vector<double> two = WindowSteal({r[2], r[4]}, 4, 2);
  EXPECT_DOUBLE_EQ(two[0], 0.2);
  EXPECT_DOUBLE_EQ(two[1], 0);
}

TEST(Percentiles, CalmQuantileSkipsStolenWindows) {
  // Six 1-s windows; the four stolen ones (steal >= 0.1) run ten times
  // slower. Per window the values are 1.00..1.99 (p50 1.49) or 10x that.
  const std::vector<double> steal = {0.15, 0.0, 0.2, 0.01, 0.1, 0.12};
  std::vector<TimedSample> v;
  for (int i = 0; i < 600; i++) {
    const double base = 1.0 + (i % 100) / 100.0;
    v.push_back({i / 100.0 + 0.005, steal[static_cast<size_t>(i / 100)] >= 0.1
                                ? 10 * base
                                : base});
  }
  EXPECT_DOUBLE_EQ(CalmQuantile(v, 6, steal, 2, 0.5), 1.49);
  EXPECT_DOUBLE_EQ(CalmQuantile(v, 6, steal, 3, 0.5), 1.49);
  // All six: the median window is a stolen one.
  EXPECT_DOUBLE_EQ(CalmQuantile(v, 6, steal, 6, 0.5), 14.9);
  // The calmest window is empty: the next calmest ones take its place.
  std::vector<TimedSample> gap;
  for (const TimedSample& x : v) {
    if (x.t < 1 || x.t >= 2) gap.push_back(x);
  }
  EXPECT_DOUBLE_EQ(CalmQuantile(gap, 6, steal, 3, 0.5), 14.9);
  EXPECT_DOUBLE_EQ(CalmQuantile(gap, 6, steal, 1, 0.5), 1.49);
}

// ---- registry scrapes --------------------------------------------------------

std::string Dump(tardis::obs::MetricsRegistry* r) {
  return tardis::obs::RenderPrometheus(r->Collect()) + "END\n";
}

TEST(Scrape, ParsesSeriesLabelsAndSkipsNoise) {
  const Scrape s = ParseProm(
      "*F0:12 # HELP x help\n"
      "# TYPE x counter\n"
      "x{site=\"0\"} 5\n"
      "x{site=\"1\"} 7\n"
      "y 2.5\n"
      "garbage\n"
      "END\n");
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(SumSeries(s, "x"), 12);
  EXPECT_EQ(SumSeries(s, "x", {{"site", "1"}}), 7);
  EXPECT_EQ(MaxSeries(s, "x"), 7);
  EXPECT_EQ(SumSeries(s, "y"), 2.5);
  EXPECT_EQ(SumSeries(s, "missing"), 0);
}

TEST(Scrape, BucketDeltasAcrossTwoDumps) {
  tardis::obs::MetricsRegistry reg;
  auto* c = reg.RegisterCounter("tardis_txn_commits_total", "c", {{"site", "0"}});
  auto* qw = reg.RegisterHistogram("tardis_stage_micros", "s",
                                   {{"stage", "queue_wait"}});
  auto* cs = reg.RegisterHistogram("tardis_stage_micros", "s",
                                   {{"stage", "commit_select"}});
  for (int i = 0; i < 100; i++) qw->Observe(5);
  c->Increment(3);
  const Scrape before = ParseProm(Dump(&reg));
  for (int i = 0; i < 90; i++) qw->Observe(100);
  for (int i = 0; i < 10; i++) qw->Observe(5000);
  cs->Observe(1);
  c->Increment(40);
  const Scrape after = ParseProm(Dump(&reg));

  EXPECT_EQ(DeltaSeries(before, after, "tardis_txn_commits_total"), 40);
  HistDelta d;
  ASSERT_TRUE(DeltaHistogram(before, after, "tardis_stage_micros",
                             {{"stage", "queue_wait"}}, &d));
  EXPECT_EQ(d.count, 100);  // the 100 samples of 5 us are before the window
  EXPECT_GT(d.Quantile(0.5), 80);
  EXPECT_LE(d.Quantile(0.5), 100);
  EXPECT_GT(d.Quantile(0.99), 4000);
  EXPECT_LE(d.Quantile(0.99), 5000);
  HistDelta other;
  ASSERT_TRUE(DeltaHistogram(before, after, "tardis_stage_micros",
                             {{"stage", "commit_select"}}, &other));
  EXPECT_EQ(other.count, 1);
  HistDelta none;
  ASSERT_TRUE(DeltaHistogram(before, after, "tardis_stage_micros",
                             {{"stage", "wal_fsync"}}, &none));
  EXPECT_EQ(none.count, 0);
  EXPECT_EQ(none.Quantile(0.5), 0);
}

TEST(Scrape, MetricsClusterCountersSumAndSparseBucketMergeIsDetected) {
  // Two processes' dumps merged the way the router's `metrics cluster`
  // merges them.
  tardis::obs::MetricsRegistry a, b;
  auto* ca = a.RegisterCounter("tardis_txn_commits_total", "c", {{"site", "0"}});
  auto* cb = b.RegisterCounter("tardis_txn_commits_total", "c", {{"site", "0"}});
  auto* ha = a.RegisterHistogram("tardis_commit_latency_us", "h", {{"site", "0"}});
  auto* hb = b.RegisterHistogram("tardis_commit_latency_us", "h", {{"site", "0"}});
  ha->Observe(10);
  hb->Observe(10);
  const Scrape before = ParseProm(
      tardis::obs::MergePrometheus({Dump(&a), Dump(&b)}) + "END\n");
  ca->Increment(5);
  cb->Increment(7);
  for (int i = 0; i < 4; i++) ha->Observe(10);
  for (int i = 0; i < 6; i++) hb->Observe(10);
  const std::string aligned =
      tardis::obs::MergePrometheus({Dump(&a), Dump(&b)}) + "END\n";
  const Scrape after = ParseProm(aligned);
  EXPECT_EQ(DeltaSeries(before, after, "tardis_txn_commits_total"), 12);
  // Both processes emitted the same buckets, so the merge is exact.
  HistDelta d;
  ASSERT_TRUE(DeltaHistogram(before, after, "tardis_commit_latency_us", {}, &d));
  EXPECT_EQ(d.count, 10);

  // Different non-empty buckets per process: the merged cumulative series
  // goes backwards, and the parser refuses it rather than inventing counts.
  hb->Observe(100'000);
  ha->Observe(50);
  const Scrape lossy = ParseProm(
      tardis::obs::MergePrometheus({Dump(&a), Dump(&b)}) + "END\n");
  std::map<double, double> buckets;
  EXPECT_FALSE(BucketCounts(lossy, "tardis_commit_latency_us", {}, &buckets));
}

// ---- capacity ladder -----------------------------------------------------------

TEST(Ladder, RatesAreGeometric) {
  const std::vector<double> r = LadderRates(1000, 1.1, 4);
  ASSERT_EQ(r.size(), 4u);
  EXPECT_EQ(r[0], 1000);
  EXPECT_EQ(r[1], 1100);
  EXPECT_EQ(r[3], 1331);
}

TEST(Ladder, BisectionFindsTheHighestPassingStep) {
  for (int steps : {1, 2, 5, 24}) {
    for (int threshold = -1; threshold < steps; threshold++) {
      int probes = 0;
      const int got = LadderSearch(steps, [&](int i) {
        probes++;
        return i <= threshold;
      });
      EXPECT_EQ(got, threshold) << steps << " steps";
      EXPECT_LE(probes, static_cast<int>(std::ceil(std::log2(steps + 1))));
    }
  }
}

TEST(Ladder, StepPassRule) {
  StepResult r;
  r.rate = 1000;
  r.p99_ms = {{"get", 1.5}, {"put", 1.9}};
  r.count = {{"get", 1500}, {"put", 1500}};
  EXPECT_TRUE(StepPasses(r, 2));
  StepResult slow = r;
  slow.p99_ms["put"] = 2.1;
  EXPECT_FALSE(StepPasses(slow, 2));
  StepResult thin = r;
  thin.count["get"] = 999;  // p99 not supported
  EXPECT_FALSE(StepPasses(thin, 2));
  StepResult backlog = r;
  backlog.late_second_half_ms = 2.5;
  EXPECT_FALSE(StepPasses(backlog, 2));
  StepResult errors = r;
  errors.error_share = 0.0011;
  EXPECT_FALSE(StepPasses(errors, 2));
  EXPECT_FALSE(StepPasses(StepResult{}, 2));
}

// ---- replies and result ----------------------------------------------------------

TEST(Replies, Grammar) {
  EXPECT_EQ(ClassifyReply("put", "OK"), ReplyKind::kOk);
  EXPECT_EQ(ClassifyReply("put", "OK STATE 0:17"), ReplyKind::kOk);
  EXPECT_EQ(ClassifyReply("put", "OK STATE 0:x"), ReplyKind::kMalformed);
  EXPECT_EQ(ClassifyReply("put", "ERR BUSY queue full; retry"),
            ReplyKind::kError);
  EXPECT_EQ(ClassifyReply("get", "VALUE abc"), ReplyKind::kOk);
  EXPECT_EQ(ClassifyReply("get", "NOTFOUND"), ReplyKind::kOk);
  EXPECT_EQ(ClassifyReply("get", "VALUE "), ReplyKind::kMalformed);
  EXPECT_EQ(ClassifyReply("get", "PONG"), ReplyKind::kMalformed);
  EXPECT_EQ(ClassifyReply("mput", "OK TXN 123"), ReplyKind::kOk);
  EXPECT_EQ(ClassifyReply("mput", "OK TXN 123 FORKED"), ReplyKind::kOk);
  EXPECT_EQ(ClassifyReply("mput", "OK TXN 123 FORKED INDOUBT 1"),
            ReplyKind::kOk);
  EXPECT_EQ(ClassifyReply("mput", "OK TXN 12a"), ReplyKind::kMalformed);
  EXPECT_EQ(ClassifyReply("mput", "OK TXN 1 LATER"), ReplyKind::kMalformed);
  EXPECT_EQ(ClassifyReply("merge", "MERGED 2"), ReplyKind::kOk);
  EXPECT_EQ(ClassifyReply("merge", "NOMERGE"), ReplyKind::kOk);
  EXPECT_EQ(ClassifyReply("merge", "MERGED"), ReplyKind::kMalformed);
}

TEST(Result, ErrorShareUpperBound) {
  const double zero = ErrorShareUpper(0, 10'000);
  EXPECT_GT(zero, 0);
  EXPECT_LT(zero, 4e-4);
  EXPECT_GT(ErrorShareUpper(1, 10'000), zero);
  EXPECT_GT(ErrorShareUpper(10, 10'000), 1e-3);
  EXPECT_EQ(ErrorShareUpper(0, 0), 1);
}

TEST(Result, Schema) {
  const std::string j = ResultJson(
      true, 1000, 2,
      {{"latency_ms", 1.2034, "ms"}, {"setup_s", 0.1 + 0.2, "s"},
       {"bad", std::nan(""), "ms"}});
  EXPECT_EQ(j,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 2, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.2034, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.30000000000000004, "
            "\"unit\": \"s\"}, \"bad\": {\"value\": 0, \"unit\": \"ms\"}}}");
  EXPECT_EQ(ResultJson(false, 1, 1, {}),
            "{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
            "\"metrics\": {}}");
}

TEST(Values, DeterministicAndSized) {
  EXPECT_EQ(MakeValue(42, 256), MakeValue(42, 256));
  EXPECT_NE(MakeValue(42, 256), MakeValue(43, 256));
  EXPECT_EQ(MakeValue(42, 256).size(), 256u);
  EXPECT_EQ(MakeValue(42, 64).size(), 64u);
  EXPECT_EQ(MakeValue(42, 64).find(' '), std::string::npos);
}

}  // namespace
}  // namespace e2ebench
