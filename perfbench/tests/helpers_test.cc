// Tests of the benchmark's own helpers (percentile selection, self-time
// subtraction, open-loop timing) and a smoke run of every workload at toy
// sizes.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "driver.h"
#include "measure.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NearestRankWithCounts) {
  std::vector<double> v = Ramp(1000);
  const Percentile p99 = PercentileOf(v, 99.0);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_EQ(p99.beyond, 10u);
  const Percentile p50 = PercentileOf(v, 50.0);
  EXPECT_EQ(p50.value, 500.0);
  std::vector<double> empty;
  EXPECT_EQ(PercentileOf(empty, 99.0).samples, 0u);
}

TEST(Percentile, TailIsHighestWithTenBeyond) {
  std::vector<double> thousand = Ramp(1000);
  EXPECT_EQ(TailPercentile(thousand).q, 99.0);  // 99.9 has only 1 beyond
  std::vector<double> ten_thousand = Ramp(10'000);
  const Percentile p = TailPercentile(ten_thousand);
  EXPECT_EQ(p.q, 99.9);
  EXPECT_EQ(p.beyond, 10u);
  std::vector<double> five_hundred = Ramp(500);
  EXPECT_EQ(TailPercentile(five_hundred).q, 95.0);  // p99 has 5 beyond
  std::vector<double> few = Ramp(5);
  EXPECT_EQ(TailPercentile(few).q, 50.0);
}

TEST(Percentile, WindowedIsMedianOfWindowPercentiles) {
  // Three windows of 100 samples; the middle one holds a stall.
  std::vector<double> v;
  for (int w = 0; w < 3; ++w) {
    for (int i = 1; i <= 100; ++i) v.push_back(w == 1 ? 1000.0 + i : i);
  }
  v.push_back(5000.0);  // a remainder joins the last window
  const Percentile p = WindowedPercentile(v, 99.0, 100);
  EXPECT_EQ(p.samples, 301u);
  EXPECT_EQ(p.value, 100.0);  // windows give 99, 1099, 100
  EXPECT_EQ(p.beyond, 1u);
  // Fewer than two windows: the plain percentile over everything.
  std::vector<double> few = Ramp(150);
  EXPECT_EQ(WindowedPercentile(few, 50.0, 100).value, 75.0);
}

TEST(SpanLog, SelfTimeSubtractsUnionOfChildren) {
  SpanLog log;
  const std::int32_t parent = log.Begin("ingest", 7, 0);
  log.AddChild(parent, "a", 10, 30);
  log.AddChild(parent, "b", 20, 50);   // overlaps a: union is [10, 50)
  log.AddChild(parent, "c", 90, 120);  // clipped to the parent's end
  log.End(parent, 100);
  const std::int32_t next = log.Begin("result", 7, 100);
  log.End(next, 130);
  const std::vector<std::int64_t> self = log.SelfTimes();
  EXPECT_EQ(self[static_cast<std::size_t>(parent)], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[static_cast<std::size_t>(next)], 30);
  EXPECT_EQ(log.spans()[1].request, 7u);
}

TEST(SpanLog, NestedBeginEndSetsParents) {
  SpanLog log;
  const std::int32_t epoch = log.Begin("epoch", 1, 0);
  const std::int32_t child = log.Begin("ingest", 1, 5);
  log.End(child, 15);
  log.End(epoch, 20);
  const std::int32_t root = log.Begin("generate", 2, 20);
  log.End(root, 21);
  EXPECT_EQ(log.spans()[static_cast<std::size_t>(child)].parent, epoch);
  EXPECT_EQ(log.spans()[static_cast<std::size_t>(root)].parent, -1);
  EXPECT_EQ(log.SelfTimes()[static_cast<std::size_t>(epoch)], 10);
}

TEST(PacedSchedule, StallInflatesLatencyOfQueuedDocuments) {
  // 1,000 docs/s: document i is due at i ms.
  const PacedSchedule schedule(0, 1000.0, 10);
  EXPECT_EQ(schedule.DueAt(3), 3'000'000);
  EXPECT_EQ(schedule.DueBy(-1), 0u);
  EXPECT_EQ(schedule.DueBy(0), 1u);
  EXPECT_EQ(schedule.DueBy(4'500'000), 5u);
  EXPECT_EQ(schedule.DueBy(1'000'000'000), 10u);

  std::vector<double> latency;
  // Documents 0..4 served promptly by an epoch ending at 5 ms...
  schedule.ChargeEpoch(0, 5, 5'000'000, &latency);
  // ...then the epoch serving 5..9 stalls until 50 ms.
  schedule.ChargeEpoch(5, 5, 50'000'000, &latency);
  ASSERT_EQ(latency.size(), 10u);
  EXPECT_DOUBLE_EQ(latency[0], 5.0);
  EXPECT_DOUBLE_EQ(latency[4], 1.0);
  // Each queued document is charged from its own due time, so the stall
  // counts in full against all of them.
  EXPECT_DOUBLE_EQ(latency[5], 45.0);
  EXPECT_DOUBLE_EQ(latency[9], 41.0);
}

TEST(Backlog, GrowthSeparatesGrowingFromSteady) {
  std::vector<std::pair<double, double>> steady, growing;
  for (int i = 0; i < 100; ++i) {
    steady.emplace_back(i * 0.1, (i % 3) + 1.0);
    growing.emplace_back(i * 0.1, 1.0 + i * 2.0);
  }
  EXPECT_LT(std::abs(BacklogGrowth(steady)), 1.0);
  EXPECT_NEAR(BacklogGrowth(growing), 198.0, 1e-6);
}

class Smoke : public ::testing::TestWithParam<std::string> {};

TEST_P(Smoke, PrintsEveryMetricWithItsUnitAndNoFailure) {
  for (const bool trace : {false, true}) {
    RunOptions o;
    o.workload = GetParam();
    o.seed = 3;
    o.seconds = 1.0;
    o.trace = trace;
    o.tiny = true;
    const RunReport report = RunBenchmark(o);
    std::string lines;
    for (const std::string& line : report.lines) lines += line + "\n";
    EXPECT_TRUE(report.correct) << lines;
    EXPECT_EQ(report.failed, 0u);
    EXPECT_GT(report.attempted, 0u);
    const auto& expected = trace ? PerLayerMetrics() : EndToEndMetrics();
    EXPECT_EQ(report.metrics.all().size(), expected.size());
    for (const auto& [name, unit] : expected) {
      const Metric* m = report.metrics.Find(name);
      ASSERT_NE(m, nullptr) << name;
      EXPECT_EQ(m->unit, unit) << name;
    }
    const std::string json = ReportJson(report);
    EXPECT_NE(json.find("\"correct\": true"), std::string::npos);
  }
}

TEST_P(Smoke, SaturatedPhaseRepeatsExactlyAtOneSeed) {
  RunOptions o;
  o.workload = GetParam();
  o.seed = 5;
  o.seconds = 1.0;
  o.tiny = true;
  const RunReport first = RunBenchmark(o);
  const RunReport second = RunBenchmark(o);
  const auto determinism = [](const RunReport& r) {
    for (const std::string& line : r.lines) {
      if (line.rfind("determinism", 0) == 0) return line;
    }
    return std::string();
  };
  EXPECT_FALSE(determinism(first).empty());
  EXPECT_EQ(determinism(first), determinism(second));
}

INSTANTIATE_TEST_SUITE_P(Workloads, Smoke,
                         ::testing::ValuesIn(WorkloadNames()));

}  // namespace
}  // namespace perfbench
