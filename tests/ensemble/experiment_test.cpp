// Tests for the evaluation harness (ensemble/experiment.h) — the machinery
// that regenerates the paper's Fig. 6 series.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <utility>

#include "apps/common.h"
#include "ensemble/experiment.h"
#include "gpusim/device_spec.h"
#include "support/str.h"

namespace dgc::ensemble {
namespace {

/// A measured point; `cycles` stays 0 where a test does not read it.
SpeedupPoint RanPoint(std::uint32_t instances, double speedup,
                      std::uint64_t cycles = 0) {
  SpeedupPoint p;
  p.instances = instances;
  p.ran = true;
  p.cycles = cycles;
  p.speedup = speedup;
  return p;
}

/// A skipped point and its reason.
SpeedupPoint SkippedPoint(std::uint32_t instances, std::string note) {
  SpeedupPoint p;
  p.instances = instances;
  p.note = std::move(note);
  return p;
}

class ExperimentTest : public testing::Test {
 protected:
  static void SetUpTestSuite() { apps::RegisterAllApps(); }

  static ExperimentConfig SmallConfig() {
    ExperimentConfig cfg;
    cfg.app = "rsbench";
    cfg.args_for_instance = [](std::uint32_t i) {
      return std::vector<std::string>{"-u", "6", "-w", "4", "-l", "64",
                                      "-s", StrFormat("%u", i + 1)};
    };
    cfg.instance_counts = {1, 2, 4};
    cfg.thread_limit = 32;
    cfg.spec = sim::DeviceSpec::TestDevice();
    return cfg;
  }
};

TEST_F(ExperimentTest, MeasuresAllPoints) {
  auto series = MeasureSpeedup(SmallConfig());
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  ASSERT_EQ(series->points.size(), 3u);
  EXPECT_DOUBLE_EQ(series->points[0].speedup, 1.0);
  for (const auto& p : series->points) {
    EXPECT_TRUE(p.ran);
    EXPECT_GT(p.cycles, 0u);
    EXPECT_GT(p.speedup, 0.0);
    // Near-sub-linear: instances run DIFFERENT seeds, so TN is bounded by
    // the slowest instance, not instance 0's T1 — allow a small excess.
    EXPECT_LE(p.speedup, double(p.instances) * 1.05);
  }
  EXPECT_EQ(series->app, "rsbench");
  EXPECT_EQ(series->thread_limit, 32u);
}

TEST_F(ExperimentTest, SpeedupFormulaIsT1TimesNOverTN) {
  auto series = MeasureSpeedup(SmallConfig());
  ASSERT_TRUE(series.ok());
  const double t1 = double(series->points[0].cycles);
  for (const auto& p : series->points) {
    EXPECT_NEAR(p.speedup, t1 * p.instances / double(p.cycles), 1e-9);
  }
}

TEST_F(ExperimentTest, DeterministicAcrossInvocations) {
  auto a = MeasureSpeedup(SmallConfig());
  auto b = MeasureSpeedup(SmallConfig());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (std::size_t i = 0; i < a->points.size(); ++i) {
    EXPECT_EQ(a->points[i].cycles, b->points[i].cycles);
  }
}

// The tentpole guarantee: a parallel sweep renders byte-identically to the
// serial one — points land in declaration order, speedups are resolved in
// the final sequential pass.
TEST_F(ExperimentTest, ParallelSweepOutputIsByteIdenticalToSerial) {
  // Two series, including one with a not-ran (OOM) tail, so reassembly,
  // baseline resolution, and skip handling are all exercised.
  ExperimentConfig oom = SmallConfig();
  oom.app = "pagerank";
  oom.args_for_instance = [](std::uint32_t i) {
    return std::vector<std::string>{"-g", "150000", "-d", "12",
                                    "-s", StrFormat("%u", i + 1)};
  };
  oom.instance_counts = {1, 2, 8};
  const std::vector<ExperimentConfig> configs{SmallConfig(), oom};

  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions parallel;
  parallel.jobs = 8;
  auto a = RunSweeps(configs, serial);
  auto b = RunSweeps(configs, parallel);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(FormatSpeedupCsv(*a), FormatSpeedupCsv(*b));
  EXPECT_EQ(FormatSpeedupTable(*a), FormatSpeedupTable(*b));
}

TEST_F(ExperimentTest, ProgressEventsCoverEveryPoint) {
  SweepOptions options;
  options.jobs = 4;
  std::size_t started = 0, finished = 0, max_total = 0;
  bool monotone = true;
  std::size_t last_started = 0, last_finished = 0;
  options.progress = [&](const SweepPointEvent& e) {
    // Serialized by the runner, so plain counters are safe here.
    if (e.kind == SweepPointEvent::Kind::kStarted) ++started;
    else ++finished;
    if (e.points_started < last_started || e.points_finished < last_finished) {
      monotone = false;
    }
    last_started = e.points_started;
    last_finished = e.points_finished;
    max_total = std::max(max_total, e.points_total);
    if (e.kind == SweepPointEvent::Kind::kFinished && e.ran) {
      EXPECT_GE(e.wall_seconds, 0.0);
    }
  };
  auto series = MeasureSpeedup(SmallConfig(), options);
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(started, 3u);
  EXPECT_EQ(finished, 3u);
  EXPECT_EQ(max_total, 3u);
  EXPECT_TRUE(monotone);
}

// Regression: a series whose 1-instance baseline cannot run must not
// report speedups at all — T1 = 0 would silently render every later point
// as speedup 0.000000 in the figure.
TEST_F(ExperimentTest, BaselineOomMarksWholeSeriesNotRan) {
  ExperimentConfig cfg = SmallConfig();
  cfg.app = "pagerank";
  // One instance alone exceeds the 64 MiB test device.
  cfg.args_for_instance = [](std::uint32_t i) {
    return std::vector<std::string>{"-g", "1500000", "-d", "12",
                                    "-s", StrFormat("%u", i + 1)};
  };
  cfg.instance_counts = {1, 2};
  auto series = MeasureSpeedup(cfg);
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  ASSERT_EQ(series->points.size(), 2u);
  for (const auto& p : series->points) {
    EXPECT_FALSE(p.ran);
    EXPECT_EQ(p.speedup, 0.0);
  }
  EXPECT_NE(series->points[0].note.find("memory"), std::string::npos);
  EXPECT_NE(series->points[1].note.find("baseline"), std::string::npos);
  // And the CSV renders absences, not zero measurements.
  const std::string csv = FormatSpeedupCsv({*series});
  EXPECT_EQ(csv.find("0.000000"), std::string::npos);
}

TEST_F(ExperimentTest, RunSweepsPreservesConfigOrder) {
  ExperimentConfig second = SmallConfig();
  second.thread_limit = 16;
  auto all = RunSweeps({SmallConfig(), second});
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 2u);
  EXPECT_EQ((*all)[0].thread_limit, 32u);
  EXPECT_EQ((*all)[1].thread_limit, 16u);
}

TEST_F(ExperimentTest, RunSweepsRejectsEmptyConfigList) {
  EXPECT_FALSE(RunSweeps({}).ok());
}

TEST_F(ExperimentTest, OomConfigurationsAreSkippedNotFatal) {
  ExperimentConfig cfg = SmallConfig();
  cfg.app = "pagerank";
  // 64 MiB test device; each instance ~11 MiB → 8 instances cannot fit.
  cfg.args_for_instance = [](std::uint32_t i) {
    return std::vector<std::string>{"-g", "150000", "-d", "12",
                                    "-s", StrFormat("%u", i + 1)};
  };
  cfg.instance_counts = {1, 2, 8};
  auto series = MeasureSpeedup(cfg);
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  EXPECT_TRUE(series->points[0].ran);
  EXPECT_TRUE(series->points[1].ran);
  EXPECT_FALSE(series->points[2].ran);
  EXPECT_NE(series->points[2].note.find("memory"), std::string::npos);
}

TEST_F(ExperimentTest, RequiresLeadingOne) {
  ExperimentConfig cfg = SmallConfig();
  cfg.instance_counts = {2, 4};
  EXPECT_FALSE(MeasureSpeedup(cfg).ok());
  cfg.instance_counts = {};
  EXPECT_FALSE(MeasureSpeedup(cfg).ok());
}

TEST_F(ExperimentTest, RequiresArgsBuilder) {
  ExperimentConfig cfg = SmallConfig();
  cfg.args_for_instance = nullptr;
  EXPECT_FALSE(MeasureSpeedup(cfg).ok());
}

TEST_F(ExperimentTest, UnknownAppPropagates) {
  ExperimentConfig cfg = SmallConfig();
  cfg.app = "ghost";
  auto series = MeasureSpeedup(cfg);
  ASSERT_FALSE(series.ok());
  EXPECT_EQ(series.status().code(), ErrorCode::kNotFound);
}

TEST_F(ExperimentTest, MaxSpeedupPicksLargestRanPoint) {
  SpeedupSeries s;
  s.points.push_back(RanPoint(1, 1.0));
  s.points.push_back(RanPoint(2, 1.8));
  s.points.push_back(SkippedPoint(4, ""));
  EXPECT_DOUBLE_EQ(s.MaxSpeedup(), 1.8);
}

TEST_F(ExperimentTest, TableFormatsLinearRowAndSkips) {
  SpeedupSeries s;
  s.app = "demo";
  s.points.push_back(RanPoint(1, 1.0));
  s.points.push_back(SkippedPoint(2, "oom"));
  const std::string table = FormatSpeedupTable({s});
  EXPECT_NE(table.find("Linear"), std::string::npos);
  EXPECT_NE(table.find("demo"), std::string::npos);
  EXPECT_NE(table.find("-"), std::string::npos);  // the skipped point
  EXPECT_EQ(FormatSpeedupTable({}), "(no series)\n");
}

TEST_F(ExperimentTest, MultiDimMappingConfigRuns) {
  ExperimentConfig cfg = SmallConfig();
  cfg.thread_limit = 16;
  cfg.teams_per_block = 2;
  auto series = MeasureSpeedup(cfg);
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  for (const auto& p : series->points) EXPECT_TRUE(p.ran);
}

}  // namespace
}  // namespace dgc::ensemble

namespace dgc::ensemble {
namespace {

TEST(SpeedupCsv, FormatsHeaderAndRows) {
  SpeedupSeries s;
  s.app = "demo";
  s.thread_limit = 32;
  s.points.push_back(RanPoint(1, 1.0, 100));
  s.points.push_back(SkippedPoint(8, "oom"));
  const std::string csv = FormatSpeedupCsv({s});
  EXPECT_NE(csv.find("benchmark,thread_limit,instances,ran,cycles,speedup"),
            std::string::npos);
  EXPECT_NE(csv.find("demo,32,1,1,100,1.000000"), std::string::npos);
  EXPECT_NE(csv.find("demo,32,8,0,,"), std::string::npos);
}

// Regression: a skipped point must never render as cycles=0,speedup=0 —
// plotting scripts ingest those as real measured zeros.
TEST(SpeedupCsv, NotRanRowsHaveEmptyFieldsNotZeros) {
  SpeedupSeries s;
  s.app = "demo";
  s.thread_limit = 1024;
  s.points.push_back(SkippedPoint(8, "oom"));
  const std::string csv = FormatSpeedupCsv({s});
  EXPECT_NE(csv.find("demo,1024,8,0,,\n"), std::string::npos);
  EXPECT_EQ(csv.find(",0,0,"), std::string::npos);
  EXPECT_EQ(csv.find("0.000000"), std::string::npos);
}

TEST(SpeedupCsv, WritesAndReadsBack) {
  SpeedupSeries s;
  s.app = "demo";
  s.thread_limit = 1024;
  s.points.push_back(RanPoint(2, 1.9, 7));
  const std::string path = testing::TempDir() + "/dgc_csv_test.csv";
  ASSERT_TRUE(WriteSpeedupCsv({s}, path).ok());
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, FormatSpeedupCsv({s}));
  std::remove(path.c_str());
}

TEST(SpeedupCsv, BadPathFails) {
  EXPECT_FALSE(WriteSpeedupCsv({}, "/nonexistent/dir/x.csv").ok());
}

}  // namespace
}  // namespace dgc::ensemble
