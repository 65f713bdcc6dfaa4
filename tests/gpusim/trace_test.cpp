#include "gpusim/trace.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>

#include "gpusim/ctx.h"
#include "gpusim/device.h"
#include "support/json.h"

namespace dgc::sim {
namespace {

LaunchResult RunTraced(Trace* trace) {
  Device dev(DeviceSpec::TestDevice());
  auto buf = *dev.Malloc(256 * sizeof(double));
  auto p = buf.Typed<double>();
  LaunchConfig cfg{.grid = {2, 1, 1}, .block = {64, 1, 1}, .trace = trace};
  auto r = dev.Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    const std::uint32_t gid = ctx.block_id * ctx.block_threads + ctx.thread_id;
    const double v = co_await ctx.Load(p + (gid % 256));
    co_await ctx.Work(25);
    co_await ctx.Store(p + (gid % 256), v + 1);
    co_await ctx.SyncThreads();
  });
  DGC_CHECK(r.ok());
  return *r;
}

TEST(Trace, RecordsEveryIssuedGroup) {
  Trace trace;
  const LaunchResult r = RunTraced(&trace);
  // Sync groups have no duration and are not traced; everything else is.
  EXPECT_LT(trace.events().size(), r.stats.warp_instructions);
  EXPECT_EQ(trace.events().size(), r.stats.load_instructions +
                                       r.stats.compute_instructions +
                                       r.stats.store_instructions);
  std::uint64_t loads = 0, works = 0, stores = 0;
  for (const TraceEvent& e : trace.events()) {
    EXPECT_LE(e.issue, e.complete);
    EXPECT_GT(e.lanes, 0u);
    EXPECT_LT(e.block, 2u);
    switch (e.kind) {
      case DeviceOp::Kind::kLoad: ++loads; break;
      case DeviceOp::Kind::kWork: ++works; break;
      case DeviceOp::Kind::kStore: ++stores; break;
      default: break;
    }
  }
  EXPECT_EQ(loads, r.stats.load_instructions);
  EXPECT_EQ(works, r.stats.compute_instructions);
  EXPECT_EQ(stores, r.stats.store_instructions);
}

TEST(Trace, MemoryEventsCarrySectors) {
  Trace trace;
  RunTraced(&trace);
  bool saw_mem_with_sectors = false;
  for (const TraceEvent& e : trace.events()) {
    if (e.kind == DeviceOp::Kind::kLoad && e.sectors > 0) {
      saw_mem_with_sectors = true;
    }
    if (e.kind == DeviceOp::Kind::kWork) {
      EXPECT_EQ(e.sectors, 0u);
    }
  }
  EXPECT_TRUE(saw_mem_with_sectors);
}

TEST(Trace, DisabledByDefaultCostsNothing) {
  // Same kernel without a sink: timing identical (tracing is observational).
  Trace trace;
  const auto traced = RunTraced(&trace).stats.elapsed_cycles;
  const auto plain = RunTraced(nullptr).stats.elapsed_cycles;
  EXPECT_EQ(traced, plain);
}

TEST(Trace, CapacityBoundsAndDropCounting) {
  Trace tiny(4);
  RunTraced(&tiny);
  EXPECT_EQ(tiny.events().size(), 4u);
  EXPECT_GT(tiny.dropped(), 0u);
  tiny.Clear();
  EXPECT_TRUE(tiny.events().empty());
  EXPECT_EQ(tiny.dropped(), 0u);
}

TEST(Trace, ChromeJsonIsWellFormedEnough) {
  Trace trace;
  RunTraced(&trace);
  const std::string json = trace.ToChromeJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find(R"("ph":"X")"), std::string::npos);
  EXPECT_NE(json.find(R"("name":"load")"), std::string::npos);
  EXPECT_NE(json.find(R"("name":"work")"), std::string::npos);
  // Events and commas balance: N events → N-1 commas at line ends.
  std::size_t events = 0, commas = 0;
  for (std::size_t i = 0; i + 1 < json.size(); ++i) {
    if (json[i] == '}' && json[i + 1] == ',') ++commas;
    if (json.compare(i, 9, R"({"name":")") == 0) ++events;
  }
  EXPECT_EQ(events, trace.events().size());
  EXPECT_EQ(commas, events - 1);
}

TEST(Trace, WriteChromeJsonRoundTrip) {
  Trace trace;
  RunTraced(&trace);
  const std::string path = testing::TempDir() + "/dgc_trace_test.json";
  ASSERT_TRUE(trace.WriteChromeJson(path).ok());
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, trace.ToChromeJson());
  std::remove(path.c_str());
  EXPECT_FALSE(trace.WriteChromeJson("/nonexistent/t.json").ok());
}

TEST(Trace, ChromeJsonIsStrictlyValid) {
  Trace trace;
  RunTraced(&trace);
  const std::string json = trace.ToChromeJson();
  const Status valid = dgc::JsonValidate(json);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  // Field order is part of the export contract (diffs stay readable).
  EXPECT_NE(
      json.find(R"("ph":"X","ts":)"), std::string::npos);
  const std::size_t name = json.find("\"name\":");
  const std::size_t args = json.find("\"args\":{\"wave\":");
  ASSERT_NE(name, std::string::npos);
  ASSERT_NE(args, std::string::npos);
  EXPECT_LT(name, args);
  // An empty trace is still a valid (empty-array) document.
  EXPECT_TRUE(dgc::JsonValidate(Trace().ToChromeJson()).ok());
}

TEST(Trace, WavesTagEventsAndSeparateRows) {
  Trace trace;
  RunTraced(&trace);
  EXPECT_EQ(trace.current_wave(), 0u);
  for (const TraceEvent& e : trace.events()) EXPECT_EQ(e.wave, 0u);
  const std::size_t wave0_events = trace.events().size();

  trace.BeginWave();  // what the ensemble loader does before a retry wave
  EXPECT_EQ(trace.current_wave(), 1u);
  RunTraced(&trace);
  ASSERT_GT(trace.events().size(), wave0_events);
  for (std::size_t i = wave0_events; i < trace.events().size(); ++i) {
    EXPECT_EQ(trace.events()[i].wave, 1u);
  }

  // Same block/warp, different wave → different Perfetto row (tid).
  const std::string json = trace.ToChromeJson();
  EXPECT_TRUE(dgc::JsonValidate(json).ok());
  EXPECT_NE(json.find(R"("tid":0,"args":{"wave":0,"block":0,"warp":0)"),
            std::string::npos);
  EXPECT_NE(json.find(R"("tid":1000000,"args":{"wave":1,"block":0,"warp":0)"),
            std::string::npos);

  trace.Clear();
  EXPECT_EQ(trace.current_wave(), 0u);
}

TEST(Trace, KindNamesAreDistinct) {
  std::set<std::string_view> names;
  for (DeviceOp::Kind k :
       {DeviceOp::Kind::kLoad, DeviceOp::Kind::kLoadBatch,
        DeviceOp::Kind::kStore, DeviceOp::Kind::kStoreBatch,
        DeviceOp::Kind::kAtomic, DeviceOp::Kind::kWork, DeviceOp::Kind::kSync,
        DeviceOp::Kind::kExternal}) {
    names.insert(TraceKindName(k));
  }
  EXPECT_EQ(names.size(), 8u);
}

}  // namespace
}  // namespace dgc::sim
