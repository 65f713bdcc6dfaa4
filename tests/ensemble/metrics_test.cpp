// The --metrics-json document (ensemble/metrics.h): validity, determinism,
// escaping, and a golden document that pins a whole dgc-metrics-v1 file.
#include "ensemble/metrics.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "dgcf/libc.h"
#include "dgcf/rpc.h"
#include "ensemble/loader.h"
#include "gpusim/device.h"
#include "gpusim/profiler.h"
#include "golden.h"
#include "ompx/team.h"
#include "support/json.h"
#include "support/str.h"

namespace dgc::ensemble {
namespace {

using dgcf::AppEnv;
using dgcf::DeviceArgv;
using dgcf::DeviceLibc;
using ompx::TeamCtx;
using sim::Device;
using sim::DeviceSpec;
using sim::DeviceTask;
using sim::ThreadCtx;

struct Env {
  Device device{DeviceSpec::TestDevice()};
  dgcf::RpcHost rpc{device};
  DeviceLibc libc{device};
  AppEnv app_env{&device, &rpc, &libc};
};

// Small deterministic app with memory traffic and a parallel region, so
// every counter family in the document is exercised.
DeviceTask<int> MetricsProbeMain(AppEnv& env, TeamCtx& team, int argc,
                                 DeviceArgv argv) {
  std::uint64_t size = 64;
  if (argc > 1) {
    size = std::uint64_t(
        std::strtoll(DeviceLibc::ToString(argv[1]).c_str(), nullptr, 10));
  }
  auto buf = co_await env.libc->Malloc(*team.hw, size * sizeof(std::uint64_t));
  if (buf.host == nullptr) co_return dgcf::kExitNoMem;
  auto p = buf.Typed<std::uint64_t>();
  co_await ompx::ParallelFor(
      team, size, [&](ThreadCtx& ctx, std::uint64_t i) -> DeviceTask<void> {
        co_await ctx.Store(p + i, i);
        co_await ctx.Work(8);
      });
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < size; ++i) {
    sum += co_await team.hw->Load(p + i);
  }
  co_await env.libc->Free(*team.hw, buf.addr);
  co_return sum == size * (size - 1) / 2 ? 0 : 9;
}

DGC_REGISTER_APP(metrics_probe, "metrics export probe", MetricsProbeMain)

struct ProfiledRun {
  dgcf::RunResult run;
  sim::Profiler profiler{sim::Profiler::Options{.sample_interval = 64}};
};

ProfiledRun RunProbe(std::uint32_t instances) {
  Env env;
  EnsembleOptions opt;
  opt.app = "metrics_probe";
  for (std::uint32_t i = 0; i < instances; ++i) {
    opt.instance_args.push_back({StrFormat("%u", 64 + 8 * i)});
  }
  opt.thread_limit = 32;
  ProfiledRun out;
  opt.profiler = &out.profiler;
  auto run = RunEnsemble(env.app_env, opt);
  DGC_CHECK(run.ok());
  out.run = std::move(*run);
  return out;
}

/// The probe's header fields; the document names the device "TEST".
EnsembleOptions ProbeInfo() {
  EnsembleOptions info;
  info.app = "metrics_probe";
  info.thread_limit = 32;
  return info;
}
const std::string kProbeDevice = "TEST";

TEST(Metrics, DocumentIsValidJson) {
  ProfiledRun pr = RunProbe(2);
  const std::string json =
      FormatMetricsJson(ProbeInfo(), kProbeDevice, pr.run, &pr.profiler);
  const Status valid = JsonValidate(json);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_NE(json.find("\"schema\": \"dgc-metrics-v1\""), std::string::npos);
}

TEST(Metrics, UnprofiledDocumentDegradesAndStaysValid) {
  ProfiledRun pr = RunProbe(1);
  const std::string json =
      FormatMetricsJson(ProbeInfo(), kProbeDevice, pr.run, nullptr);
  EXPECT_TRUE(JsonValidate(json).ok());
  EXPECT_NE(json.find("\"timeline\": null"), std::string::npos);
}

TEST(Metrics, IdenticalRunsSerializeByteIdentically) {
  // The sweep contract: the sidecar for a point must not depend on when or
  // where the point ran, only on its configuration.
  ProfiledRun a = RunProbe(2);
  ProfiledRun b = RunProbe(2);
  EXPECT_EQ(FormatMetricsJson(ProbeInfo(), kProbeDevice, a.run, &a.profiler),
            FormatMetricsJson(ProbeInfo(), kProbeDevice, b.run, &b.profiler));
}

TEST(Metrics, HeaderStringsAreEscaped) {
  ProfiledRun pr = RunProbe(1);
  EnsembleOptions info = ProbeInfo();
  info.app = "weird \"name\"\nwith\\controls";
  const std::string json =
      FormatMetricsJson(info, kProbeDevice, pr.run, &pr.profiler);
  const Status valid = JsonValidate(json);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_NE(json.find("weird \\\"name\\\"\\nwith\\\\controls"),
            std::string::npos);
}

TEST(Metrics, PerInstanceSectionMatchesAttribution) {
  ProfiledRun pr = RunProbe(3);
  ASSERT_EQ(pr.run.instances.size(), 3u);
  ASSERT_EQ(pr.run.instance_stats.size(), 4u);  // unattributed + 3
  const std::string json =
      FormatMetricsJson(ProbeInfo(), kProbeDevice, pr.run, &pr.profiler);
  // Instance 1's serialized elapsed_cycles is its attributed counter, not
  // the launch-global one.
  const std::string expect = StrFormat(
      "\"instance\": 1,\n      \"completed\": true,\n      \"exit_code\": 0,\n"
      "      \"reason\": \"returned\",\n      \"attempts\": 1,\n"
      "      \"mem_peak_bytes\": %llu,\n      \"mem_allocations\": %llu,\n"
      "      \"elapsed_cycles\": %llu,",
      (unsigned long long)pr.run.instances[1].mem_peak_bytes,
      (unsigned long long)pr.run.instances[1].mem_allocations,
      (unsigned long long)pr.run.instance_stats[2].stats.elapsed_cycles);
  EXPECT_NE(json.find(expect), std::string::npos) << json.substr(0, 2000);
}

/// Three probe instances, two teams per block (the second block's padding
/// row is unattributed work), and an injected trap on instance 0's warp
/// that a second wave retries.
dgcf::RunResult RunRetryProbe(sim::Profiler* profiler) {
  Env env;
  EnsembleOptions opt;
  opt.app = "metrics_probe";
  for (std::uint32_t i = 0; i < 3; ++i) {
    opt.instance_args.push_back({StrFormat("%u", 64 + 8 * i)});
  }
  opt.thread_limit = 32;
  opt.teams_per_block = 2;
  opt.max_attempts = 2;
  sim::FaultPlan plan;
  plan.AddTrap(/*block=*/0, /*warp=*/0, /*cycle=*/200);
  opt.faults = &plan;
  opt.profiler = profiler;
  auto run = RunEnsemble(env.app_env, opt);
  DGC_CHECK(run.ok());
  return std::move(*run);
}

TEST(Metrics, FullDocumentMatchesPinnedDigest) {
  // Pins the whole dgc-metrics-v1 document: every key, the nesting and the
  // field order, and every value (per-instance counters, the unattributed
  // bucket, each instance's mem_peak_bytes and elapsed_cycles).
  sim::Profiler profiler(sim::Profiler::Options{.sample_interval = 64});
  const dgcf::RunResult run = RunRetryProbe(&profiler);
  ASSERT_EQ(run.waves, 2u);
  ASSERT_EQ(run.instances[0].attempts, 2u);
  ASSERT_TRUE(run.all_ok());

  EnsembleOptions info = ProbeInfo();
  info.teams_per_block = 2;
  ExpectGolden(FormatMetricsJson(info, kProbeDevice, run, &profiler),
               "metrics_retry_probe.json");
}

TEST(Metrics, UnprofiledRunAttributesPerInstance) {
  // Attribution does not depend on the profiler: the per-instance counters
  // of a plain run equal the profiled run's, field by field.
  sim::Profiler profiler;
  const dgcf::RunResult profiled = RunRetryProbe(&profiler);
  const dgcf::RunResult plain = RunRetryProbe(nullptr);
  ASSERT_EQ(plain.waves, 2u);
  ASSERT_EQ(plain.instance_stats.size(), 4u);  // unattributed + 3
  ASSERT_EQ(profiled.instance_stats.size(), 4u);
  for (std::size_t b = 0; b < plain.instance_stats.size(); ++b) {
    EXPECT_EQ(plain.instance_stats[b].instance, std::int32_t(b) - 1);
    EXPECT_EQ(plain.instance_stats[b].stats, profiled.instance_stats[b].stats)
        << "bucket " << b;
  }
  EXPECT_GT(plain.instance_stats[0].stats.warp_instructions, 0u);
  // Each instance's elapsed_cycles is its end-to-end time over both waves.
  for (std::size_t i = 0; i < plain.instances.size(); ++i) {
    EXPECT_GT(plain.instance_stats[i + 1].stats.warp_instructions, 0u);
    EXPECT_EQ(plain.instance_stats[i + 1].stats.elapsed_cycles,
              plain.instances[i].cycles);
  }
}

}  // namespace
}  // namespace dgc::ensemble
