// The --metrics-json document (ensemble/metrics.h): validity, determinism,
// escaping, and a golden-file lock on the dgc-metrics-v1 schema shape.
#include "ensemble/metrics.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "dgcf/libc.h"
#include "dgcf/rpc.h"
#include "ensemble/loader.h"
#include "gpusim/device.h"
#include "gpusim/profiler.h"
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

MetricsInfo ProbeInfo(std::uint32_t instances) {
  MetricsInfo info;
  info.app = "metrics_probe";
  info.device = "TEST";
  info.thread_limit = 32;
  info.instances = instances;
  return info;
}

TEST(Metrics, DocumentIsValidJson) {
  ProfiledRun pr = RunProbe(2);
  const std::string json =
      FormatMetricsJson(ProbeInfo(2), pr.run, &pr.profiler);
  const Status valid = JsonValidate(json);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_NE(json.find("\"schema\": \"dgc-metrics-v1\""), std::string::npos);
}

TEST(Metrics, UnprofiledDocumentDegradesAndStaysValid) {
  ProfiledRun pr = RunProbe(1);
  const std::string json = FormatMetricsJson(ProbeInfo(1), pr.run, nullptr);
  EXPECT_TRUE(JsonValidate(json).ok());
  EXPECT_NE(json.find("\"timeline\": null"), std::string::npos);
}

TEST(Metrics, IdenticalRunsSerializeByteIdentically) {
  // The sweep contract: the sidecar for a point must not depend on when or
  // where the point ran, only on its configuration.
  ProfiledRun a = RunProbe(2);
  ProfiledRun b = RunProbe(2);
  EXPECT_EQ(FormatMetricsJson(ProbeInfo(2), a.run, &a.profiler),
            FormatMetricsJson(ProbeInfo(2), b.run, &b.profiler));
}

TEST(Metrics, HeaderStringsAreEscaped) {
  ProfiledRun pr = RunProbe(1);
  MetricsInfo info = ProbeInfo(1);
  info.app = "weird \"name\"\nwith\\controls";
  const std::string json = FormatMetricsJson(info, pr.run, &pr.profiler);
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
      FormatMetricsJson(ProbeInfo(3), pr.run, &pr.profiler);
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

/// FNV-1a (64-bit) of a whole document.
std::uint64_t Fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
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
  // Pins every value, not just the shape GoldenSchemaShape locks: per-
  // instance counters, the unattributed bucket, each instance's
  // mem_peak_bytes (the allocation owner) and elapsed_cycles.
  sim::Profiler profiler(sim::Profiler::Options{.sample_interval = 64});
  const dgcf::RunResult run = RunRetryProbe(&profiler);
  ASSERT_EQ(run.waves, 2u);
  ASSERT_EQ(run.instances[0].attempts, 2u);
  ASSERT_TRUE(run.all_ok());

  MetricsInfo info = ProbeInfo(3);
  info.teams_per_block = 2;
  const std::string json = FormatMetricsJson(info, run, &profiler);
  EXPECT_EQ(Fnv1a(json), 0x0a6ae6e8b96c607fULL)
      << "digest 0x" << std::hex << Fnv1a(json) << "\n" << json;
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

// --- Golden schema test ----------------------------------------------------
//
// Locks the document SHAPE (keys, nesting, field order), not the values:
// numbers become '#', booleans '?', and the per_instance/samples arrays are
// collapsed to their first element. Regenerate after an intentional schema
// change with: DGC_REGEN_GOLDEN=1 ./test_ensemble --gtest_filter='*Golden*'

/// Replaces every number token outside strings with '#' and booleans
/// with '?'. null is kept: it is schema-relevant (degraded sections).
std::string NormalizeScalars(const std::string& json) {
  std::string out;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      out += c;
      if (c == '\\' && i + 1 < json.size()) out += json[++i];
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') {
      in_string = true;
      out += c;
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      while (i + 1 < json.size() &&
             (std::isdigit((unsigned char)json[i + 1]) || json[i + 1] == '.' ||
              json[i + 1] == 'e' || json[i + 1] == 'E' || json[i + 1] == '+' ||
              json[i + 1] == '-')) {
        ++i;
      }
      out += '#';
    } else if (json.compare(i, 4, "true") == 0) {
      out += '?';
      i += 3;
    } else if (json.compare(i, 5, "false") == 0) {
      out += '?';
      i += 4;
    } else {
      out += c;
    }
  }
  return out;
}

/// Collapses the array value of `key` to its first element (the schema of
/// element N is the schema of element 0).
std::string CollapseArray(const std::string& json, const std::string& key) {
  const std::size_t open = json.find("\"" + key + "\": [");
  if (open == std::string::npos) return json;
  const std::size_t start = json.find('[', open);
  int depth = 0;
  std::size_t first_end = std::string::npos, close = std::string::npos;
  for (std::size_t i = start; i < json.size(); ++i) {
    if (json[i] == '[' || json[i] == '{') ++depth;
    if (json[i] == ']' || json[i] == '}') {
      --depth;
      if (depth == 1 && first_end == std::string::npos) first_end = i + 1;
      if (depth == 0) {
        close = i;
        break;
      }
    }
  }
  if (close == std::string::npos || first_end == std::string::npos) {
    return json;
  }
  return json.substr(0, first_end) + "\n  ]" + json.substr(close + 1);
}

TEST(Metrics, GoldenSchemaShape) {
  ProfiledRun pr = RunProbe(2);
  const std::string json =
      FormatMetricsJson(ProbeInfo(2), pr.run, &pr.profiler);
  std::string normalized = NormalizeScalars(json);
  normalized = CollapseArray(normalized, "per_instance");
  normalized = CollapseArray(normalized, "samples");

  const std::string path =
      std::string(DGC_TESTDATA_DIR) + "/metrics_schema.golden";
  if (std::getenv("DGC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(bool(out)) << "cannot write " << path;
    out << normalized;
    GTEST_SKIP() << "golden regenerated: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(bool(in)) << "missing golden file " << path
                        << " (regenerate with DGC_REGEN_GOLDEN=1)";
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(normalized, golden.str())
      << "dgc-metrics-v1 schema shape changed; if intentional, bump the "
         "schema version and regenerate with DGC_REGEN_GOLDEN=1";
}

}  // namespace
}  // namespace dgc::ensemble
