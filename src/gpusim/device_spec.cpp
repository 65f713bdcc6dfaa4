#include "gpusim/device_spec.h"

#include "support/str.h"

namespace dgc::sim {

namespace {
// Caches shrink with the workload scale so that the capacity *ratios* of
// the real machine are preserved: a working set that does not fit the real
// L2 must not fit the scaled L2 either, or scaled runs would enjoy cache
// residency the paper's GB-scale datasets never had. Floors keep the
// models structurally sane (a few sets per SM at minimum).
std::uint32_t ScaledCache(std::uint64_t real_bytes, std::uint32_t scale,
                          std::uint32_t floor_bytes) {
  return std::uint32_t(std::max<std::uint64_t>(real_bytes / scale, floor_bytes));
}
}  // namespace

DeviceSpec DeviceSpec::A100_40GB(std::uint32_t memory_scale) {
  DeviceSpec s;
  s.name = StrFormat("A100-SXM4-40GB (capacity 1/%u)", memory_scale);
  s.num_sms = 108;
  s.max_blocks_per_sm = 32;
  s.max_warps_per_sm = 64;
  s.issue_pipes_per_sm = 4;
  s.clock_ghz = 1.41;
  s.global_memory_bytes = 40 * kGiB / memory_scale;
  s.shared_memory_per_block = 48 * kKiB;
  s.l1_bytes = ScaledCache(128 * kKiB, memory_scale, 4 * kKiB);
  s.l2_bytes = ScaledCache(40 * kMiB, memory_scale, 64 * kKiB);
  s.dram_bytes_per_cycle = 1100.0;  // ~1555 GB/s
  return s;
}

DeviceSpec DeviceSpec::V100_16GB(std::uint32_t memory_scale) {
  DeviceSpec s;
  s.name = StrFormat("V100-SXM2-16GB (capacity 1/%u)", memory_scale);
  s.num_sms = 80;
  s.max_blocks_per_sm = 32;
  s.max_warps_per_sm = 64;
  s.issue_pipes_per_sm = 4;
  s.clock_ghz = 1.53;
  s.global_memory_bytes = 16 * kGiB / memory_scale;
  s.l1_bytes = ScaledCache(96 * kKiB, memory_scale, 4 * kKiB);
  s.l2_bytes = ScaledCache(6 * kMiB, memory_scale, 64 * kKiB);
  s.dram_bytes_per_cycle = 588.0;  // ~900 GB/s
  return s;
}

DeviceSpec DeviceSpec::TestDevice() {
  DeviceSpec s;
  s.name = "test-device";
  s.num_sms = 2;
  s.max_blocks_per_sm = 4;
  s.max_warps_per_sm = 16;
  s.issue_pipes_per_sm = 2;
  s.global_memory_bytes = 64 * kMiB;
  s.l1_bytes = 8 * kKiB;
  s.l2_bytes = 64 * kKiB;
  s.l2_latency = 60;
  s.dram_latency = 150;
  s.dram_bytes_per_cycle = 64.0;
  s.kernel_launch_overhead = 100;
  s.pcie_latency_cycles = 50;
  s.rpc_roundtrip_cycles = 500;
  return s;
}

StatusOr<DeviceSpec> DeviceSpec::FromName(std::string_view name,
                                          std::uint32_t memory_scale) {
  if (name == "a100") return A100_40GB(memory_scale);
  if (name == "v100") return V100_16GB(memory_scale);
  if (name == "test") return TestDevice();
  return Status(ErrorCode::kInvalidArgument, "unknown device '" +
                                                 std::string(name) +
                                                 "' (a100, v100, test)");
}

namespace {
bool IsPow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

std::string DeviceSpec::Validate() const {
  std::string problems;
  auto require = [&](bool ok, const char* what) {
    if (!ok) {
      problems += what;
      problems += "; ";
    }
  };
  require(num_sms > 0, "num_sms must be positive");
  require(warp_size > 0 && IsPow2(std::uint64_t(warp_size)),
          "warp_size must be a power of two");
  require(max_threads_per_block >= warp_size,
          "max_threads_per_block must hold at least one warp");
  require(max_blocks_per_sm > 0, "max_blocks_per_sm must be positive");
  require(max_warps_per_sm > 0, "max_warps_per_sm must be positive");
  require(issue_pipes_per_sm > 0, "issue_pipes_per_sm must be positive");
  require(clock_ghz > 0, "clock must be positive");
  require(IsPow2(sector_bytes), "sector_bytes must be a power of two");
  require(l1_ways > 0 && l2_ways > 0, "cache associativity must be positive");
  require(l1_bytes % (sector_bytes * l1_ways) == 0,
          "l1 must divide into ways of sectors");
  require(l2_bytes % (sector_bytes * l2_ways) == 0,
          "l2 must divide into ways of sectors");
  require(dram_bytes_per_cycle > 0, "dram bandwidth must be positive");
  require(dram_channels > 0, "dram_channels must be positive");
  require(dram_banks_per_channel > 0, "dram_banks_per_channel must be positive");
  require(IsPow2(dram_row_bytes), "dram_row_bytes must be a power of two");
  require(smem_banks > 0, "smem_banks must be positive");
  require(pcie_bytes_per_cycle > 0, "pcie bandwidth must be positive");
  if (!problems.empty()) problems.resize(problems.size() - 2);
  return problems;
}

}  // namespace dgc::sim
