// Hardware description of the simulated GPU.
//
// All timing constants live here so that benchmarks can sweep them (the
// bandwidth ablation) and tests can build tiny, fast devices. The default
// preset mirrors the paper's testbed, an NVIDIA A100-SXM4-40GB.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "support/status.h"
#include "support/units.h"

namespace dgc::sim {

struct DeviceSpec {
  std::string name = "generic";

  // --- Execution resources -------------------------------------------------
  int num_sms = 8;                ///< streaming multiprocessors
  int warp_size = 32;             ///< lanes per warp (fixed by the ISA model)
  int max_threads_per_block = 1024;
  int max_blocks_per_sm = 32;     ///< resident thread-block slots per SM
  int max_warps_per_sm = 64;      ///< resident warp contexts per SM
  int issue_pipes_per_sm = 4;     ///< warp instructions issued concurrently
  double clock_ghz = 1.41;        ///< SM clock, used to convert cycles→time

  // --- Memory sizes ---------------------------------------------------------
  std::uint64_t global_memory_bytes = 4 * kGiB;
  std::uint32_t shared_memory_per_block = 48 * kKiB;

  // --- Memory hierarchy timing (cycles / bytes) -----------------------------
  std::uint32_t sector_bytes = 32;      ///< coalescing + cache granularity
  std::uint32_t l1_bytes = 128 * kKiB;  ///< per SM
  std::uint32_t l1_ways = 4;
  std::uint32_t l1_latency = 28;
  std::uint32_t l2_bytes = 40 * kMiB;   ///< shared
  std::uint32_t l2_ways = 16;
  std::uint32_t l2_latency = 200;
  /// L2 service bandwidth in bytes per cycle (all SMs combined).
  double l2_bytes_per_cycle = 4096.0;

  // --- DRAM ------------------------------------------------------------------
  std::uint32_t dram_latency = 400;        ///< row-hit access latency, cycles
  std::uint32_t dram_row_miss_penalty = 180;///< extra cycles on row activation
  double dram_bytes_per_cycle = 1100.0;    ///< ~1555 GB/s at 1.41 GHz
  std::uint32_t dram_channels = 16;        ///< independently-timed channels
  std::uint32_t dram_banks_per_channel = 8;///< open rows per channel
  std::uint32_t dram_row_bytes = 1024;     ///< row-buffer coverage per bank

  // --- Warp issue ---------------------------------------------------------
  /// Cycles between serialized issue groups of one warp turn (divergence).
  std::uint32_t issue_cycles = 4;
  /// Extra cycles per additional lane in an atomic group.
  std::uint32_t atomic_serialization_cycles = 4;

  // --- Shared memory ----------------------------------------------------------
  std::uint32_t smem_latency = 20;   ///< conflict-free access, cycles
  std::uint32_t smem_banks = 32;     ///< 4-byte banks

  // --- Host link (PCIe) -------------------------------------------------------
  double pcie_bytes_per_cycle = 18.0;     ///< ~25 GB/s at 1.41 GHz
  std::uint32_t pcie_latency_cycles = 2000;
  std::uint32_t kernel_launch_overhead = 8000;  ///< host→device launch, cycles
  std::uint32_t rpc_roundtrip_cycles = 30000;   ///< device→host RPC service

  // --- Presets ----------------------------------------------------------------
  /// The paper's testbed: A100-SXM4-40GB. Memory capacity is scaled down by
  /// `memory_scale` so that workloads (scaled by the same factor in the
  /// figure harness) remain host-backable; timing constants are unscaled.
  static DeviceSpec A100_40GB(std::uint32_t memory_scale = 64);
  /// A V100-like part: fewer SMs, less bandwidth. Used by ablations.
  static DeviceSpec V100_16GB(std::uint32_t memory_scale = 64);
  /// Tiny device for unit tests: 2 SMs, small caches, fast to simulate.
  static DeviceSpec TestDevice();
  /// The preset a front end names on its command line: "a100", "v100" or
  /// "test" (which ignores the scale); `memory_scale` must be >= 1.
  /// kInvalidArgument for an unknown name.
  static StatusOr<DeviceSpec> FromName(std::string_view name,
                                       std::uint32_t memory_scale);

  /// Warps needed for `threads` threads.
  int WarpsPerBlock(int threads) const {
    return (threads + warp_size - 1) / warp_size;
  }

  /// Converts cycles to seconds at the SM clock.
  double CyclesToSeconds(std::uint64_t cycles) const {
    return double(cycles) / (clock_ghz * 1e9);
  }

  /// Default launch watchdog budget: 10 simulated seconds at the SM clock.
  /// Generous enough that any workload the simulator can practically
  /// execute finishes well inside it, while an instance spinning forever is
  /// retired deterministically instead of hanging the sweep.
  std::uint64_t DefaultWatchdogCycles() const {
    return std::uint64_t(clock_ghz * 1e9) * 10;
  }

  /// Sanity-checks internal consistency (positive sizes, powers of two
  /// where required). Returns a human-readable problem list ("" if OK).
  std::string Validate() const;
};

}  // namespace dgc::sim
