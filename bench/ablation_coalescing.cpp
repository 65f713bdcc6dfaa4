// Ablation for §4.3's coalescing observation: ensemble instances walk
// their own heap allocations, and access patterns that don't coalesce
// multiply the sector traffic the shared DRAM must carry.
//
// Part 1: strided vs contiguous streaming under bandwidth-bound load —
// stride s touches ~s× the sectors for the same elements.
// Part 2: heap-allocation alignment — gathers over buffers offset from the
// sector grid fetch an extra sector per batch (the "different heap
// allocations ... typically non-contiguous" cost, in its measurable form).
#include <cstdio>

#include "gpusim/ctx.h"
#include "gpusim/device.h"
#include "support/str.h"

using namespace dgc;
using namespace dgc::sim;

namespace {

struct Measured {
  std::uint64_t cycles;
  std::uint64_t sectors;
  double coalescing;
};

/// Bandwidth-bound streaming: each thread pulls
/// pipelined 32-element batches at the given stride.
Measured StreamKernel(Device& device, std::vector<DevicePtr<double>> bases,
                      std::uint32_t elements_per_block, std::uint32_t stride) {
  LaunchConfig cfg{.grid = {std::uint32_t(bases.size()), 1, 1},
                   .block = {256, 1, 1},
                   .name = "stream"};
  auto result = device.Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    auto p = bases[ctx.block_id];
    double acc = 0;
    constexpr std::uint32_t kChunk = 32;
    for (std::uint32_t i = ctx.thread_id * kChunk; i < elements_per_block;
         i += ctx.block_threads * kChunk) {
      auto g = ctx.Gather<double, kChunk>();
      for (std::uint32_t j = 0; j < kChunk; ++j) {
        g.Add(p + std::ptrdiff_t(i + j) * stride);
      }
      co_await g;
      for (std::uint32_t j = 0; j < kChunk; ++j) acc += g.Result(j);
    }
    (void)acc;
  });
  DGC_CHECK(result.ok());
  return {result->stats.elapsed_cycles, result->stats.global_sectors,
          result->stats.CoalescingEfficiency()};
}

}  // namespace

int main() {
  const std::uint32_t kBlocks = 16, kElements = 1 << 15;

  std::printf("Part 1 — strided streaming under bandwidth-bound load "
              "(%u blocks x 256 threads)\n", kBlocks);
  std::printf("%-10s %-12s %-12s %-12s %s\n", "stride", "cycles", "sectors",
              "coalescing", "slowdown");
  std::uint64_t base = 0;
  for (std::uint32_t stride : {1u, 2u, 4u, 8u}) {
    Device device(DeviceSpec::A100_40GB(512));
    std::vector<DevicePtr<double>> bases;
    for (std::uint32_t b = 0; b < kBlocks; ++b) {
      auto buf = *device.Malloc(std::uint64_t(kElements) * stride * 8);
      bases.push_back(buf.Typed<double>());
    }
    const Measured m = StreamKernel(device, bases, kElements, stride);
    if (stride == 1) base = m.cycles;
    std::printf("%-10u %-12llu %-12llu %-12.2f %.2fx\n", stride,
                (unsigned long long)m.cycles, (unsigned long long)m.sectors,
                m.coalescing, double(m.cycles) / double(base));
  }

  std::printf("\nPart 2 — sector-aligned vs offset heap allocations\n");
  std::printf("%-22s %-12s %-12s %s\n", "layout", "cycles", "sectors",
              "coalescing");
  Measured aligned{}, offset{};
  for (int pass = 0; pass < 2; ++pass) {
    Device device(DeviceSpec::A100_40GB(512));
    std::vector<DevicePtr<double>> bases;
    for (std::uint32_t b = 0; b < kBlocks; ++b) {
      auto buf = *device.Malloc(std::uint64_t(kElements) * 8 + 64);
      // Second pass: step off the 32-byte sector grid, as data nested in
      // odd-sized heap objects is.
      bases.push_back(pass == 0 ? buf.Typed<double>() : buf.Typed<double>(1));
    }
    const Measured m = StreamKernel(device, bases, kElements, 1);
    (pass == 0 ? aligned : offset) = m;
    std::printf("%-22s %-12llu %-12llu %.2f\n",
                pass == 0 ? "sector-aligned" : "offset by 8 bytes",
                (unsigned long long)m.cycles, (unsigned long long)m.sectors,
                m.coalescing);
  }
  if (offset.sectors <= aligned.sectors) {
    std::fprintf(stderr, "CHECK FAILED: offset layout must cost sectors\n");
    return 1;
  }
  std::printf("\nnon-coalesced / misaligned instance data multiplies sector "
              "traffic on the shared DRAM (paper §4.3)\n");
  return 0;
}
