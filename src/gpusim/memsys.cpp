#include "gpusim/memsys.h"

#include <algorithm>
#include <cmath>

#include "support/status.h"

namespace dgc::sim {
namespace {

/// Converts a per-sector service time (bytes / rate cycles) to fixed
/// point, rounding to nearest. The value is computed once per device, so
/// every accumulation step afterwards is exact integer arithmetic.
std::uint64_t FpService(double bytes, double bytes_per_cycle) {
  return std::uint64_t(
      std::llround(bytes * double(MemorySystem::kFpOne) / bytes_per_cycle));
}

bool IsPow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

std::uint32_t Log2(std::uint64_t v) {
  std::uint32_t s = 0;
  while ((std::uint64_t(1) << s) < v) ++s;
  return s;
}

}  // namespace

MemorySystem::MemorySystem(const DeviceSpec& spec)
    : spec_(spec),
      l2_(spec.l2_bytes, spec.sector_bytes, spec.l2_ways),
      channels_(spec.dram_channels) {
  l1_.reserve(std::size_t(spec.num_sms));
  for (int i = 0; i < spec.num_sms; ++i) {
    l1_.emplace_back(spec.l1_bytes, spec.sector_bytes, spec.l1_ways);
  }
  for (auto& ch : channels_) {
    ch.open_row.assign(spec.dram_banks_per_channel, ~std::uint64_t(0));
  }
  const std::uint64_t sectors_per_row =
      spec.dram_row_bytes / spec.sector_bytes;
  pow2_geometry_ = IsPow2(channels_.size()) &&
                   IsPow2(spec.dram_banks_per_channel) &&
                   spec.dram_row_bytes % spec.sector_bytes == 0 &&
                   IsPow2(sectors_per_row);
  if (pow2_geometry_) {
    channel_mask_ = std::uint32_t(channels_.size() - 1);
    channel_shift_ = Log2(channels_.size());
    row_shift_ = Log2(sectors_per_row);
    bank_mask_ = spec.dram_banks_per_channel - 1;
  }
  if (IsPow2(spec.smem_banks)) smem_bank_mask_ = spec.smem_banks - 1;
  l2_service_fp_ = FpService(spec.sector_bytes, spec.l2_bytes_per_cycle);
  // Per-channel rate is the device rate split evenly across channels, so a
  // sector occupies its channel for sector_bytes * channels / device_rate.
  dram_service_fp_ =
      FpService(double(spec.sector_bytes) * double(channels_.size()),
                spec.dram_bytes_per_cycle);
}

std::uint64_t MemorySystem::Access(int sm_id,
                                   std::span<const std::uint64_t> sectors,
                                   bool is_store, std::uint64_t now,
                                   LaunchStats& stats) {
  DGC_CHECK(sm_id >= 0 && std::size_t(sm_id) < l1_.size());
  std::uint64_t completion = now + spec_.l1_latency;  // at least an L1 trip
  SectorCache& l1 = l1_[std::size_t(sm_id)];
  const std::uint64_t now_fp = now << kFpBits;
  ++access_stamp_;
  bool l2_charged = false;
  // Counter deltas accumulate in registers across the sector loop and
  // flush once — `stats` may be a profiler bucket the compiler cannot
  // prove distinct from the hierarchy state it would otherwise reload.
  std::uint64_t l1_hits = 0, l1_misses = 0, l2_hits = 0, l2_misses = 0;
  std::uint64_t row_hits = 0, row_misses = 0, dram_sectors = 0;
  std::uint64_t l2_queue = 0, dram_queue = 0;

  for (std::uint64_t sector : sectors) {
    // L1: stores write through (they still allocate, modelling sector fill).
    const bool l1_hit = l1.Access(sector);
    if (l1_hit) ++l1_hits; else ++l1_misses;
    if (l1_hit && !is_store) {
      completion = std::max(completion, now + spec_.l1_latency);
      continue;
    }

    // L2: shared bandwidth — sectors serialize on the (fast) L2 port. The
    // instruction's queue charge is the port backlog found on arrival,
    // counted once (its own earlier sectors are service, not queueing).
    if (!l2_charged) {
      if (l2_busy_until_fp_ > now_fp) {
        l2_queue += (l2_busy_until_fp_ - now_fp) >> kFpBits;
      }
      l2_charged = true;
    }
    l2_busy_until_fp_ = std::max(l2_busy_until_fp_, now_fp) + l2_service_fp_;
    const bool l2_hit = l2_.Access(sector);
    if (l2_hit) ++l2_hits; else ++l2_misses;
    if (l2_hit) {
      completion = std::max(
          completion, (l2_busy_until_fp_ >> kFpBits) + spec_.l2_latency);
      continue;
    }

    // DRAM: sectors interleave across channels; within a channel, the
    // *channel-local* address picks the row (so a sequential stream walks
    // one open row) and the row picks the bank. Concurrent streams from
    // different heap allocations hit different rows, thrash the banks'
    // open rows, and pay the activation penalty — §4.3's effect.
    // Channel/row/bank indices; shifts and masks on the (ubiquitous)
    // power-of-two geometry, div/mod otherwise — same values either way.
    Channel& ch = channels_[pow2_geometry_ ? sector & channel_mask_
                                           : sector % channels_.size()];
    const std::uint64_t local =
        pow2_geometry_ ? sector >> channel_shift_ : sector / channels_.size();
    const std::uint64_t row =
        pow2_geometry_ ? local >> row_shift_
                       : local * spec_.sector_bytes / spec_.dram_row_bytes;
    std::uint64_t& open_row =
        ch.open_row[pow2_geometry_ ? row & bank_mask_
                                   : row % ch.open_row.size()];
    std::uint64_t latency = spec_.dram_latency;
    if (open_row == row) {
      ++row_hits;
    } else {
      ++row_misses;
      latency += spec_.dram_row_miss_penalty;
      open_row = row;
    }
    if (ch.charge_stamp != access_stamp_) {
      // Channel backlog at instruction arrival — the direct signature of
      // bandwidth saturation. Charged once per channel per instruction.
      if (ch.busy_until_fp > now_fp) {
        dram_queue += (ch.busy_until_fp - now_fp) >> kFpBits;
      }
      ch.charge_stamp = access_stamp_;
    }
    ch.busy_until_fp = std::max(ch.busy_until_fp, now_fp) + dram_service_fp_;
    ++dram_sectors;
    completion = std::max(
        completion,
        (ch.busy_until_fp >> kFpBits) + latency + spec_.l2_latency);
  }
  stats.l1_hits += l1_hits;
  stats.l1_misses += l1_misses;
  stats.l2_hits += l2_hits;
  stats.l2_misses += l2_misses;
  stats.dram_row_hits += row_hits;
  stats.dram_row_misses += row_misses;
  stats.dram_bytes += dram_sectors * spec_.sector_bytes;
  stats.l2_queue_cycles += l2_queue;
  stats.dram_queue_cycles += dram_queue;
  return completion;
}

std::uint64_t MemorySystem::AccessShared(std::span<const std::uint64_t> addrs,
                                         std::uint64_t now,
                                         LaunchStats& stats) {
  // Bank-conflict model: lanes touching distinct 4-byte words in the same
  // bank serialize; the instruction takes conflict_degree bank cycles.
  smem_words_.assign(addrs.begin(), addrs.end());
  for (auto& a : smem_words_) a /= 4;
  std::sort(smem_words_.begin(), smem_words_.end());
  smem_words_.erase(std::unique(smem_words_.begin(), smem_words_.end()),
                    smem_words_.end());

  smem_per_bank_.assign(spec_.smem_banks, 0);
  if (smem_bank_mask_ != 0) {
    for (std::uint64_t w : smem_words_) ++smem_per_bank_[w & smem_bank_mask_];
  } else {
    for (std::uint64_t w : smem_words_) ++smem_per_bank_[w % spec_.smem_banks];
  }
  std::uint32_t degree = 1;
  for (std::uint32_t c : smem_per_bank_) {
    degree = std::max(degree, std::max(c, 1u));
  }

  stats.smem_accesses += addrs.size();
  stats.smem_bank_conflicts += degree - 1;
  return now + spec_.smem_latency + (degree - 1);
}

void MemorySystem::Reset() {
  for (auto& c : l1_) c.Clear();
  l2_.Clear();
  l2_busy_until_fp_ = 0;
  access_stamp_ = 0;
  for (auto& ch : channels_) {
    ch.busy_until_fp = 0;
    ch.charge_stamp = 0;
    ch.open_row.assign(spec_.dram_banks_per_channel, ~std::uint64_t(0));
  }
}

}  // namespace dgc::sim
