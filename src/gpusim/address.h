// Device address space and typed device pointers.
//
// The simulator keeps its own deterministic 64-bit device address space —
// timing (coalescing, caches, DRAM rows) is computed from these addresses,
// never from host pointers, so runs are bit-reproducible. Each device
// allocation is backed by host storage for functional execution; a
// DevicePtr carries both views.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace dgc::sim {

using DeviceAddr = std::uint64_t;

/// Global memory occupies [kGlobalBase, kSharedBase); shared memory windows
/// are placed above kSharedBase (one window per thread block).
inline constexpr DeviceAddr kGlobalBase = 0x0000'0000'0001'0000ULL;
inline constexpr DeviceAddr kSharedBase = 0x4000'0000'0000'0000ULL;

inline constexpr bool IsSharedAddr(DeviceAddr a) { return a >= kSharedBase; }

struct Dim3 {
  std::uint32_t x = 1, y = 1, z = 1;
  constexpr std::uint64_t Count() const {
    return std::uint64_t(x) * y * z;
  }
  friend constexpr bool operator==(const Dim3&, const Dim3&) = default;
};

/// A typed pointer into simulated device memory.
///
/// `addr` is the simulated device address (drives timing); `host` is the
/// backing storage (drives functional effects). Direct dereference through
/// `host` is allowed for *untimed* setup paths; kernels use
/// `ThreadCtx::Load/Store`, which charge the memory system.
template <typename T>
struct DevicePtr {
  static_assert(std::is_trivially_copyable_v<T>,
                "device data must be trivially copyable");

  DeviceAddr addr = 0;
  T* host = nullptr;

  constexpr explicit operator bool() const { return host != nullptr; }

  constexpr DevicePtr operator+(std::ptrdiff_t i) const {
    return {addr + std::uint64_t(i) * sizeof(T), host + i};
  }
  constexpr DevicePtr operator-(std::ptrdiff_t i) const {
    return {addr - std::uint64_t(i) * sizeof(T), host - i};
  }
  constexpr DevicePtr& operator+=(std::ptrdiff_t i) {
    *this = *this + i;
    return *this;
  }

  /// Untimed host-side access (setup / teardown paths only).
  constexpr T& operator*() const { return *host; }
  constexpr T& operator[](std::ptrdiff_t i) const { return host[i]; }

  friend constexpr bool operator==(const DevicePtr&, const DevicePtr&) = default;
};

}  // namespace dgc::sim
