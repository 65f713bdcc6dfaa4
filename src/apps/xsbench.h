// XSBench — proxy for OpenMC's continuous-energy macroscopic neutron
// cross-section lookup (Tramm et al., PHYSOR'14). The memory-bound kernel
// of the paper's evaluation (§4.1).
//
// Faithful structure, scaled sizes: per-isotope energy grids with 5
// cross-section channels, the *unionized* energy grid with its
// index table (the memory hog and the source of the irregular, cache-
// hostile access pattern), materials with nuclide lists and densities, and
// the lookup kernel: sample (energy, material) → binary search on the
// union grid → accumulate macroscopic XS over the material's nuclides.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/status.h"

namespace dgc::apps {

/// The lookup acceleration structure, as in real XSBench: the unionized
/// grid (fastest, most memory), the hash grid (bounded walk from a bin
/// start), or plain per-nuclide binary search (no acceleration). All three
/// locate the SAME bracketing index, so the verification hash is identical
/// across grid types.
enum class XsGridType { kUnionized, kHash, kNuclide };

std::string_view ToString(XsGridType type);
StatusOr<XsGridType> ParseXsGridType(std::string_view name);

struct XsParams {
  std::uint32_t n_isotopes = 24;
  std::uint32_t n_gridpoints = 256;  ///< per isotope
  std::uint32_t n_materials = 12;
  std::uint32_t n_lookups = 2048;
  std::uint32_t hash_bins = 512;     ///< hash-grid bins (kHash only)
  XsGridType grid_type = XsGridType::kUnionized;
  std::uint64_t seed = 1;
  bool verbose = false;

  /// Parses `-i -g -m -l -s -v -G <unionized|hash|nuclide> -H <bins>` from
  /// the option arguments alone, without argv[0] (ExtractOptionArgs
  /// strips it; a program name here is an unexpected positional argument).
  static StatusOr<XsParams> Parse(const std::vector<std::string>& args);

  /// Approximate device bytes one instance allocates (grid-type dependent).
  std::uint64_t DeviceBytes() const;
};

/// The generated problem, in structure-of-arrays form (host image; the
/// device instance copies it into its own allocations).
struct XsData {
  static constexpr std::uint32_t kChannels = 5;

  std::vector<double> nuclide_energy;  ///< [iso * n_gridpoints], sorted per iso
  std::vector<double> nuclide_xs;      ///< [iso * n_gridpoints * kChannels]
  std::vector<double> union_energy;    ///< [n_union], sorted (kUnionized)
  std::vector<std::int32_t> union_index;  ///< [n_union * n_isotopes]
  std::vector<std::int32_t> hash_index;   ///< [hash_bins * n_isotopes] (kHash)
  std::vector<std::uint32_t> mat_offset;  ///< [n_materials + 1]
  std::vector<std::uint32_t> mat_nuclide; ///< nuclide ids, by material
  std::vector<double> mat_density;        ///< parallel to mat_nuclide

  std::uint32_t n_union() const { return std::uint32_t(union_energy.size()); }
};

/// Deterministic workload generation (same data on host and device paths).
XsData GenerateXsData(const XsParams& params);

/// Per-lookup (energy, material) sampling — shared by host and device.
void XsSampleLookup(const XsParams& params, std::uint64_t lookup,
                    double& energy, std::uint32_t& material);

/// Host reference: runs all lookups sequentially on the host and returns
/// the verification hash the device kernel must reproduce bit-for-bit.
std::uint64_t XsHostReference(const XsParams& params);

/// Registers the `xsbench` app (its __user_main) with the AppRegistry.
void RegisterXsbench();

}  // namespace dgc::apps
