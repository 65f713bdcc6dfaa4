// RSBench — proxy for multipole-representation cross-section lookups
// (Tramm et al., EASC'14): the compute-bound counterpart to XSBench in the
// paper's evaluation (§4.1). Small resonance data, heavy complex
// arithmetic per pole.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/status.h"

namespace dgc::apps {

struct RsParams {
  std::uint32_t n_nuclides = 24;
  std::uint32_t n_windows = 16;        ///< energy windows per nuclide
  std::uint32_t poles_per_window = 4;
  std::uint32_t n_materials = 12;
  std::uint32_t n_lookups = 2048;
  std::uint64_t seed = 1;
  bool verbose = false;

  /// Parses `-u -w -p -m -l -s -v` from
  /// the option arguments alone, without argv[0] (ExtractOptionArgs
  /// strips it; a program name here is an unexpected positional argument).
  static StatusOr<RsParams> Parse(const std::vector<std::string>& args);
  std::uint64_t DeviceBytes() const;
};

struct RsData {
  /// 4 doubles per pole: position (re, im) and residue (rt, ra).
  static constexpr std::uint32_t kPoleDoubles = 4;
  /// 3 doubles per window: the background curve-fit (a, b, c).
  static constexpr std::uint32_t kFitDoubles = 3;

  std::vector<double> poles;  ///< [nuc][window][pole][kPoleDoubles]
  std::vector<double> fits;   ///< [nuc][window][kFitDoubles]
  std::vector<std::uint32_t> mat_offset;
  std::vector<std::uint32_t> mat_nuclide;
  std::vector<double> mat_density;
};

RsData GenerateRsData(const RsParams& params);

/// Per-lookup (unit energy, material) sampling, shared host/device.
void RsSampleLookup(const RsParams& params, std::uint64_t lookup,
                    double& unit_energy, std::uint32_t& material);

/// Host reference verification hash.
std::uint64_t RsHostReference(const RsParams& params);

void RegisterRsbench();

}  // namespace dgc::apps
