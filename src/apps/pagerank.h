// Page-Rank — the HeCBench-style propagation step on a synthetic
// power-law graph in (in-edge) CSR form. The evaluation's memory-capacity
// stressor: per-instance graphs are large enough that the paper could only
// run 2 and 4 concurrent instances on the 40GB device (§4.3).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/status.h"

namespace dgc::apps {

struct PrParams {
  std::uint32_t n_nodes = 20000;
  std::uint32_t avg_degree = 8;   ///< average in-degree
  std::uint32_t iterations = 1;   ///< propagation steps (the measured kernel)
  double damping = 0.85;
  std::uint64_t seed = 1;
  bool verbose = false;

  /// Parses `-g(nodes) -d(degree) -k(iterations) -a(damping) -s -v` from
  /// the option arguments alone, without argv[0] (ExtractOptionArgs
  /// strips it; a program name here is an unexpected positional argument).
  static StatusOr<PrParams> Parse(const std::vector<std::string>& args);
  std::uint64_t DeviceBytes() const;
};

struct PrData {
  std::vector<std::uint32_t> row_ptr;     ///< in-edge CSR by destination
  std::vector<std::uint32_t> src;         ///< in-neighbour node ids
  std::vector<std::uint32_t> out_degree;  ///< per node (≥ 1 by construction)
  std::vector<double> rank;               ///< initial ranks (1/n)
};

PrData GeneratePrData(const PrParams& params);

/// Host reference: `iterations` propagation steps; hash of the final ranks.
std::uint64_t PrHostReference(const PrParams& params);

void RegisterPagerank();

}  // namespace dgc::apps
