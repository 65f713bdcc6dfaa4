// AMGmk — the `relax` kernel of the CORAL AMGmk proxy app (HeCBench
// version): weighted Jacobi relaxation sweeps over a 27-point Laplacian in
// CSR form. Streaming and bandwidth-bound — the benchmark whose ensemble
// scaling saturates first at thread limit 1024 in the paper (§4.3).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/status.h"

namespace dgc::apps {

struct AmgParams {
  std::uint32_t nx = 12, ny = 12, nz = 12;  ///< grid dimensions
  std::uint32_t sweeps = 2;                 ///< relaxation sweeps
  std::uint64_t seed = 1;
  bool verbose = false;

  /// Parses `-x -y -z -w(sweeps) -s -v` from
  /// the option arguments alone, without argv[0] (ExtractOptionArgs
  /// strips it; a program name here is an unexpected positional argument).
  static StatusOr<AmgParams> Parse(const std::vector<std::string>& args);
  std::uint64_t DeviceBytes() const;
  std::uint32_t rows() const { return nx * ny * nz; }
};

struct AmgData {
  std::vector<std::uint32_t> row_ptr;  ///< [rows + 1]
  std::vector<std::int32_t> col;       ///< [nnz]
  std::vector<double> val;             ///< [nnz]
  std::vector<double> diag;            ///< [rows] (a_ii, kept separate)
  std::vector<double> u;               ///< initial guess
  std::vector<double> f;               ///< right-hand side
};

AmgData GenerateAmgData(const AmgParams& params);

/// Host reference: `sweeps` Jacobi relaxations; returns the verification
/// hash of the final vector.
std::uint64_t AmgHostReference(const AmgParams& params);

void RegisterAmgmk();

}  // namespace dgc::apps
