#include "apps/amgmk.h"

#include <cmath>

#include "apps/common.h"
#include "dgcf/rpc.h"
#include "gpusim/ctx.h"
#include "ompx/team.h"
#include "support/argparse.h"
#include "support/rng.h"
#include "support/str.h"
#include "support/units.h"

namespace dgc::apps {
namespace {

using dgcf::AppEnv;
using dgcf::DeviceArgv;
using sim::DevicePtr;
using sim::DeviceTask;
using sim::ThreadCtx;

std::uint64_t HashVector(const double* u, std::uint64_t n) {
  std::uint64_t h = kFnvOffset;
  for (std::uint64_t i = 0; i < n; ++i) {
    h = HashCombine(h, std::uint64_t(std::llround(u[i] * 1e9)));
  }
  return h;
}

/// Weighted-Jacobi weight used by AMG smoothers.
constexpr double kOmega = 0.85;

void HostRelax(const AmgData& data, const std::vector<double>& u_in,
               std::vector<double>& u_out) {
  const std::size_t rows = data.diag.size();
  for (std::size_t i = 0; i < rows; ++i) {
    double acc = data.f[i];
    for (std::uint32_t k = data.row_ptr[i]; k < data.row_ptr[i + 1]; ++k) {
      acc -= data.val[k] * u_in[std::size_t(data.col[k])];
    }
    u_out[i] = u_in[i] + kOmega * (acc / data.diag[i] - u_in[i]);
  }
}

}  // namespace

StatusOr<AmgParams> AmgParams::Parse(const std::vector<std::string>& args) {
  AmgParams p;
  std::int64_t seed = std::int64_t(p.seed);
  ArgParser parser("AMGmk: weighted-Jacobi relax on a 27-point Laplacian");
  parser.AddInt("nx", 'x', "grid cells in x", &p.nx, 2)
      .AddInt("ny", 'y', "grid cells in y", &p.ny, 2)
      .AddInt("nz", 'z', "grid cells in z", &p.nz, 2)
      .AddInt("sweeps", 'w', "relaxation sweeps", &p.sweeps, 1)
      .AddInt("seed", 's', "workload seed", &seed)
      .AddFlag("verbose", 'v', "print results via device printf", &p.verbose);
  DGC_RETURN_IF_ERROR(parser.Parse(args));
  p.seed = std::uint64_t(seed);
  return p;
}

std::uint64_t AmgParams::DeviceBytes() const {
  const std::uint64_t n = rows();
  const std::uint64_t nnz = n * 27;  // upper bound (interior rows)
  return (n + 1) * sizeof(std::uint32_t) + nnz * sizeof(std::int32_t) +
         nnz * sizeof(double) + 4 * n * sizeof(double) + 64 * kKiB;
}

AmgData GenerateAmgData(const AmgParams& params) {
  Rng rng(params.seed);
  AmgData data;
  const std::uint32_t nx = params.nx, ny = params.ny, nz = params.nz;
  const std::uint64_t rows = params.rows();
  data.row_ptr.reserve(rows + 1);
  data.row_ptr.push_back(0);
  data.diag.reserve(rows);

  auto cell = [&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    return std::int32_t((std::uint64_t(k) * ny + j) * nx + i);
  };

  for (std::uint32_t k = 0; k < nz; ++k) {
    for (std::uint32_t j = 0; j < ny; ++j) {
      for (std::uint32_t i = 0; i < nx; ++i) {
        double offdiag_sum = 0;
        for (int dk = -1; dk <= 1; ++dk) {
          for (int dj = -1; dj <= 1; ++dj) {
            for (int di = -1; di <= 1; ++di) {
              if (di == 0 && dj == 0 && dk == 0) continue;
              const std::int64_t ni = std::int64_t(i) + di;
              const std::int64_t nj = std::int64_t(j) + dj;
              const std::int64_t nk = std::int64_t(k) + dk;
              if (ni < 0 || nj < 0 || nk < 0 || ni >= nx || nj >= ny ||
                  nk >= nz) {
                continue;
              }
              const double w = -(1.0 + 0.05 * rng.NextDouble());
              data.col.push_back(cell(std::uint32_t(ni), std::uint32_t(nj),
                                      std::uint32_t(nk)));
              data.val.push_back(w);
              offdiag_sum += -w;
            }
          }
        }
        // Diagonally dominant: |a_ii| > sum of off-diagonals.
        data.diag.push_back(offdiag_sum + 1.0 + rng.NextDouble());
        data.row_ptr.push_back(std::uint32_t(data.col.size()));
      }
    }
  }
  data.u.resize(rows);
  data.f.resize(rows);
  for (auto& v : data.u) v = rng.NextDouble(-1.0, 1.0);
  for (auto& v : data.f) v = rng.NextDouble(-1.0, 1.0);
  return data;
}

std::uint64_t AmgHostReference(const AmgParams& params) {
  using Key = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                         std::uint32_t, std::uint64_t>;
  const Key key{params.nx, params.ny, params.nz, params.sweeps, params.seed};
  return Memoized(key, [&params] {
    const AmgData data = GenerateAmgData(params);
    std::vector<double> u = data.u;
    std::vector<double> v(u.size());
    for (std::uint32_t s = 0; s < params.sweeps; ++s) {
      HostRelax(data, u, v);
      std::swap(u, v);
    }
    return HashVector(u.data(), u.size());
  });
}

namespace {

struct AmgView {
  AmgParams params;
  DevicePtr<std::uint32_t> row_ptr;
  DevicePtr<std::int32_t> col;
  DevicePtr<double> val, diag, u, v, f;
};

/// How many rows one relax task handles: a 27-point row has ≤ 26
/// off-diagonals, so 3 rows (≤ 78 entries) fit one pipelined gather —
/// the MLP depth a tuned streaming kernel achieves.
constexpr std::uint32_t kRowsPerTask = 3;
constexpr std::uint32_t kMaxStrip = kRowsPerTask * 26;  ///< entries, at most

/// A strip of rows of the relax kernel: the streaming CSR traversal that
/// makes AMGmk bandwidth-bound. All loads of the strip are independent, so
/// they issue as a handful of wide pipelined gathers.
DeviceTask<void> RelaxRows(ThreadCtx& ctx, const AmgView& view,
                           std::uint64_t row0, std::uint32_t nrows,
                           DevicePtr<double> u_in, DevicePtr<double> u_out) {
  auto header = ctx.LoadRun<kRowsPerTask + 1>(view.row_ptr + row0, nrows + 1);
  co_await header;
  const std::uint32_t span_begin = header.Result(0);
  const std::uint32_t span_end = header.Result(nrows);

  auto row_scalars = ctx.Gather<double, 3 * kRowsPerTask>();
  for (std::uint32_t r = 0; r < nrows; ++r) {
    row_scalars.Add(view.f + (row0 + r));
    row_scalars.Add(view.diag + (row0 + r));
    row_scalars.Add(u_in + (row0 + r));
  }
  co_await row_scalars;

  double acc[kRowsPerTask];
  for (std::uint32_t r = 0; r < nrows; ++r) acc[r] = row_scalars.Result(3 * r);

  const std::uint32_t span = span_end - span_begin;
  DGC_CHECK(span <= kMaxStrip);
  auto cols = ctx.LoadRun<kMaxStrip>(view.col + span_begin, span);
  co_await cols;
  auto vals = ctx.LoadRun<kMaxStrip>(view.val + span_begin, span);
  co_await vals;
  auto xs = ctx.Gather<double, kMaxStrip>();
  for (std::uint32_t j = 0; j < span; ++j) xs.Add(u_in + cols.Result(j));
  co_await xs;
  std::uint32_t row = 0;  // row (relative) owning entry span_begin + j
  for (std::uint32_t j = 0; j < span; ++j) {
    while (span_begin + j >= header.Result(row + 1)) ++row;
    acc[row] -= vals.Result(j) * xs.Result(j);
  }
  co_await ctx.Work(2 * (span_end - span_begin) + 10 * nrows);
  auto updates = ctx.Scatter<double, kRowsPerTask>();
  for (std::uint32_t r = 0; r < nrows; ++r) {
    const double diag = row_scalars.Result(3 * r + 1);
    const double u_old = row_scalars.Result(3 * r + 2);
    updates.Add(u_out + (row0 + r), u_old + kOmega * (acc[r] / diag - u_old));
  }
  co_await updates;
}

DeviceTask<int> AmgUserMain(AppEnv& env, ompx::TeamCtx& team, int argc,
                            DeviceArgv argv) {
  auto params_or = AmgParams::Parse(ExtractOptionArgs(argc, argv));
  if (!params_or.ok()) co_return dgcf::kExitUsage;
  const AmgParams params = *params_or;
  ThreadCtx& ctx = *team.hw;
  const std::uint64_t rows = params.rows();

  const AmgData data = GenerateAmgData(params);
  // The matrix (row_ptr/col/val/diag) and rhs f are read-only input; the
  // ping-pong vectors u and v are written every sweep and stay private
  // (u is also seed data, so every instance fills its own copy).
  const std::vector<AppBuffer> layout{
      Input(data.row_ptr),
      Input(data.col),
      Input(data.val),
      Input(data.diag),
      Private(rows * sizeof(double)),  // u
      Private(rows * sizeof(double)),  // v
      Input(data.f),
  };
  const std::uint64_t key =
      SharedContentKey("amgmk", {params.nx, params.ny, params.nz, params.seed});
  const AppBuffers setup =
      co_await AllocateAppBuffers(env, ctx, layout, key, "amgmk");
  if (!setup.ok) co_return dgcf::kExitNoMem;
  const std::vector<sim::DeviceBuffer>& buffers = setup.buffers;

  AmgView view;
  view.params = params;
  view.row_ptr = buffers[0].Typed<std::uint32_t>();
  view.col = buffers[1].Typed<std::int32_t>();
  view.val = buffers[2].Typed<double>();
  view.diag = buffers[3].Typed<double>();
  view.u = buffers[4].Typed<double>();
  view.v = buffers[5].Typed<double>();
  view.f = buffers[6].Typed<double>();

  // u is per-instance seed state even in shared mode.
  std::copy(data.u.begin(), data.u.end(), view.u.host);
  co_await ctx.Work(setup.fill_inputs ? params.DeviceBytes() / 64
                                       : setup.private_bytes / 64);

  // The measured kernel: `sweeps` relaxations, ping-ponging u and v.
  DevicePtr<double> u_in = view.u, u_out = view.v;
  const std::uint64_t tasks = (rows + kRowsPerTask - 1) / kRowsPerTask;
  for (std::uint32_t s = 0; s < params.sweeps; ++s) {
    co_await ompx::ParallelFor(
        team, tasks,
        [&](ThreadCtx& tctx, std::uint64_t task) -> DeviceTask<void> {
          const std::uint64_t row0 = task * kRowsPerTask;
          const std::uint32_t nrows =
              std::uint32_t(std::min<std::uint64_t>(kRowsPerTask, rows - row0));
          co_await RelaxRows(tctx, view, row0, nrows, u_in, u_out);
        });
    std::swap(u_in, u_out);
  }

  std::uint64_t verification = kFnvOffset;
  for (std::uint64_t i = 0; i < rows; i += sim::detail::kMaxGather) {
    const std::uint32_t chunk =
        std::uint32_t(std::min<std::uint64_t>(rows - i, sim::detail::kMaxGather));
    auto results = ctx.LoadRun(u_in + i, chunk);
    co_await results;
    for (std::uint32_t j = 0; j < chunk; ++j) {
      verification = HashCombine(
          verification, std::uint64_t(std::llround(results.Result(j) * 1e9)));
    }
  }
  if (params.verbose) {
    co_await env.rpc->Print(
        ctx,
        StrFormat("amgmk: %llu rows, %u sweeps, verification %016llx\n",
                  (unsigned long long)rows, params.sweeps,
                  (unsigned long long)verification));
  }
  co_await FreeAppBuffers(env, ctx, buffers);
  co_return verification == AmgHostReference(params) ? dgcf::kExitOk : 1;
}

}  // namespace

void RegisterAmgmk() {
  dgcf::AppRegistry::Instance().Register(
      {"amgmk", "AMGmk: bandwidth-bound Jacobi relax kernel (CORAL proxy)",
       AmgUserMain});
}

}  // namespace dgc::apps
