#include "apps/rsbench.h"

#include <algorithm>
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

/// Windowed-multipole evaluation for one pole at energy e; ~100 FLOPs in
/// real RSBench (a Faddeeva evaluation), modelled by the same arithmetic
/// shape: a complex reciprocal and two fused accumulations.
inline void EvaluatePole(double e, const double* pole, double& sig_t,
                         double& sig_a) {
  const double dr = e - pole[0];
  const double di = pole[1];
  const double inv = 1.0 / (dr * dr + di * di + 1e-9);
  const double re = dr * inv;
  const double im = -di * inv;
  sig_t += pole[2] * re - pole[3] * im;
  sig_a += pole[2] * im + pole[3] * re;
}

std::uint64_t HashSigmas(double sig_t, double sig_a) {
  std::uint64_t h = kFnvOffset;
  h = HashCombine(h, std::uint64_t(std::llround(sig_t * 1e6)));
  h = HashCombine(h, std::uint64_t(std::llround(sig_a * 1e6)));
  return h;
}

/// Device cycles per pole evaluation (the Faddeeva cost).
constexpr std::uint64_t kPoleCycles = 500;

}  // namespace

StatusOr<RsParams> RsParams::Parse(const std::vector<std::string>& args) {
  RsParams p;
  std::int64_t seed = std::int64_t(p.seed);
  ArgParser parser("RSBench: windowed-multipole XS lookup");
  parser.AddInt("nuclides", 'u', "number of nuclides", &p.n_nuclides, 2)
      .AddInt("windows", 'w', "energy windows per nuclide", &p.n_windows, 1)
      .AddInt("poles", 'p', "poles per window", &p.poles_per_window, 1)
      .AddInt("materials", 'm', "number of materials", &p.n_materials, 1)
      .AddInt("lookups", 'l', "cross-section lookups", &p.n_lookups, 1)
      .AddInt("seed", 's', "workload seed", &seed)
      .AddFlag("verbose", 'v', "print results via device printf", &p.verbose);
  DGC_RETURN_IF_ERROR(parser.Parse(args));
  p.seed = std::uint64_t(seed);
  return p;
}

std::uint64_t RsParams::DeviceBytes() const {
  const std::uint64_t windows = std::uint64_t(n_nuclides) * n_windows;
  return windows * poles_per_window * RsData::kPoleDoubles * sizeof(double) +
         windows * RsData::kFitDoubles * sizeof(double) +
         std::uint64_t(n_lookups) * sizeof(std::uint64_t) + 64 * kKiB;
}

RsData GenerateRsData(const RsParams& params) {
  Rng rng(params.seed);
  RsData data;
  const std::uint64_t windows = std::uint64_t(params.n_nuclides) * params.n_windows;
  data.poles.resize(windows * params.poles_per_window * RsData::kPoleDoubles);
  for (std::uint64_t w = 0; w < windows; ++w) {
    // Pole positions cluster inside their window's energy span so the
    // denominator stays well-conditioned.
    const double w_lo = double(w % params.n_windows) / params.n_windows;
    for (std::uint32_t p = 0; p < params.poles_per_window; ++p) {
      double* pole = &data.poles[(w * params.poles_per_window + p) *
                                 RsData::kPoleDoubles];
      pole[0] = w_lo + rng.NextDouble() / params.n_windows;  // position re
      pole[1] = rng.NextDouble(0.01, 0.1);                   // position im
      pole[2] = rng.NextDouble(-1.0, 1.0);                   // residue rt
      pole[3] = rng.NextDouble(-1.0, 1.0);                   // residue ra
    }
  }
  data.fits.resize(windows * RsData::kFitDoubles);
  for (double& f : data.fits) f = rng.NextDouble(0.0, 2.0);

  data.mat_offset.assign(params.n_materials + 1, 0);
  for (std::uint32_t m = 0; m < params.n_materials; ++m) {
    const std::uint32_t count = std::min(params.n_nuclides, 2 + m % 4);
    data.mat_offset[m + 1] = data.mat_offset[m] + count;
    std::vector<std::uint32_t> picked;
    while (picked.size() < count) {
      const std::uint32_t candidate =
          std::uint32_t(rng.NextBounded(params.n_nuclides));
      if (std::find(picked.begin(), picked.end(), candidate) == picked.end()) {
        picked.push_back(candidate);
      }
    }
    for (std::uint32_t id : picked) {
      data.mat_nuclide.push_back(id);
      data.mat_density.push_back(rng.NextDouble(0.5, 2.0));
    }
  }
  return data;
}

void RsSampleLookup(const RsParams& params, std::uint64_t lookup,
                    double& unit_energy, std::uint32_t& material) {
  SplitMix64 sm(params.seed * 0xff51afd7ed558ccdULL + lookup + 1);
  unit_energy = double(sm.Next() >> 11) * 0x1.0p-53;
  material = std::uint32_t(sm.Next() % params.n_materials);
}

std::uint64_t RsHostReference(const RsParams& params) {
  using Key = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                         std::uint32_t, std::uint32_t, std::uint64_t>;
  const Key key{params.n_nuclides, params.n_windows, params.poles_per_window,
                params.n_materials, params.n_lookups, params.seed};
  return Memoized(key, [&params] {
    const RsData data = GenerateRsData(params);
    std::uint64_t verification = 0;
    for (std::uint64_t l = 0; l < params.n_lookups; ++l) {
      double e;
      std::uint32_t mat;
      RsSampleLookup(params, l, e, mat);
      const std::uint32_t window = std::min(
          std::uint32_t(e * params.n_windows), params.n_windows - 1);
      double sig_t = 0, sig_a = 0;
      for (std::uint32_t k = data.mat_offset[mat]; k < data.mat_offset[mat + 1];
           ++k) {
        const std::uint32_t n = data.mat_nuclide[k];
        const double density = data.mat_density[k];
        const std::uint64_t w = std::uint64_t(n) * params.n_windows + window;
        const double* fit = &data.fits[w * RsData::kFitDoubles];
        double t = fit[0] + fit[1] * e + fit[2] * e * e;
        double a = 0.5 * t;
        for (std::uint32_t p = 0; p < params.poles_per_window; ++p) {
          EvaluatePole(e,
                       &data.poles[(w * params.poles_per_window + p) *
                                   RsData::kPoleDoubles],
                       t, a);
        }
        sig_t += density * t;
        sig_a += density * a;
      }
      verification ^= HashSigmas(sig_t, sig_a);
    }
    return verification;
  });
}

namespace {

struct RsView {
  RsParams params;
  DevicePtr<double> poles, fits, mat_density;
  DevicePtr<std::uint32_t> mat_offset, mat_nuclide;
  DevicePtr<std::uint64_t> out;
};

DeviceTask<void> RsDeviceLookup(ThreadCtx& ctx, const RsView& v,
                                std::uint64_t l) {
  const RsParams& params = v.params;
  double e;
  std::uint32_t mat;
  RsSampleLookup(params, l, e, mat);
  const std::uint32_t window =
      std::min(std::uint32_t(e * params.n_windows), params.n_windows - 1);
  co_await ctx.Work(40);

  const std::uint32_t begin = co_await ctx.Load(v.mat_offset + mat);
  const std::uint32_t end = co_await ctx.Load(v.mat_offset + mat + 1);
  double sig_t = 0, sig_a = 0;
  for (std::uint32_t k = begin; k < end; ++k) {
    const std::uint32_t n = co_await ctx.Load(v.mat_nuclide + k);
    const double density = co_await ctx.Load(v.mat_density + k);
    const std::uint64_t w = std::uint64_t(n) * params.n_windows + window;

    auto fit = v.fits + std::ptrdiff_t(w) * RsData::kFitDoubles;
    auto fit_vals = ctx.LoadRun<RsData::kFitDoubles>(fit, RsData::kFitDoubles);
    co_await fit_vals;
    double t = fit_vals.Result(0) + fit_vals.Result(1) * e +
               fit_vals.Result(2) * e * e;
    double a = 0.5 * t;

    for (std::uint32_t p = 0; p < params.poles_per_window; ++p) {
      auto pole = v.poles + std::ptrdiff_t(w * params.poles_per_window + p) *
                                RsData::kPoleDoubles;
      auto pole_run =
          ctx.LoadRun<RsData::kPoleDoubles>(pole, RsData::kPoleDoubles);
      co_await pole_run;
      double pole_vals[RsData::kPoleDoubles];
      for (std::uint32_t d = 0; d < RsData::kPoleDoubles; ++d) {
        pole_vals[d] = pole_run.Result(d);
      }
      EvaluatePole(e, pole_vals, t, a);
      co_await ctx.Work(kPoleCycles);  // the Faddeeva evaluation
    }
    sig_t += density * t;
    sig_a += density * a;
  }
  co_await ctx.Store(v.out + l, HashSigmas(sig_t, sig_a));
}

DeviceTask<int> RsUserMain(AppEnv& env, ompx::TeamCtx& team, int argc,
                           DeviceArgv argv) {
  auto params_or = RsParams::Parse(ExtractOptionArgs(argc, argv));
  if (!params_or.ok()) co_return dgcf::kExitUsage;
  const RsParams params = *params_or;
  ThreadCtx& ctx = *team.hw;

  const RsData data = GenerateRsData(params);
  // Poles, fits and material tables are read-only input; only the result
  // buffer stays per-instance.
  const std::vector<AppBuffer> layout{
      Input(data.poles),
      Input(data.fits),
      Input(data.mat_offset),
      Input(data.mat_nuclide),
      Input(data.mat_density),
      Private(params.n_lookups * sizeof(std::uint64_t)),
  };
  const std::uint64_t key = SharedContentKey(
      "rsbench", {params.n_nuclides, params.n_windows, params.poles_per_window,
                  params.n_materials, params.seed});
  const AppBuffers setup =
      co_await AllocateAppBuffers(env, ctx, layout, key, "rsbench");
  if (!setup.ok) co_return dgcf::kExitNoMem;
  const std::vector<sim::DeviceBuffer>& buffers = setup.buffers;

  RsView v;
  v.params = params;
  v.poles = buffers[0].Typed<double>();
  v.fits = buffers[1].Typed<double>();
  v.mat_offset = buffers[2].Typed<std::uint32_t>();
  v.mat_nuclide = buffers[3].Typed<std::uint32_t>();
  v.mat_density = buffers[4].Typed<double>();
  v.out = buffers[5].Typed<std::uint64_t>();

  co_await ctx.Work(setup.fill_inputs ? params.DeviceBytes() / 64
                                       : setup.private_bytes / 64);

  co_await ompx::ParallelFor(
      team, params.n_lookups,
      [&](ThreadCtx& tctx, std::uint64_t l) -> DeviceTask<void> {
        co_await RsDeviceLookup(tctx, v, l);
      });

  std::uint64_t verification = 0;
  for (std::uint64_t l = 0; l < params.n_lookups; l += sim::detail::kMaxGather) {
    const std::uint32_t chunk = std::uint32_t(
        std::min<std::uint64_t>(params.n_lookups - l, sim::detail::kMaxGather));
    auto results = ctx.LoadRun(v.out + l, chunk);
    co_await results;
    for (std::uint32_t j = 0; j < chunk; ++j) verification ^= results.Result(j);
  }
  if (params.verbose) {
    co_await env.rpc->Print(
        ctx, StrFormat("rsbench: %u lookups, verification %016llx\n",
                       params.n_lookups, (unsigned long long)verification));
  }
  co_await FreeAppBuffers(env, ctx, buffers);
  co_return verification == RsHostReference(params) ? dgcf::kExitOk : 1;
}

}  // namespace

void RegisterRsbench() {
  dgcf::AppRegistry::Instance().Register(
      {"rsbench",
       "RSBench: compute-bound windowed-multipole XS lookup (OpenMC proxy)",
       RsUserMain});
}

}  // namespace dgc::apps
