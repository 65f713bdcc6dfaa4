#include "apps/xsbench.h"

#include <algorithm>
#include <cmath>

#include "apps/common.h"
#include "dgcf/rpc.h"
#include "support/units.h"
#include "ensemble/loader.h"
#include "gpusim/ctx.h"
#include "ompx/team.h"
#include "support/argparse.h"
#include "support/rng.h"
#include "support/str.h"

namespace dgc::apps {
namespace {

using dgcf::AppEnv;
using dgcf::DeviceArgv;
using sim::DevicePtr;
using sim::DeviceTask;
using sim::ThreadCtx;

constexpr std::uint32_t kC = XsData::kChannels;

}  // namespace

std::string_view ToString(XsGridType type) {
  switch (type) {
    case XsGridType::kUnionized: return "unionized";
    case XsGridType::kHash: return "hash";
    case XsGridType::kNuclide: return "nuclide";
  }
  return "?";
}

StatusOr<XsGridType> ParseXsGridType(std::string_view name) {
  if (name == "unionized") return XsGridType::kUnionized;
  if (name == "hash") return XsGridType::kHash;
  if (name == "nuclide") return XsGridType::kNuclide;
  return Status(ErrorCode::kInvalidArgument,
                "unknown grid type (unionized, hash, nuclide)");
}

StatusOr<XsParams> XsParams::Parse(const std::vector<std::string>& args) {
  XsParams p;
  std::int64_t seed = std::int64_t(p.seed);
  std::string grid_type(ToString(p.grid_type));
  ArgParser parser("XSBench: macroscopic XS lookup");
  parser.AddInt("isotopes", 'i', "number of isotopes", &p.n_isotopes, 2)
      .AddInt("gridpoints", 'g', "energy gridpoints per isotope",
              &p.n_gridpoints, 2)
      .AddInt("materials", 'm', "number of materials", &p.n_materials, 1)
      .AddInt("lookups", 'l', "cross-section lookups", &p.n_lookups, 1)
      .AddString("grid-type", 'G', "unionized | hash | nuclide", &grid_type)
      .AddInt("hash-bins", 'H', "hash-grid bins", &p.hash_bins, 1)
      .AddInt("seed", 's', "workload seed", &seed)
      .AddFlag("verbose", 'v', "print results via device printf", &p.verbose);
  DGC_RETURN_IF_ERROR(parser.Parse(args));
  DGC_ASSIGN_OR_RETURN(p.grid_type, ParseXsGridType(grid_type));
  p.seed = std::uint64_t(seed);
  return p;
}

std::uint64_t XsParams::DeviceBytes() const {
  const std::uint64_t points = std::uint64_t(n_isotopes) * n_gridpoints;
  std::uint64_t accel = 0;
  switch (grid_type) {
    case XsGridType::kUnionized:
      accel = points * sizeof(double)                       // union energies
              + points * n_isotopes * sizeof(std::int32_t); // index table
      break;
    case XsGridType::kHash:
      accel = std::uint64_t(hash_bins) * n_isotopes * sizeof(std::int32_t);
      break;
    case XsGridType::kNuclide:
      break;
  }
  return points * sizeof(double)                    // nuclide energies
         + points * kC * sizeof(double)             // nuclide XS
         + accel
         + std::uint64_t(n_lookups) * sizeof(std::uint64_t)  // results
         + 64 * kKiB;                               // materials + slack
}

XsData GenerateXsData(const XsParams& params) {
  Rng rng(params.seed);
  XsData data;
  const std::uint32_t iso = params.n_isotopes, grid = params.n_gridpoints;

  // Per-isotope sorted energy grids and XS channel values.
  data.nuclide_energy.resize(std::size_t(iso) * grid);
  data.nuclide_xs.resize(std::size_t(iso) * grid * kC);
  for (std::uint32_t n = 0; n < iso; ++n) {
    double* e = &data.nuclide_energy[std::size_t(n) * grid];
    for (std::uint32_t g = 0; g < grid; ++g) e[g] = rng.NextDouble();
    std::sort(e, e + grid);
    for (std::uint32_t g = 0; g < grid * kC; ++g) {
      data.nuclide_xs[std::size_t(n) * grid * kC + g] = rng.NextDouble(0.1, 10.0);
    }
  }

  // Acceleration structure. The energy span is common to all grid types.
  const auto [emin_it, emax_it] = std::minmax_element(
      data.nuclide_energy.begin(), data.nuclide_energy.end());
  const double e_min = *emin_it, e_max = *emax_it;

  if (params.grid_type == XsGridType::kUnionized) {
    // Unionized grid: all energies, sorted; plus per-union-point index into
    // every isotope's grid (XSBench's memory-dominant acceleration table).
    data.union_energy = data.nuclide_energy;
    std::sort(data.union_energy.begin(), data.union_energy.end());
    const std::uint32_t n_union = data.n_union();
    data.union_index.assign(std::size_t(n_union) * iso, 0);
    for (std::uint32_t n = 0; n < iso; ++n) {
      const double* e = &data.nuclide_energy[std::size_t(n) * grid];
      std::uint32_t cursor = 0;
      for (std::uint32_t u = 0; u < n_union; ++u) {
        while (cursor + 1 < grid && e[cursor + 1] <= data.union_energy[u]) {
          ++cursor;
        }
        // Clamp to grid-2 so interpolation can always use [idx, idx+1].
        data.union_index[std::size_t(u) * iso + n] =
            std::int32_t(std::min(cursor, grid - 2));
      }
    }
  } else if (params.grid_type == XsGridType::kHash) {
    // Hash grid: per bin and isotope, the canonical index at the bin's
    // lower bound; lookups walk forward from there.
    data.hash_index.assign(std::size_t(params.hash_bins) * iso, 0);
    for (std::uint32_t n = 0; n < iso; ++n) {
      const double* e = &data.nuclide_energy[std::size_t(n) * grid];
      std::uint32_t cursor = 0;
      for (std::uint32_t b = 0; b < params.hash_bins; ++b) {
        const double bin_lo =
            e_min + (e_max - e_min) * double(b) / double(params.hash_bins);
        while (cursor + 1 < grid && e[cursor + 1] <= bin_lo) ++cursor;
        data.hash_index[std::size_t(b) * iso + n] =
            std::int32_t(std::min(cursor, grid - 2));
      }
    }
  }

  // Materials: 2..5 distinct nuclides each, with densities.
  data.mat_offset.assign(params.n_materials + 1, 0);
  for (std::uint32_t m = 0; m < params.n_materials; ++m) {
    const std::uint32_t count = std::min(iso, 2 + m % 4);
    data.mat_offset[m + 1] = data.mat_offset[m] + count;
    std::vector<std::uint32_t> picked;
    while (picked.size() < count) {
      const std::uint32_t candidate = std::uint32_t(rng.NextBounded(iso));
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

void XsSampleLookup(const XsParams& params, std::uint64_t lookup,
                    double& unit_energy, std::uint32_t& material) {
  SplitMix64 sm(params.seed * 0x9e3779b97f4a7c15ULL + lookup + 1);
  unit_energy = double(sm.Next() >> 11) * 0x1.0p-53;
  material = std::uint32_t(sm.Next() % params.n_materials);
}

namespace {

/// One lookup's macroscopic XS hash — identical arithmetic on host and
/// device keeps verification bit-exact.
std::uint64_t HashMacroXs(const double macro[kC]) {
  std::uint64_t h = kFnvOffset;
  for (std::uint32_t c = 0; c < kC; ++c) {
    h = HashCombine(h, std::uint64_t(std::llround(macro[c] * 1e8)));
  }
  return h;
}

}  // namespace

std::uint64_t XsHostReference(const XsParams& params) {
  using Key = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                         std::uint32_t, std::uint64_t>;
  const Key key{params.n_isotopes, params.n_gridpoints, params.n_materials,
                params.n_lookups, params.seed};
  return Memoized(key, [&params] {
    // The reference uses the canonical per-nuclide index search directly —
    // every acceleration structure must locate the same bracketing index, so
    // the hash is identical for all grid types (and the memo key needs none).
    XsParams canonical = params;
    canonical.grid_type = XsGridType::kNuclide;
    const XsData data = GenerateXsData(canonical);
    const std::uint32_t grid = params.n_gridpoints;
    const auto [emin_it, emax_it] = std::minmax_element(
        data.nuclide_energy.begin(), data.nuclide_energy.end());
    const double e0 = *emin_it;
    const double e_span = *emax_it - e0;

    std::uint64_t verification = 0;
    for (std::uint64_t l = 0; l < params.n_lookups; ++l) {
      double r;
      std::uint32_t mat;
      XsSampleLookup(params, l, r, mat);
      const double e = e0 + r * e_span;

      double macro[kC] = {0, 0, 0, 0, 0};
      for (std::uint32_t k = data.mat_offset[mat]; k < data.mat_offset[mat + 1];
           ++k) {
        const std::uint32_t n = data.mat_nuclide[k];
        const double density = data.mat_density[k];
        const double* e_grid = &data.nuclide_energy[std::size_t(n) * grid];
        // Canonical: largest idx with e_grid[idx] <= e, clamped to grid-2.
        std::uint32_t lo = 0, hi = grid - 1;
        while (hi - lo > 1) {
          const std::uint32_t mid = (lo + hi) / 2;
          if (e_grid[mid] <= e) lo = mid; else hi = mid;
        }
        const std::int32_t ig = std::int32_t(std::min(lo, grid - 2));
        const double f =
            (e - e_grid[ig]) / (e_grid[ig + 1] - e_grid[ig]);
        const double* xs =
            &data.nuclide_xs[(std::size_t(n) * grid + std::size_t(ig)) * kC];
        const double* xs_hi = xs + kC;
        for (std::uint32_t c = 0; c < kC; ++c) {
          macro[c] += density * (xs[c] + f * (xs_hi[c] - xs[c]));
        }
      }
      verification ^= HashMacroXs(macro);
    }
    return verification;
  });
}

namespace {

struct XsView {
  XsParams params;
  std::uint32_t n_union = 0;
  double e0 = 0, e_span = 0;
  DevicePtr<double> nuclide_energy, nuclide_xs, union_energy, mat_density;
  DevicePtr<std::int32_t> union_index, hash_index;
  DevicePtr<std::uint32_t> mat_offset, mat_nuclide;
  DevicePtr<std::uint64_t> out;
};

/// Locates the bracketing index for nuclide `n` at energy `e` through the
/// configured acceleration structure (timed device loads).
DeviceTask<std::int32_t> XsFindIndex(ThreadCtx& ctx, const XsView& v,
                                     std::uint32_t n, double e,
                                     std::uint32_t union_lo) {
  const std::uint32_t iso = v.params.n_isotopes;
  const std::uint32_t grid = v.params.n_gridpoints;
  switch (v.params.grid_type) {
    case XsGridType::kUnionized:
      // One table load; the union binary search happened once per lookup.
      co_return co_await ctx.Load(v.union_index +
                                  std::ptrdiff_t(union_lo) * iso + n);
    case XsGridType::kHash: {
      const double u = (e - v.e0) / v.e_span;
      const std::uint32_t bin = std::min(
          std::uint32_t(u * v.params.hash_bins), v.params.hash_bins - 1);
      std::int32_t idx =
          co_await ctx.Load(v.hash_index + std::ptrdiff_t(bin) * iso + n);
      auto e_grid = v.nuclide_energy + std::ptrdiff_t(n) * grid;
      // Bounded forward walk within the bin (dependent loads).
      while (idx < std::int32_t(grid) - 2) {
        const double next = co_await ctx.Load(e_grid + idx + 1);
        if (next > e) break;
        ++idx;
      }
      co_return idx;
    }
    case XsGridType::kNuclide: {
      // Canonical per-nuclide binary search (dependent loads).
      auto e_grid = v.nuclide_energy + std::ptrdiff_t(n) * grid;
      std::uint32_t lo = 0, hi = grid - 1;
      while (hi - lo > 1) {
        const std::uint32_t mid = (lo + hi) / 2;
        const double em = co_await ctx.Load(e_grid + mid);
        if (em <= e) lo = mid; else hi = mid;
      }
      co_return std::int32_t(std::min(lo, grid - 2));
    }
  }
  co_return 0;
}

/// The device lookup: timed binary search + gather + interpolation.
DeviceTask<void> XsDeviceLookup(ThreadCtx& ctx, const XsView& v,
                                std::uint64_t l) {
  double r;
  std::uint32_t mat;
  XsSampleLookup(v.params, l, r, mat);
  const double e = v.e0 + r * v.e_span;
  co_await ctx.Work(40);  // RNG + setup arithmetic

  // The unionized grid pays one binary search per lookup up front; the
  // other grid types locate indices per nuclide inside XsFindIndex.
  std::uint32_t union_lo = 0;
  if (v.params.grid_type == XsGridType::kUnionized) {
    std::uint32_t lo = 0, hi = v.n_union - 1;
    while (hi - lo > 1) {
      const std::uint32_t mid = (lo + hi) / 2;
      const double em = co_await ctx.Load(v.union_energy + mid);
      if (em <= e) lo = mid; else hi = mid;
    }
    union_lo = lo;
  }

  const std::uint32_t grid = v.params.n_gridpoints;
  const std::uint32_t begin = co_await ctx.Load(v.mat_offset + mat);
  const std::uint32_t end = co_await ctx.Load(v.mat_offset + mat + 1);

  double macro[kC] = {0, 0, 0, 0, 0};
  for (std::uint32_t k = begin; k < end; ++k) {
    const std::uint32_t n = co_await ctx.Load(v.mat_nuclide + k);
    const double density = co_await ctx.Load(v.mat_density + k);
    // The index lookup depends on the search; the bracketing energies and
    // the 2×5 XS values are then independent → one gather.
    const std::int32_t ig = co_await XsFindIndex(ctx, v, n, e, union_lo);
    auto e_grid = v.nuclide_energy + std::ptrdiff_t(n) * grid;
    auto xs =
        v.nuclide_xs + (std::ptrdiff_t(n) * grid + std::ptrdiff_t(ig)) * kC;
    auto values = ctx.Gather<double, 2 + 2 * kC>();
    values.Add(e_grid + ig);
    values.Add(e_grid + ig + 1);
    for (std::uint32_t c = 0; c < 2 * kC; ++c) values.Add(xs + c);
    co_await values;
    const double f = (e - values.Result(0)) / (values.Result(1) - values.Result(0));
    for (std::uint32_t c = 0; c < kC; ++c) {
      const double x_lo = values.Result(2 + c);
      const double x_hi = values.Result(2 + kC + c);
      macro[c] += density * (x_lo + f * (x_hi - x_lo));
    }
    co_await ctx.Work(30);  // interpolation FLOPs for this nuclide
  }
  co_await ctx.Store(v.out + l, HashMacroXs(macro));
}

DeviceTask<int> XsUserMain(AppEnv& env, ompx::TeamCtx& team, int argc,
                           DeviceArgv argv) {
  auto params_or = XsParams::Parse(ExtractOptionArgs(argc, argv));
  if (!params_or.ok()) co_return dgcf::kExitUsage;
  const XsParams params = *params_or;
  ThreadCtx& ctx = *team.hw;

  // --- Initialization (the app generates its own data, like XSBench) ------
  const XsData data = GenerateXsData(params);

  // Everything but the result buffer is read-only input; the optional
  // acceleration arrays are zero-size (never allocated) when unused.
  const std::vector<AppBuffer> layout{
      Input(data.nuclide_energy),
      Input(data.nuclide_xs),
      Input(data.union_energy),
      Input(data.union_index),
      Input(data.mat_offset),
      Input(data.mat_nuclide),
      Input(data.mat_density),
      Private(params.n_lookups * sizeof(std::uint64_t)),
      Input(data.hash_index),
  };
  const std::uint64_t key = SharedContentKey(
      "xsbench", {params.n_isotopes, params.n_gridpoints, params.n_materials,
                  params.hash_bins, std::uint64_t(params.grid_type),
                  params.seed});
  const AppBuffers setup =
      co_await AllocateAppBuffers(env, ctx, layout, key, "xsbench");
  if (!setup.ok) co_return dgcf::kExitNoMem;
  const std::vector<sim::DeviceBuffer>& buffers = setup.buffers;

  const auto [emin_it, emax_it] = std::minmax_element(
      data.nuclide_energy.begin(), data.nuclide_energy.end());

  XsView v;
  v.params = params;
  v.n_union = data.n_union();
  v.e0 = *emin_it;
  v.e_span = *emax_it - v.e0;
  v.nuclide_energy = buffers[0].Typed<double>();
  v.nuclide_xs = buffers[1].Typed<double>();
  v.union_energy = buffers[2].Typed<double>();
  v.union_index = buffers[3].Typed<std::int32_t>();
  v.hash_index = buffers[8].Typed<std::int32_t>();
  v.mat_offset = buffers[4].Typed<std::uint32_t>();
  v.mat_nuclide = buffers[5].Typed<std::uint32_t>();
  v.mat_density = buffers[6].Typed<double>();
  v.out = buffers[7].Typed<std::uint64_t>();

  // The input fill is charged as bulk work rather than per-element timed
  // stores (DESIGN.md §4). Attachers to shared segments skip it — the
  // materializer already filled them — and pay only for the result buffer.
  co_await ctx.Work(setup.fill_inputs ? params.DeviceBytes() / 64
                                       : setup.private_bytes / 64);

  // --- The measured kernel: lookups across the team's threads -------------
  co_await ompx::ParallelFor(
      team, params.n_lookups,
      [&](ThreadCtx& tctx, std::uint64_t l) -> DeviceTask<void> {
        co_await XsDeviceLookup(tctx, v, l);
      });

  // --- Verification: fold the per-lookup hashes (sequential epilogue) -----
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
        ctx, StrFormat("xsbench: %u lookups, verification %016llx\n",
                       params.n_lookups, (unsigned long long)verification));
  }

  co_await FreeAppBuffers(env, ctx, buffers);
  // Exit code encodes the verification outcome against the host reference.
  co_return verification == XsHostReference(params) ? dgcf::kExitOk : 1;
}

}  // namespace

void RegisterXsbench() {
  dgcf::AppRegistry::Instance().Register(
      {"xsbench", "XSBench: memory-bound macroscopic XS lookup (OpenMC proxy)",
       XsUserMain});
}

}  // namespace dgc::apps
