#include "apps/pagerank.h"

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

std::uint64_t HashRanks(const double* r, std::uint64_t n) {
  std::uint64_t h = kFnvOffset;
  for (std::uint64_t i = 0; i < n; ++i) {
    h = HashCombine(h, std::uint64_t(std::llround(r[i] * 1e12)));
  }
  return h;
}

void HostPropagate(const PrParams& params, const PrData& data,
                   const std::vector<double>& in, std::vector<double>& out) {
  const double base = (1.0 - params.damping) / params.n_nodes;
  for (std::uint32_t v = 0; v < params.n_nodes; ++v) {
    double acc = 0;
    for (std::uint32_t k = data.row_ptr[v]; k < data.row_ptr[v + 1]; ++k) {
      const std::uint32_t u = data.src[k];
      acc += in[u] / double(data.out_degree[u]);
    }
    out[v] = base + params.damping * acc;
  }
}

}  // namespace

StatusOr<PrParams> PrParams::Parse(const std::vector<std::string>& args) {
  PrParams p;
  std::int64_t seed = std::int64_t(p.seed);
  ArgParser parser("Page-Rank: propagation step on a power-law graph");
  parser.AddInt("nodes", 'g', "graph nodes", &p.n_nodes, 2)
      .AddInt("degree", 'd', "average in-degree", &p.avg_degree, 1)
      .AddInt("iterations", 'k', "propagation steps", &p.iterations, 1)
      .AddDouble("damping", 'a', "damping factor", &p.damping, 0.0, 1.0)
      .AddInt("seed", 's', "workload seed", &seed)
      .AddFlag("verbose", 'v', "print results via device printf", &p.verbose);
  DGC_RETURN_IF_ERROR(parser.Parse(args));
  p.seed = std::uint64_t(seed);
  return p;
}

std::uint64_t PrParams::DeviceBytes() const {
  const std::uint64_t edges = std::uint64_t(n_nodes) * avg_degree;
  return (n_nodes + 1) * sizeof(std::uint32_t)       // row_ptr
         + edges * sizeof(std::uint32_t)             // src
         + n_nodes * sizeof(std::uint32_t)           // out_degree
         + 2 * n_nodes * sizeof(double)              // rank ping-pong
         + 64 * kKiB;
}

PrData GeneratePrData(const PrParams& params) {
  Rng rng(params.seed);
  PrData data;
  const std::uint32_t n = params.n_nodes;
  data.row_ptr.reserve(n + 1);
  data.row_ptr.push_back(0);
  data.out_degree.assign(n, 0);

  for (std::uint32_t v = 0; v < n; ++v) {
    // In-degree varies around the average; sources are skewed toward low
    // node ids (r² sampling) so a few hubs dominate, power-law style.
    const std::uint32_t deg =
        1 + std::uint32_t(rng.NextBounded(2 * params.avg_degree - 1));
    for (std::uint32_t e = 0; e < deg; ++e) {
      const double r = rng.NextDouble();
      const std::uint32_t u = std::uint32_t(double(n) * r * r) % n;
      data.src.push_back(u);
      ++data.out_degree[u];
    }
    data.row_ptr.push_back(std::uint32_t(data.src.size()));
  }
  // Dangling nodes (no out-edges) would divide by zero in the propagation;
  // the HeCBench kernel clamps them the same way.
  for (auto& d : data.out_degree) d = std::max(d, 1u);
  data.rank.assign(n, 1.0 / double(n));
  return data;
}

std::uint64_t PrHostReference(const PrParams& params) {
  using Key = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                         std::int64_t, std::uint64_t>;
  const Key key{params.n_nodes, params.avg_degree, params.iterations,
                std::llround(params.damping * 1e9), params.seed};
  return Memoized(key, [&params] {
    const PrData data = GeneratePrData(params);
    std::vector<double> r = data.rank;
    std::vector<double> next(r.size());
    for (std::uint32_t it = 0; it < params.iterations; ++it) {
      HostPropagate(params, data, r, next);
      std::swap(r, next);
    }
    return HashRanks(r.data(), r.size());
  });
}

namespace {

struct PrView {
  PrParams params;
  DevicePtr<std::uint32_t> row_ptr, src, out_degree;
  DevicePtr<double> rank_in, rank_out;
};

/// One destination node of the propagation step: the irregular gather
/// (rank[src] / out_degree[src]) over the in-edges.
DeviceTask<void> PropagateNode(ThreadCtx& ctx, const PrView& view,
                               std::uint64_t v, DevicePtr<double> rank_in,
                               DevicePtr<double> rank_out) {
  auto header = ctx.LoadRun<2>(view.row_ptr + v, 2);
  co_await header;
  const std::uint32_t begin = header.Result(0);
  const std::uint32_t end = header.Result(1);
  double acc = 0;
  for (std::uint32_t k = begin; k < end; k += sim::detail::kMaxGather) {
    const std::uint32_t chunk =
        std::min<std::uint32_t>(end - k, sim::detail::kMaxGather);
    auto srcs = ctx.LoadRun(view.src + k, chunk);  // streaming run
    co_await srcs;
    auto ranks = ctx.Gather<double>();     // the irregular gather
    auto degs = ctx.Gather<std::uint32_t>();
    for (std::uint32_t j = 0; j < chunk; ++j) {
      ranks.Add(rank_in + srcs.Result(j));
      degs.Add(view.out_degree + srcs.Result(j));
    }
    co_await ranks;
    co_await degs;
    for (std::uint32_t j = 0; j < chunk; ++j) {
      acc += ranks.Result(j) / double(degs.Result(j));
    }
  }
  co_await ctx.Work(3 * (end - begin) + 8);
  const double base = (1.0 - view.params.damping) / view.params.n_nodes;
  co_await ctx.Store(rank_out + v, base + view.params.damping * acc);
}

DeviceTask<int> PrUserMain(AppEnv& env, ompx::TeamCtx& team, int argc,
                           DeviceArgv argv) {
  auto params_or = PrParams::Parse(ExtractOptionArgs(argc, argv));
  if (!params_or.ok()) co_return dgcf::kExitUsage;
  const PrParams params = *params_or;
  ThreadCtx& ctx = *team.hw;
  const std::uint64_t n = params.n_nodes;

  const PrData data = GeneratePrData(params);
  // The graph (CSR row_ptr/src/out_degree) is read-only input; the rank
  // ping-pong buffers are written every iteration and stay per-instance.
  const std::vector<AppBuffer> layout{
      Input(data.row_ptr),
      Input(data.src),
      Input(data.out_degree),
      Private(n * sizeof(double)),  // rank_in
      Private(n * sizeof(double)),  // rank_out
  };
  const std::uint64_t key = SharedContentKey(
      "pagerank",
      {std::uint64_t(params.n_nodes), params.avg_degree, params.seed});
  const AppBuffers setup =
      co_await AllocateAppBuffers(env, ctx, layout, key, "pagerank");
  if (!setup.ok) co_return dgcf::kExitNoMem;
  const std::vector<sim::DeviceBuffer>& buffers = setup.buffers;

  PrView view;
  view.params = params;
  view.row_ptr = buffers[0].Typed<std::uint32_t>();
  view.src = buffers[1].Typed<std::uint32_t>();
  view.out_degree = buffers[2].Typed<std::uint32_t>();
  view.rank_in = buffers[3].Typed<double>();
  view.rank_out = buffers[4].Typed<double>();

  // The rank seed is per-instance state (the ping-pong buffers are private
  // even in shared mode), so every instance fills it.
  std::copy(data.rank.begin(), data.rank.end(), view.rank_in.host);
  co_await ctx.Work(setup.fill_inputs ? params.DeviceBytes() / 64
                                       : setup.private_bytes / 64);

  DevicePtr<double> rank_in = view.rank_in, rank_out = view.rank_out;
  for (std::uint32_t it = 0; it < params.iterations; ++it) {
    co_await ompx::ParallelFor(
        team, n, [&](ThreadCtx& tctx, std::uint64_t v) -> DeviceTask<void> {
          co_await PropagateNode(tctx, view, v, rank_in, rank_out);
        });
    std::swap(rank_in, rank_out);
  }

  std::uint64_t verification = kFnvOffset;
  for (std::uint64_t i = 0; i < n; i += sim::detail::kMaxGather) {
    const std::uint32_t chunk =
        std::uint32_t(std::min<std::uint64_t>(n - i, sim::detail::kMaxGather));
    auto results = ctx.LoadRun(rank_in + i, chunk);
    co_await results;
    for (std::uint32_t j = 0; j < chunk; ++j) {
      verification = HashCombine(
          verification, std::uint64_t(std::llround(results.Result(j) * 1e12)));
    }
  }
  if (params.verbose) {
    co_await env.rpc->Print(
        ctx, StrFormat("pagerank: %llu nodes, %u steps, verification %016llx\n",
                       (unsigned long long)n, params.iterations,
                       (unsigned long long)verification));
  }
  co_await FreeAppBuffers(env, ctx, buffers);
  co_return verification == PrHostReference(params) ? dgcf::kExitOk : 1;
}

}  // namespace

void RegisterPagerank() {
  dgcf::AppRegistry::Instance().Register(
      {"pagerank",
       "Page-Rank: propagation step on a synthetic power-law graph",
       PrUserMain});
}

}  // namespace dgc::apps
