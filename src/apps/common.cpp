#include "apps/common.h"

#include <cstring>

#include "apps/amgmk.h"
#include "apps/pagerank.h"
#include "apps/rsbench.h"
#include "apps/xsbench.h"

namespace dgc::apps {

std::vector<std::string> ExtractOptionArgs(int argc, dgcf::DeviceArgv argv) {
  std::vector<std::string> out;
  out.reserve(argc > 0 ? std::size_t(argc) - 1 : 0);
  for (int i = 1; i < argc; ++i) {
    out.push_back(dgcf::DeviceLibc::ToString(argv[i]));
  }
  return out;
}

std::uint64_t HashCombine(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t SharedContentKey(std::string_view app,
                               std::initializer_list<std::uint64_t> fields) {
  std::uint64_t h = kFnvOffset;
  for (const char c : app) h = HashCombine(h, std::uint64_t(std::uint8_t(c)));
  for (const std::uint64_t f : fields) h = HashCombine(h, f);
  return h;
}

namespace {

/// Host-side copy of every non-empty input (untimed setup, DESIGN.md §4).
void CopyInputs(const std::vector<AppBuffer>& layout,
                const std::vector<sim::DeviceBuffer>& buffers) {
  for (std::size_t i = 0; i < layout.size(); ++i) {
    if (layout[i].input && layout[i].bytes != 0) {
      std::memcpy(buffers[i].host, layout[i].src, layout[i].bytes);
    }
  }
}

}  // namespace

sim::DeviceTask<AppBuffers> AllocateAppBuffers(
    dgcf::AppEnv& env, sim::ThreadCtx& ctx,
    const std::vector<AppBuffer>& layout, std::uint64_t key,
    const char* label) {
  AppBuffers out;
  out.buffers.resize(layout.size());
  if (env.share_data) {
    std::vector<std::uint64_t> input_sizes;
    for (const AppBuffer& b : layout) {
      if (b.input) input_sizes.push_back(b.bytes);
    }
    auto group =
        co_await env.libc->AcquireSharedGroup(ctx, key, input_sizes, label);
    if (!group.ok) co_return AppBuffers{};
    std::size_t next_input = 0;
    for (std::size_t i = 0; i < layout.size(); ++i) {
      if (layout[i].input) out.buffers[i] = group.buffers[next_input++];
    }
    out.fill_inputs = group.first;
    if (out.fill_inputs) CopyInputs(layout, out.buffers);
  }
  bool oom = false;
  for (std::size_t i = 0; i < layout.size(); ++i) {
    const AppBuffer& b = layout[i];
    if (!b.input) out.private_bytes += b.bytes;
    if (b.bytes == 0 || (env.share_data && b.input)) continue;
    out.buffers[i] = co_await env.libc->Malloc(ctx, b.bytes);
    if (out.buffers[i].host == nullptr) oom = true;
  }
  if (oom) {
    co_await FreeAppBuffers(env, ctx, out.buffers);
    co_return AppBuffers{};
  }
  if (!env.share_data) CopyInputs(layout, out.buffers);
  out.ok = true;
  co_return out;
}

sim::DeviceTask<void> FreeAppBuffers(
    dgcf::AppEnv& env, sim::ThreadCtx& ctx,
    const std::vector<sim::DeviceBuffer>& buffers) {
  for (const sim::DeviceBuffer& b : buffers) {
    if (b.host != nullptr) co_await env.libc->Free(ctx, b.addr);
  }
}

void RegisterAllApps() {
  RegisterXsbench();
  RegisterRsbench();
  RegisterAmgmk();
  RegisterPagerank();
}

}  // namespace dgc::apps
