// Shared helpers for the device-compiled mini-apps.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "dgcf/app.h"
#include "dgcf/libc.h"
#include "support/status.h"

namespace dgc::apps {

/// Copies a device argv into host strings without argv[0], the form
/// ArgParser expects (an untimed setup path; see dgcf/libc.h).
std::vector<std::string> ExtractOptionArgs(int argc, dgcf::DeviceArgv argv);

/// FNV-1a, used for the apps' verification checksums — matching the proxy
/// apps' habit of printing a verification hash of all results.
std::uint64_t HashCombine(std::uint64_t h, std::uint64_t v);
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// Content key for an app's shared read-only input segments
/// (DeviceLibc::AcquireSharedGroup): hashes the app tag plus every
/// data-determining parameter, so instances share storage iff they would
/// generate byte-identical inputs.
std::uint64_t SharedContentKey(std::string_view app,
                               std::initializer_list<std::uint64_t> fields);

/// One device buffer of an app's setup: its size, and for read-only input
/// (shareable across identical instances) the host bytes it starts with.
struct AppBuffer {
  std::uint64_t bytes = 0;
  const void* src = nullptr;
  bool input = false;
};

/// A read-only input buffer initialized from `host`.
template <typename T>
AppBuffer Input(const std::vector<T>& host) {
  return {host.size() * sizeof(T), host.data(), true};
}

/// A per-instance buffer the app initializes (or writes) itself.
inline AppBuffer Private(std::uint64_t bytes) {
  return {bytes, nullptr, false};
}

/// The buffers AllocateAppBuffers placed, in the order they were declared.
/// Zero-size buffers stay null. `fill_inputs` is false only when every
/// input attached to segments another instance already filled;
/// `private_bytes` sums the private buffers (an attacher's fill cost).
struct AppBuffers {
  std::vector<sim::DeviceBuffer> buffers;
  bool fill_inputs = true;
  std::uint64_t private_bytes = 0;
  bool ok = false;
};

/// Places an app's device buffers, declared in its share-off allocation
/// order, and copies the inputs in when this instance materializes them.
/// Share off: one Malloc per non-zero-size buffer, in order. Share on: one
/// AcquireSharedGroup(key, label) over the input sizes in order, then one
/// Malloc per private buffer. Every Malloc is attempted even after one
/// fails; on any failure every held buffer is freed in order and `ok` is
/// false (the app exits kExitNoMem). A materializer copies shared inputs
/// in before it next suspends, so an attacher never sees them unfilled.
sim::DeviceTask<AppBuffers> AllocateAppBuffers(
    dgcf::AppEnv& env, sim::ThreadCtx& ctx,
    const std::vector<AppBuffer>& layout, std::uint64_t key,
    const char* label);

/// Frees the non-null buffers in order (shared inputs drop a reference).
sim::DeviceTask<void> FreeAppBuffers(
    dgcf::AppEnv& env, sim::ThreadCtx& ctx,
    const std::vector<sim::DeviceBuffer>& buffers);

/// Memoizes a host reference by key: the ensemble harness re-verifies many
/// instances against the same handful of parameter sets. Each call site
/// (its own `compute` lambda type) owns one mutex-guarded table, safe for
/// concurrent sweep workers; a miss computes outside the lock, so two
/// workers may duplicate the same deterministic value.
template <typename Key, typename Compute>
std::invoke_result_t<Compute&> Memoized(const Key& key, Compute compute) {
  using Value = std::invoke_result_t<Compute&>;
  static std::mutex mutex;
  static std::map<Key, Value> memo;
  {
    std::lock_guard<std::mutex> lock(mutex);
    if (auto it = memo.find(key); it != memo.end()) return it->second;
  }
  const Value value = compute();
  std::lock_guard<std::mutex> lock(mutex);
  memo.emplace(key, value);
  return value;
}

/// Registers every bundled application with the AppRegistry. Idempotent.
/// Call from tests/benches/examples before using app names — static
/// registration alone can be dropped by the linker for static libraries.
void RegisterAllApps();

}  // namespace dgc::apps
