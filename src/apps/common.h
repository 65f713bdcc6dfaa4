// Shared helpers for the device-compiled mini-apps.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
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

/// Registers every bundled application with the AppRegistry. Idempotent.
/// Call from tests/benches/examples before using app names — static
/// registration alone can be dropped by the linker for static libraries.
void RegisterAllApps();

}  // namespace dgc::apps
