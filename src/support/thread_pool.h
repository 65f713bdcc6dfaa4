// Host-side concurrency for running independent jobs at once: the parallel
// Fig. 6 sweep runner (ensemble::RunSweeps) and dgc-serve's launches that
// start in the same scheduling pass (serve::Scheduler).
//
// Jobs start in index order; completion order is up to the host scheduler,
// so callers that need deterministic output write results into
// pre-assigned slots and assemble them once every job has finished
// (exactly what the sweep runner and the serve scheduler do).
#pragma once

#include <cstddef>
#include <functional>

#include "support/status.h"

namespace dgc {

/// max(1, std::thread::hardware_concurrency()).
unsigned DefaultThreads();

/// Runs body(0), ..., body(count-1) to completion.
///
/// `threads` <= 1 runs inline in index order, with no extra thread, and
/// throws at the first failing index. Otherwise min(threads, count) - 1
/// temporary threads plus the calling thread pull indices from one counter,
/// so bodies start in index order (largest-first schedules rely on it).
/// The caller always takes part, so a nested call from inside another
/// ParallelFor's body makes progress on its own. Every index runs; then the
/// exception of the smallest failing index is rethrown.
///
/// Rejects count == 0 and a null body with kInvalidArgument before anything
/// runs.
Status ParallelFor(std::size_t count, unsigned threads,
                   const std::function<void(std::size_t)>& body);

}  // namespace dgc
