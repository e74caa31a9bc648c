// Worker count for the simulator's one parallelism mechanism.
//
// engine::Executor is the only place that runs work in parallel: it spreads
// protocol runs over shard threads. Protocol code itself is serial: a
// round's per-member work runs on the calling thread (a ProtocolRun's
// thread under the engine), in member order.
//
// IDGKA_THREADS sets only the executor's default shard count. Results do not
// depend on it: the protocols draw randomness from per-member DRBGs, and the
// determinism contract holds for every value (including IDGKA_THREADS=1).
#pragma once

#include <cstddef>

namespace idgka::net {

/// Default shard count for engine::Executor (reads the IDGKA_THREADS
/// environment variable once; defaults to the hardware concurrency, capped
/// at 16).
std::size_t worker_count();

}  // namespace idgka::net
