#pragma once

/// \file workloads.hpp
/// The four workloads.  Each one generates its inputs from the seed, sets
/// malsched up (timed as setup_s), drives it closed-loop for
/// Options::seconds, and checks every output outside the timed window.
/// Untraced runs report the end-to-end metrics; traced runs (--trace 1)
/// repeat the window with spans on, then time the per-layer calls on a fixed
/// probe set of the workload's own inputs.

#include "common.hpp"

namespace perfbench {

/// `optimal` on distinct instances spanning the n! enumeration / B&B
/// crossover, through a 2-worker production Scheduler.  Loads core and lp.
void run_exact(const Options& options, Report& report);

/// Cheap solvers on zipf-popular bases arriving in fresh units and task
/// orders, through service::solve_cached on a cache smaller than the
/// distinct footprint.  Loads service (canonicalize, cache) and sim.
void run_zipf_repeat(const Options& options, Report& report);

/// Distinct instances through ShardRouter::run over 2 forked shm shards.
/// Loads shard and net, plus the dense simplex of order-lp-smith.
void run_fleet_miss(const Options& options, Report& report);

/// Back-to-back online::replay over seeded arrival traces.  Loads online.
void run_online_replay(const Options& options, Report& report);

/// Shared by the in-process workloads: the seeded item streams.
enum Stream : std::uint64_t {
  kExactStream = 1,
  kZipfBaseStream = 2,
  kZipfArrivalStream = 3,
  kFleetStream = 4,
  kOnlineStream = 5,
};

/// Check threads used outside the timed window.
inline constexpr unsigned kCheckThreads = 4;

}  // namespace perfbench
