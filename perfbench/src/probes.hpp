// Layer probes shared by the workloads' traced episodes: each replays one
// public call of a layer on the workload's current state, under a span,
// and records the per-layer sample. Probes run between timed steps, so
// they never count toward a step's wall time.
#pragma once

#include <span>

#include "gravity/kernels.hpp"
#include "trace.hpp"

namespace ssbench {

/// morton.sort_s: Morton keys of `src` in its bounding box, then the
/// scratch-reusing radix_sort_permutation the tree build uses.
void probe_morton_sort(Tracer* tr, std::span<const ss::gravity::Source> src);

/// Replace the process-wide task pool by a fresh one of `threads`, so its
/// construction is part of set-up and its statistics restart.
void fresh_pool(int threads);

/// Reading of the global pool's statistics since fresh_pool().
struct PoolReading {
  double t = 0.0;
  double busy_s = 0.0;  ///< Busy thread-seconds (utilization x wall x size).
  double steals_failed = 0.0;
  static PoolReading now();
};

/// Accumulates pool activity over the timed steps only and records
/// support.pool_utilization and support.pool_steals_failed (per step).
class PoolUse {
 public:
  void add(const PoolReading& before, const PoolReading& after);
  void sample(Tracer* tr) const;

 private:
  double wall_s_ = 0.0;
  double busy_s_ = 0.0;
  double steals_failed_ = 0.0;
  int steps_ = 0;
};

}  // namespace ssbench
