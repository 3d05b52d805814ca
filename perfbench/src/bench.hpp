// Shared types of the ssbench program: command-line options, the raw
// per-episode record each workload returns, and host clocks.
//
// ssbench measures; perfbench/run.py turns the raw record into metrics.
// An *episode* is one complete set-up (inputs, runtime, first force
// evaluation) followed by a fixed number of timed steps. A run repeats
// episodes from the same inputs, so set-up is sampled several times and
// every episode times the same stretch of the trajectory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gravity/kernels.hpp"
#include "support/vec3.hpp"
#include "trace.hpp"

namespace ssbench {

/// Episodes per run: set-up is sampled this many times. A traced run
/// spends the first one untraced, as the tracing-overhead reference.
inline constexpr int kEpisodes = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;   ///< Run length; sets the step count.
  bool trace = false;
  int nproc = 1;           ///< CPUs this process may run on.
  std::string work_dir;    ///< Scratch directory (checkpoints).
  std::string spans_path;  ///< Where the traced run writes its spans.
};

/// Threads a workload runs: rank threads, and the size of the process-wide
/// task pool (whose calling thread is a rank thread, so it adds
/// pool_threads - 1 workers).
struct Shape {
  int ranks = 1;
  int pool_threads = 1;
  std::size_t bodies = 0;
  int threads() const { return ranks + pool_threads - 1; }
};

struct StepRecord {
  double wall_s = 0.0;
  double vtime_s = 0.0;  ///< Modelled cluster seconds (cluster only).
  bool ok = true;
  std::string error;
};

/// One correctness check: passes when value <= limit.
struct Check {
  std::string name;
  double value = 0.0;
  double limit = 0.0;
  bool ok() const { return value <= limit; }
};

struct Episode {
  bool traced = false;
  double setup_s = 0.0;
  double cpu_s = 0.0;  ///< Process user+sys CPU over the timed steps.
  std::vector<StepRecord> steps;
  std::vector<Check> checks;
  /// < 0: not measured. The force check is deterministic for a seed, so
  /// only episode 0 runs it.
  double force_rel_rms = -1.0;
};

/// Steps an episode runs: as many as its time budget buys at the
/// workload's nominal step time on the reference host (4-core AVX-512
/// Xeon), and at least `min_steps`. A fixed count rather than a deadline,
/// so every run of a seed does the same work and a slower or busier host
/// shows up as longer steps, not as a different stretch of trajectory.
inline std::size_t episode_steps(double budget_s, double nominal_step_s,
                                 std::size_t min_steps) {
  const auto n = static_cast<std::size_t>(budget_s / nominal_step_s + 0.5);
  return n > min_steps ? n : min_steps;
}

/// Runs one episode. `tr` is null for untraced episodes; `budget_s` is the
/// episode's share of --seconds (see episode_steps).
using WorkloadFn = Episode (*)(const Options& opt, const Shape& shape,
                               Tracer* tr, double budget_s, int episode);

Shape galaxy_shape(int nproc);
Shape cluster_shape(int nproc);
Shape supernova_shape(int nproc);
Episode run_galaxy(const Options&, const Shape&, Tracer*, double, int);
Episode run_cluster(const Options&, const Shape&, Tracer*, double, int);
Episode run_supernova(const Options&, const Shape&, Tracer*, double, int);

// -- host clocks -------------------------------------------------------------

/// Monotonic seconds (steady_clock).
double now_s();

struct CpuTimes {
  double user = 0.0;
  double sys = 0.0;
  double total() const { return user + sys; }
};
CpuTimes process_cpu();  ///< RUSAGE_SELF: every thread of the process.
CpuTimes thread_cpu();   ///< RUSAGE_THREAD: the calling thread only.

/// Relative RMS force error over `targets`: sqrt(sum |acc[i] - a_direct(i)|^2
/// / sum |a_direct(i)|^2), where a_direct is the softened direct sum over
/// every source except i itself. Normalizing by the summed reference (not
/// per target) keeps a few near-zero fields from dominating the figure.
/// The oracle for the force_rel_rms metric.
double sampled_force_rel_rms(std::span<const ss::gravity::Source> src,
                             std::span<const ss::support::Vec3> acc,
                             double eps2,
                             std::span<const std::size_t> targets);

/// `k` indices below n drawn from `seed` (the force-check sample); all of
/// them, in order, when k >= n.
std::vector<std::size_t> sample_targets(std::size_t n, std::size_t k,
                                        std::uint64_t seed);

}  // namespace ssbench
