// ssbench: runs one benchmark workload and prints its raw measurements as
// one JSON document on stdout. perfbench/run.py builds this program, runs
// it and computes the reported metrics from the document.
//
//   ssbench --workload galaxy_1rank|cluster_4rank|supernova_sph
//           --seed N --seconds S --trace 0|1 --work-dir DIR
//           [--spans PATH]
//
// Exit codes: 0 measured (failures are counted in the document, not
// signalled), 2 bad arguments, 3 configuration refused (more threads than
// CPUs), 4 a workload failed outside any step.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "simd/isa.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/task_pool.hpp"

namespace ssbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

CpuTimes cpu_of(int who) {
  rusage ru{};
  getrusage(who, &ru);
  CpuTimes t;
  t.user = static_cast<double>(ru.ru_utime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec);
  t.sys = static_cast<double>(ru.ru_stime.tv_sec) +
          1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
  return t;
}

}  // namespace

CpuTimes process_cpu() { return cpu_of(RUSAGE_SELF); }
CpuTimes thread_cpu() { return cpu_of(RUSAGE_THREAD); }

double sampled_force_rel_rms(std::span<const ss::gravity::Source> src,
                             std::span<const ss::support::Vec3> acc,
                             double eps2,
                             std::span<const std::size_t> targets) {
  double err2 = 0.0, ref2 = 0.0;
  for (const std::size_t i : targets) {
    ss::support::Vec3 a;
    for (std::size_t j = 0; j < src.size(); ++j) {
      if (j == i) continue;
      const ss::support::Vec3 d = src[j].pos - src[i].pos;
      const double r2 = d.norm2() + eps2;
      a += (src[j].mass / (r2 * std::sqrt(r2))) * d;
    }
    err2 += (acc[i] - a).norm2();
    ref2 += a.norm2();
  }
  return std::sqrt(err2 / ref2);
}

std::vector<std::size_t> sample_targets(std::size_t n, std::size_t k,
                                        std::uint64_t seed) {
  std::vector<std::size_t> out(std::min(n, k));
  if (k >= n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = i;
    return out;
  }
  ss::support::Rng rng(seed ^ 0x7a46e75ULL);
  for (auto& i : out) i = static_cast<std::size_t>(rng.below(n));
  return out;
}

namespace {

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "ssbench: " << why
            << "\nusage: ssbench --workload galaxy_1rank|cluster_4rank|"
               "supernova_sph --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--spans PATH]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (a == "--work-dir") {
        o.work_dir = v;
      } else if (a == "--spans") {
        o.spans_path = v;
      } else {
        usage("unknown option " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.work_dir.empty()) usage("--work-dir is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  if (o.trace && o.spans_path.empty()) usage("--trace 1 needs --spans");
  return o;
}

void write_episode(ss::support::json::Writer& w, const Episode& e) {
  w.begin_object();
  w.kv("traced", e.traced);
  w.kv("setup_s", e.setup_s);
  w.kv("cpu_s", e.cpu_s);
  if (e.force_rel_rms >= 0.0) w.kv("force_rel_rms", e.force_rel_rms);
  w.key("steps");
  w.begin_array();
  for (const StepRecord& s : e.steps) {
    w.begin_object();
    w.kv("wall_s", s.wall_s);
    w.kv("vtime_s", s.vtime_s);
    w.kv("ok", s.ok);
    if (!s.ok) w.kv("error", s.error);
    w.end_object();
  }
  w.end_array();
  w.key("checks");
  w.begin_array();
  for (const Check& c : e.checks) {
    w.begin_object();
    w.kv("name", c.name);
    w.kv("value", c.value);
    w.kv("limit", c.limit);
    w.kv("ok", c.ok());
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace
}  // namespace ssbench

int main(int argc, char** argv) {
  using namespace ssbench;
  Options opt = parse(argc, argv);
  opt.nproc = usable_cpus();

  WorkloadFn fn = nullptr;
  Shape shape;
  if (opt.workload == "galaxy_1rank") {
    fn = run_galaxy;
    shape = galaxy_shape(opt.nproc);
  } else if (opt.workload == "cluster_4rank") {
    fn = run_cluster;
    shape = cluster_shape(opt.nproc);
  } else if (opt.workload == "supernova_sph") {
    fn = run_supernova;
    shape = supernova_shape(opt.nproc);
  } else {
    usage("unknown workload " + opt.workload);
  }
  if (shape.threads() > opt.nproc) {
    std::cerr << "ssbench: refusing " << opt.workload << ": " << shape.ranks
              << " rank thread(s) + " << shape.pool_threads - 1
              << " pool worker(s) exceed the " << opt.nproc
              << " usable CPU(s)\n";
    return 3;
  }
  // Episodes size the pool through the public API, so SS_POOL_THREADS
  // cannot change it; a run with that variable or SS_SIMD set is still
  // marked not comparable, since SS_SIMD does change the kernels.
  const bool env_pool = std::getenv("SS_POOL_THREADS") != nullptr;
  const bool env_simd = std::getenv("SS_SIMD") != nullptr;

  std::filesystem::create_directories(opt.work_dir);
  Tracer tracer;
  std::vector<Episode> episodes;
  try {
    // Time budget per episode; with tracing, episode 0 runs untraced as
    // the reference for the tracing overhead.
    const double budget = opt.seconds / kEpisodes;
    for (int e = 0; e < kEpisodes; ++e) {
      const bool traced = opt.trace && e > 0;
      tracer.set_run(e);
      Episode ep = fn(opt, shape, traced ? &tracer : nullptr, budget, e);
      ep.traced = traced;
      episodes.push_back(std::move(ep));
    }
  } catch (const std::exception& ex) {
    std::cerr << "ssbench: " << opt.workload << " failed: " << ex.what()
              << "\n";
    std::filesystem::remove_all(opt.work_dir);
    return 4;
  }
  std::filesystem::remove_all(opt.work_dir);

  if (opt.trace) {
    std::ofstream os(opt.spans_path);
    tracer.write_spans(os);
    if (!os) {
      std::cerr << "ssbench: cannot write " << opt.spans_path << "\n";
      return 4;
    }
  }

  ss::support::json::Writer w(std::cout, 0);
  w.begin_object();
  w.kv("workload", opt.workload);
  w.kv("seed", opt.seed);
  w.kv("seconds", opt.seconds);
  w.kv("traced", opt.trace);
  w.kv("bodies", static_cast<std::uint64_t>(shape.bodies));
  w.kv("peak_rss_mb", peak_rss_mb());
  w.key("fingerprint");
  w.begin_object();
  w.kv("nproc", opt.nproc);
  w.kv("simd", ss::simd::name(ss::simd::active()));
  w.kv("build_type", SSBENCH_BUILD_TYPE);
  w.kv("compiler", __VERSION__);
  w.kv("pool_threads", ss::support::TaskPool::global().size());
  w.kv("ranks", shape.ranks);
  w.kv("env_ss_pool_threads", env_pool);
  w.kv("env_ss_simd", env_simd);
  w.kv("comparable", !env_pool && !env_simd);
  w.end_object();
  w.key("episodes");
  w.begin_array();
  for (const Episode& e : episodes) write_episode(w, e);
  w.end_array();
  w.key("samples");
  w.begin_object();
  for (const auto& [name, values] : tracer.samples()) {
    w.key(name);
    w.begin_array();
    for (double v : values) w.value(v);
    w.end_array();
  }
  w.end_object();
  w.end_object();
  std::cout << std::endl;
  return 0;
}
