// galaxy_1rank: two disk galaxies on a collision course, stepped by the
// serial KDK leapfrog over the treecode (the examples/galaxy_collision
// path) with the task pool as wide as the CPUs. Gravity tiles, tree build
// and walk, the Morton sort and the pool do the work; vmpi, io and sph sit
// idle.
#include <cmath>
#include <exception>
#include <optional>
#include <vector>

#include "bench.hpp"
#include "hot/tree.hpp"
#include "nbody/galaxy.hpp"
#include "nbody/integrator.hpp"
#include "probes.hpp"

namespace ssbench {

namespace {

using ss::nbody::Body;
using ss::support::Vec3;

// 2 x (10923 disk + 21845 halo) = 65536 bodies: a working set above the
// per-core L2 and below the last-level cache.
constexpr int kDisk = 10923;
constexpr int kHalo = 21845;
constexpr double kTheta = 0.6;
constexpr double kEps2 = 1e-3;
constexpr double kDt = 0.04;
constexpr std::size_t kForceTargets = 4096;
// Budgets of the correctness checks (measured values sit well below).
constexpr double kForceRmsBudget = 1e-2;
constexpr double kEnergyDriftBound = 1e-2;
constexpr double kNominalStepS = 0.4;
// At least this many steps per episode; the force check runs after the
// last of them.
constexpr std::size_t kMinSteps = 4;

std::vector<Body> galaxy_pair(std::uint64_t seed) {
  ss::nbody::GalaxyConfig g;
  g.disk_particles = kDisk;
  g.halo_particles = kHalo;
  ss::support::Rng rng(seed);
  auto g1 = ss::nbody::make_galaxy(g, rng);
  auto g2 = ss::nbody::make_galaxy(g, rng);
  // Second disk tilted 45 degrees about x; the pair approaches on a bound
  // orbit (the geometry of examples/galaxy_collision).
  const double c = std::cos(M_PI / 4), s = std::sin(M_PI / 4);
  for (auto& b : g2) {
    b.pos = {b.pos.x, c * b.pos.y - s * b.pos.z, s * b.pos.y + c * b.pos.z};
    b.vel = {b.vel.x, c * b.vel.y - s * b.vel.z, s * b.vel.y + c * b.vel.z};
    b.pos += Vec3{1.5, 0.0, 0.0};
    b.vel += Vec3{-0.1, 0.25, 0.0};
  }
  for (auto& b : g1) {
    b.pos += Vec3{-1.5, 0.0, 0.0};
    b.vel += Vec3{0.1, -0.25, 0.0};
  }
  g1.insert(g1.end(), g2.begin(), g2.end());
  return g1;
}

/// nbody::tree_forces split at its public calls (tree build, then the
/// accelerate_all walk) so each gets a span and a sample.
void traced_tree_forces(Tracer* tr, const ss::nbody::TreeForceConfig& cfg,
                        const std::vector<Body>& bodies,
                        std::vector<ss::gravity::Accel>& acc,
                        double& force_s) {
  const double t0 = now_s();
  {
    Tracer::Span sf(tr, "nbody.force");
    const auto src = ss::nbody::sources_of(bodies);
    std::optional<ss::hot::Tree> tree;
    double t = now_s();
    {
      Tracer::Span s(tr, "hot.build");
      tree.emplace(src, cfg.tree);
    }
    tr->sample("hot.build_s", now_s() - t);
    ss::hot::AccelParams params;
    params.theta = cfg.theta;
    params.eps2 = cfg.eps2;
    params.method = cfg.method;
    params.far_field = cfg.far_field;
    params.p_order = cfg.p_order;
    ss::hot::TraverseStats st;
    std::vector<ss::gravity::Accel> sorted;
    t = now_s();
    {
      Tracer::Span s(tr, "hot.walk");
      sorted = tree->accelerate_all(params, &st);
    }
    const double walk = now_s() - t;
    tr->sample("hot.walk_s", walk);
    tr->sample("gravity.interactions",
               static_cast<double>(st.body_interactions +
                                   st.cell_interactions));
    tr->sample("gravity.gflops",
               1e-9 * static_cast<double>(st.flops()) / walk);
    acc.resize(bodies.size());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      acc[tree->original_index()[i]] = sorted[i];
    }
  }
  const double f = now_s() - t0;
  tr->sample("nbody.force_s", f);
  force_s += f;
}

}  // namespace

Shape galaxy_shape(int nproc) {
  return {1, nproc, static_cast<std::size_t>(2 * (kDisk + kHalo))};
}

Episode run_galaxy(const Options& opt, const Shape& shape, Tracer* tr,
                   double budget_s, int episode) {
  Episode ep;
  const double t_start = now_s();
  fresh_pool(shape.pool_threads);
  ss::nbody::TreeForceConfig fcfg;
  fcfg.theta = kTheta;
  fcfg.eps2 = kEps2;
  double force_s = 0.0;  // traced: force time inside the current step
  ss::nbody::ForceFunc force;
  if (tr == nullptr) {
    force = [fcfg](const std::vector<Body>& b,
                   std::vector<ss::gravity::Accel>& acc) {
      ss::nbody::tree_forces(b, fcfg, acc);
    };
  } else {
    force = [&](const std::vector<Body>& b,
                std::vector<ss::gravity::Accel>& acc) {
      traced_tree_forces(tr, fcfg, b, acc, force_s);
    };
  }
  ss::nbody::Leapfrog sim(galaxy_pair(opt.seed), force);
  const double e0 = sim.current_energies().total();
  ep.setup_s = now_s() - t_start;

  std::vector<ss::gravity::Source> checked;
  std::vector<Vec3> acc(sim.bodies().size());
  PoolUse pool;
  const std::size_t nsteps = episode_steps(budget_s, kNominalStepS, kMinSteps);
  while (ep.steps.size() < nsteps) {
    StepRecord rec;
    force_s = 0.0;
    const PoolReading p0 = PoolReading::now();
    const double c0 = process_cpu().total();
    const double w0 = now_s();
    try {
      Tracer::Span s(tr, "nbody.step");
      sim.step(kDt);
    } catch (const std::exception& ex) {
      rec.ok = false;
      rec.error = ex.what();
    }
    rec.wall_s = now_s() - w0;
    ep.cpu_s += process_cpu().total() - c0;
    pool.add(p0, PoolReading::now());
    ep.steps.push_back(rec);
    if (!rec.ok) break;
    if (episode == 0 && ep.steps.size() == kMinSteps) {
      // The force check looks at a fixed step, so a seed always checks
      // the same forces whatever the run length.
      checked = ss::nbody::sources_of(sim.bodies());
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] = sim.accel()[i].a;
    }
    if (tr != nullptr) {
      tr->sample("nbody.kick_drift_s", rec.wall_s - force_s);
      probe_morton_sort(tr, ss::nbody::sources_of(sim.bodies()));
    }
  }
  pool.sample(tr);

  if (!ep.steps.back().ok) return ep;
  if (episode == 0) {
    ep.force_rel_rms = sampled_force_rel_rms(
        checked, acc, kEps2,
        sample_targets(checked.size(), kForceTargets, opt.seed));
    ep.checks.push_back({"force_rel_rms", ep.force_rel_rms, kForceRmsBudget});
  }
  const double e1 = sim.current_energies().total();
  ep.checks.push_back(
      {"energy_drift", std::abs(e1 - e0) / std::abs(e0), kEnergyDriftBound});
  return ep;
}

}  // namespace ssbench
