// supernova_sph: the Fig 8 rotating core collapse (collapse EOS, flux-
// limited neutrino diffusion on), stepped by the serial SphSim. It uses the
// same hot::Tree as galaxy_1rank in another way: range queries
// (neighbors_within) and per-particle point walks (Tree::accelerate), never
// the tiled accelerate_all walk.
#include <algorithm>
#include <cmath>
#include <exception>
#include <optional>
#include <vector>

#include "bench.hpp"
#include "hot/tree.hpp"
#include "probes.hpp"
#include "sph/collapse.hpp"
#include "sph/eos.hpp"
#include "sph/kernel.hpp"
#include "sph/sph.hpp"

namespace ssbench {

namespace {

using ss::sph::Particle;

constexpr int kParticles = 4000;
constexpr std::size_t kForceTargets = kParticles;
constexpr double kForceRmsBudget = 2e-2;
constexpr double kJzTolerance = 1e-3;  // |J_z / J_z(0) - 1| on every step
// |F| <= c E on every step. lambda(R) R <= 1 holds exactly; the computed
// product can round above 1, by the same 1e-9 the SPH unit tests allow.
constexpr double kFluxRatioLimit = 1.0 + 1e-9;
constexpr double kNominalStepS = 0.125;
// At least this many steps per episode; the force check runs after the
// last of them.
constexpr std::size_t kMinSteps = 4;

ss::sph::SphConfig sph_config() {
  ss::sph::SphConfig cfg;
  cfg.fld.emissivity = 0.3;
  cfg.fld.u_threshold = 0.05;
  cfg.fld.opacity = 50.0;
  return cfg;
}

ss::sph::EosFunc collapse_eos() {
  const auto eos = ss::sph::make_collapse_eos(1.0, 1.0, 0.25, 20.0);
  return [eos](double rho, double u) { return eos(rho, u); };
}

std::vector<ss::gravity::Source> sources_of(const std::vector<Particle>& ps) {
  std::vector<ss::gravity::Source> src(ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) src[i] = {ps[i].pos, ps[i].mass};
  return src;
}

/// Replays the step's tree usage on the current particles: the density
/// pass (an SphSim construction runs exactly one), the tree build, the
/// range queries of the pair search and the self-gravity point walks.
void probe_layers(Tracer* tr, const ss::sph::SphSim& sim,
                  const ss::sph::SphConfig& cfg) {
  const auto& ps = sim.particles();
  double t = now_s();
  {
    Tracer::Span s(tr, "sph.density");
    const ss::sph::SphSim density(ps, collapse_eos(), cfg);
  }
  tr->sample("sph.density_s", now_s() - t);

  const auto src = sources_of(ps);
  probe_morton_sort(tr, src);
  t = now_s();
  std::optional<ss::hot::Tree> tree;
  {
    Tracer::Span s(tr, "hot.build");
    tree.emplace(src, ss::hot::TreeConfig{16});
  }
  tr->sample("hot.build_s", now_s() - t);

  t = now_s();
  {
    Tracer::Span s(tr, "hot.neighbors");
    for (const Particle& p : ps) {
      (void)tree->neighbors_within(p.pos,
                                   2.0 * ss::sph::kernel_support(p.h));
    }
  }
  tr->sample("hot.neighbors_s", now_s() - t);

  ss::hot::TraverseStats st;
  const double eps2 = cfg.eps_grav * cfg.eps_grav;
  t = now_s();
  {
    Tracer::Span s(tr, "hot.point_walk");
    for (const Particle& p : ps) {
      (void)tree->accelerate(p.pos, cfg.theta, eps2,
                             ss::gravity::RsqrtMethod::libm, &st);
    }
  }
  const double walk = now_s() - t;
  tr->sample("hot.point_walk_s", walk);
  tr->sample("gravity.interactions",
             static_cast<double>(st.body_interactions + st.cell_interactions));
  tr->sample("gravity.gflops", 1e-9 * static_cast<double>(st.flops()) / walk);
}

/// The self-gravity accuracy of the point walks SphSim uses, at the
/// sampled targets.
double gravity_rel_rms(const std::vector<Particle>& ps,
                       const ss::sph::SphConfig& cfg, std::uint64_t seed) {
  const auto src = sources_of(ps);
  const ss::hot::Tree tree(src, ss::hot::TreeConfig{16});
  const double eps2 = cfg.eps_grav * cfg.eps_grav;
  const auto targets = sample_targets(src.size(), kForceTargets, seed);
  std::vector<ss::support::Vec3> acc(src.size());
  for (const std::size_t i : targets) {
    acc[i] = tree.accelerate(src[i].pos, cfg.theta, eps2).a;
  }
  return sampled_force_rel_rms(src, acc, eps2, targets);
}

}  // namespace

Shape supernova_shape(int nproc) {
  return {1, nproc, static_cast<std::size_t>(kParticles)};
}

Episode run_supernova(const Options& opt, const Shape& shape, Tracer* tr,
                      double budget_s, int episode) {
  Episode ep;
  const double t_start = now_s();
  fresh_pool(shape.pool_threads);
  ss::sph::CollapseConfig ccfg;
  ccfg.particles = kParticles;
  ccfg.omega_fraction = 0.25;
  ccfg.thermal_fraction = 0.02;
  ccfg.seed = opt.seed;
  ss::support::Rng rng(opt.seed);
  const auto cfg = sph_config();
  ss::sph::SphSim sim(ss::sph::rotating_core(ccfg, rng), collapse_eos(), cfg);
  const double jz0 = sim.total_angular_momentum().z;
  ep.setup_s = now_s() - t_start;

  double jz_err = 0.0, flux_ratio = 0.0;
  std::vector<Particle> checked;
  PoolUse pool;
  const std::size_t nsteps = episode_steps(budget_s, kNominalStepS, kMinSteps);
  while (ep.steps.size() < nsteps) {
    StepRecord rec;
    ss::sph::StepDiagnostics diag;
    const PoolReading p0 = PoolReading::now();
    const double c0 = process_cpu().total();
    const double w0 = now_s();
    try {
      Tracer::Span s(tr, "sph.step");
      diag = sim.step();
    } catch (const std::exception& ex) {
      rec.ok = false;
      rec.error = ex.what();
    }
    rec.wall_s = now_s() - w0;
    ep.cpu_s += process_cpu().total() - c0;
    pool.add(p0, PoolReading::now());
    ep.steps.push_back(rec);
    if (!rec.ok) break;
    jz_err = std::max(jz_err,
                      std::abs(sim.total_angular_momentum().z / jz0 - 1.0));
    flux_ratio = std::max(flux_ratio, diag.fld.max_flux_ratio);
    // Force check at a fixed step (see galaxy.cpp).
    if (episode == 0 && ep.steps.size() == kMinSteps) {
      checked = sim.particles();
    }
    if (tr != nullptr) {
      tr->sample("sph.step_s", rec.wall_s);
      tr->sample("sph.pairs", static_cast<double>(diag.pair_count));
      probe_layers(tr, sim, cfg);
    }
  }
  pool.sample(tr);

  if (!ep.steps.back().ok) return ep;
  if (episode == 0) {
    ep.force_rel_rms = gravity_rel_rms(checked, cfg, opt.seed);
    ep.checks.push_back({"force_rel_rms", ep.force_rel_rms, kForceRmsBudget});
  }
  ep.checks.push_back({"jz_drift_max", jz_err, kJzTolerance});
  ep.checks.push_back({"fld_flux_ratio_max", flux_ratio, kFluxRatioLimit});
  return ep;
}

}  // namespace ssbench
