// cluster_4rank: Table 6's cold-sphere problem on a 4-rank virtual Space
// Simulator (vmpi threads over the simnet LAM fabric model), stepped by
// the distributed leapfrog over the persistent GravityEngine, with an
// asynchronous checkpoint every kCheckpointEvery steps. Decomposition,
// remote-cell fetch, the prefetch ledger, vmpi messaging, rank idle loops
// and checkpoint writes carry the weight; the only workload with virtual
// time.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "hot/parallel.hpp"
#include "hot/tree.hpp"
#include "io/checkpoint.hpp"
#include "nbody/checkpoint.hpp"
#include "nbody/integrator.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "probes.hpp"
#include "simnet/profile.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/timemodel.hpp"

namespace ssbench {

namespace {

using ss::nbody::Body;

constexpr int kRanks = 4;
constexpr int kPerRank = 4096;
constexpr double kTheta = 0.6;
constexpr double kEps2 = 1e-6;
constexpr double kDt = 2e-3;
constexpr double kNodeFlops = 623.9e6;  // modelled per-node gravity rate
constexpr std::uint64_t kCheckpointEvery = 8;
constexpr std::size_t kForceTargets = kRanks * kPerRank;
constexpr double kForceRmsBudget = 1e-2;
constexpr double kEnergyDriftBound = 1e-3;
constexpr double kNominalStepS = 0.1;
// At least this many steps per episode, so one checkpoint exists to
// restore; the force check runs after the last of them.
constexpr std::size_t kMinSteps = kCheckpointEvery;

struct RankStep {
  double wall_s = 0.0;     ///< Step plus any checkpoint save.
  double leap_s = 0.0;     ///< ParallelLeapfrog::step alone.
  double vtime_s = 0.0;
  double cpu_user_s = 0.0;  ///< RUSAGE_THREAD of the rank over the step.
  double cpu_sys_s = 0.0;
  double save_s = -1.0;     ///< < 0: no checkpoint this step.
  std::uint64_t save_bytes = 0;
  ss::hot::ParallelStats stats;
};

struct RankOut {
  std::vector<RankStep> steps;
  std::vector<Body> bodies;  ///< State after step kMinSteps.
  std::vector<ss::gravity::Accel> acc;
  double e0 = 0.0;
  double e1 = 0.0;
  bool restore_ok = false;
};

bool same_bits(const std::vector<Body>& a, const std::vector<Body>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Body)) == 0;
}

/// Per-layer samples of one step, combined over ranks.
void sample_step(Tracer* tr, const std::vector<RankOut>& out, std::size_t i) {
  double leap_max = 0.0, cpu_max = 0.0, cpu_sum = 0.0, sys_sum = 0.0;
  double occupancy = 0.0, save_max = -1.0, save_bytes = 0.0;
  std::uint64_t requests = 0, deduped = 0, parked = 0, hits = 0, issued = 0;
  std::uint64_t messages = 0, bytes = 0, interactions = 0;
  for (const RankOut& r : out) {
    const RankStep& s = r.steps[i];
    leap_max = std::max(leap_max, s.leap_s);
    const double cpu = s.cpu_user_s + s.cpu_sys_s;
    cpu_max = std::max(cpu_max, cpu);
    cpu_sum += cpu;
    sys_sum += s.cpu_sys_s;
    occupancy += s.stats.mean_tile_occupancy() / kRanks;
    save_max = std::max(save_max, s.save_s);
    save_bytes += static_cast<double>(s.save_bytes);
    requests += s.stats.remote_requests;
    deduped += s.stats.requests_deduped;
    parked += s.stats.walks_parked;
    hits += s.stats.prefetch_hits;
    issued += s.stats.prefetch_issued;
    messages += s.stats.vmpi_messages;
    bytes += s.stats.vmpi_bytes;
    interactions += s.stats.traverse.body_interactions +
                    s.stats.traverse.cell_interactions;
  }
  tr->sample("hot.engine_step_s.max", leap_max);
  if (cpu_sum > 0.0) {
    tr->sample("hot.rank_imbalance", cpu_max / (cpu_sum / kRanks));
  }
  tr->sample("hot.rank_cpu_s", cpu_sum);
  tr->sample("hot.rank_sys_s", sys_sum);
  tr->sample("hot.remote_requests", static_cast<double>(requests));
  tr->sample("hot.requests_deduped", static_cast<double>(deduped));
  tr->sample("hot.walks_parked", static_cast<double>(parked));
  if (issued > 0) {
    tr->sample("hot.prefetch_hit_ratio",
               static_cast<double>(hits) / static_cast<double>(issued));
  }
  tr->sample("vmpi.messages", static_cast<double>(messages));
  tr->sample("vmpi.bytes", static_cast<double>(bytes));
  tr->sample("gravity.interactions", static_cast<double>(interactions));
  tr->sample("gravity.tile_occupancy", occupancy);
  if (save_max >= 0.0) {
    tr->sample("io.save_s", save_max);
    tr->sample("io.bytes", save_bytes);
  }
}

}  // namespace

Shape cluster_shape(int /*nproc*/) {
  return {kRanks, 1, static_cast<std::size_t>(kRanks) * kPerRank};
}

Episode run_cluster(const Options& opt, const Shape& shape, Tracer* tr,
                    double budget_s, int episode) {
  Episode ep;
  const double t_start = now_s();
  fresh_pool(shape.pool_threads);
  ss::vmpi::Runtime rt(kRanks, ss::vmpi::make_space_simulator_model(
                                   ss::simnet::lam_homogeneous(), kNodeFlops));
  std::optional<ss::obs::Session> session;
  if (tr != nullptr) {
    session.emplace(kRanks);
    rt.attach_observer(&*session);
  }
  const std::filesystem::path dir = std::filesystem::path(opt.work_dir) /
                                    ("ckpt-" + std::to_string(episode));
  std::filesystem::remove_all(dir);

  const std::uint64_t nsteps =
      episode_steps(budget_s, kNominalStepS, kMinSteps);
  std::vector<RankOut> out(kRanks);
  double t_setup_end = 0.0;  // written by rank 0 only
  double cpu_loop = 0.0;     // written by rank 0 only
  try {
    rt.run([&](ss::vmpi::Comm& c) {
      Tracer::set_thread(c.rank());
      RankOut& me = out[static_cast<std::size_t>(c.rank())];
      ss::support::Rng rng(opt.seed * 0x9e3779b97f4a7c15ULL +
                           static_cast<std::uint64_t>(c.rank()));
      auto bodies = ss::nbody::cold_sphere(kPerRank, rng);
      for (auto& b : bodies) b.mass /= kRanks;
      ss::hot::ParallelConfig cfg;
      cfg.theta = kTheta;
      cfg.eps2 = kEps2;
      cfg.pool_threads = 1;
      ss::nbody::ParallelLeapfrog leap(c, std::move(bodies), cfg);
      ss::io::CheckpointStore::Config sc;
      sc.dir = dir;
      ss::io::CheckpointStore store(c, sc);
      me.e0 = leap.current_energies().total();
      c.barrier();
      const double cpu0 = process_cpu().total();
      if (c.rank() == 0) t_setup_end = now_s();

      std::vector<Body> saved;  // bodies as of the last checkpoint
      std::uint64_t saved_step = 0;
      for (std::uint64_t step = 1; step <= nsteps; ++step) {
        RankStep rs;
        const CpuTimes tc0 = thread_cpu();
        const double v0 = c.time();
        const double w0 = now_s();
        {
          Tracer::Span s(tr, "nbody.parallel_step");
          leap.step(kDt);
        }
        rs.leap_s = now_s() - w0;
        if (step % kCheckpointEvery == 0) {
          const double ts = now_s();
          {
            Tracer::Span s(tr, "io.save");
            rs.save_bytes =
                ss::nbody::save_checkpoint(store, step, leap).bytes;
          }
          rs.save_s = now_s() - ts;
          saved = leap.bodies();
          saved_step = step;
        }
        rs.wall_s = now_s() - w0;
        rs.vtime_s = c.time() - v0;
        const CpuTimes tc1 = thread_cpu();
        rs.cpu_user_s = tc1.user - tc0.user;
        rs.cpu_sys_s = tc1.sys - tc0.sys;
        rs.stats = leap.last_stats();
        me.steps.push_back(rs);
        if (episode == 0 && step == kMinSteps) {
          // Force check at a fixed step (see galaxy.cpp).
          me.bodies = leap.bodies();
          me.acc = leap.accel();
        }
        if (tr != nullptr && c.rank() == 0) {
          const auto src = ss::nbody::sources_of(leap.bodies());
          probe_morton_sort(tr, src);
          const double tb = now_s();
          {
            Tracer::Span s(tr, "hot.build");
            const ss::hot::Tree tree(src);
          }
          tr->sample("hot.build_s", now_s() - tb);
        }
        // Keep rank 0's probes out of the other ranks' next step.
        if (tr != nullptr) c.barrier();
      }
      c.barrier();
      if (c.rank() == 0) cpu_loop = process_cpu().total() - cpu0;
      store.finalize();
      const auto restored = ss::nbody::restore_checkpoint(store, c);
      me.restore_ok = restored && restored->step == saved_step &&
                      same_bits(restored->state.bodies, saved);
      me.e1 = leap.current_energies().total();
    });
  } catch (const std::exception& ex) {
    // A rank that throws tears the whole virtual job down: one failed step.
    StepRecord rec;
    rec.ok = false;
    rec.error = ex.what();
    ep.steps.push_back(rec);
    std::filesystem::remove_all(dir);
    return ep;
  }
  std::filesystem::remove_all(dir);
  ep.setup_s = t_setup_end - t_start;
  ep.cpu_s = cpu_loop;

  for (std::size_t i = 0; i < nsteps; ++i) {
    StepRecord rec;
    for (const RankOut& r : out) {
      rec.wall_s = std::max(rec.wall_s, r.steps[i].wall_s);
      rec.vtime_s = std::max(rec.vtime_s, r.steps[i].vtime_s);
    }
    ep.steps.push_back(rec);
    if (tr != nullptr) sample_step(tr, out, i);
  }
  if (tr != nullptr) {
    // Virtual seconds per rank and force evaluation (the set-up one too).
    const ss::obs::CriticalPath cp(*session);
    double wait = 0.0, fabric = 0.0;
    for (const auto& r : cp.ranks()) {
      wait += r.wait_seconds;
      fabric += r.fabric_seconds;
    }
    const double per = 1.0 / (kRanks * static_cast<double>(nsteps + 1));
    tr->sample("vmpi.wait_vs", wait * per);
    tr->sample("simnet.fabric_vs", fabric * per);
  }

  std::vector<ss::gravity::Source> src;
  std::vector<ss::support::Vec3> acc;
  double e0 = 0.0, e1 = 0.0;
  bool restore_ok = true;
  for (const RankOut& r : out) {
    for (std::size_t i = 0; i < r.bodies.size(); ++i) {
      src.push_back({r.bodies[i].pos, r.bodies[i].mass});
      acc.push_back(r.acc[i].a);
    }
    e0 += r.e0;
    e1 += r.e1;
    restore_ok = restore_ok && r.restore_ok;
  }
  if (episode == 0) {
    ep.force_rel_rms = sampled_force_rel_rms(
        src, acc, kEps2, sample_targets(src.size(), kForceTargets, opt.seed));
    ep.checks.push_back({"force_rel_rms", ep.force_rel_rms, kForceRmsBudget});
  }
  ep.checks.push_back(
      {"energy_drift", std::abs(e1 - e0) / std::abs(e0), kEnergyDriftBound});
  // 0 when every rank restored its last checkpoint bit-for-bit.
  ep.checks.push_back({"restore_mismatch", restore_ok ? 0.0 : 1.0, 0.0});
  return ep;
}

}  // namespace ssbench
