#include "probes.hpp"

#include <vector>

#include "bench.hpp"
#include "morton/key.hpp"
#include "morton/sort.hpp"
#include "support/task_pool.hpp"

namespace ssbench {

namespace {

double g_pool_born = 0.0;  // now_s() when fresh_pool() built the pool

}  // namespace

void probe_morton_sort(Tracer* tr, std::span<const ss::gravity::Source> src) {
  if (tr == nullptr) return;
  std::vector<ss::support::Vec3> pos(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) pos[i] = src[i].pos;
  const auto box = ss::morton::Box::bounding(pos.data(), pos.size());
  std::vector<ss::morton::Key> keys(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    keys[i] = ss::morton::encode(pos[i], box);
  }
  thread_local ss::morton::RadixScratch scratch;
  std::vector<std::uint32_t> perm;
  const double t0 = now_s();
  {
    Tracer::Span s(tr, "morton.sort");
    ss::morton::radix_sort_permutation(keys, scratch, perm);
  }
  tr->sample("morton.sort_s", now_s() - t0);
}

void fresh_pool(int threads) {
  using ss::support::TaskPool;
  // configure_global() drops the pool only when the size changes, so a
  // fresh pool of the same size takes a detour through another size.
  TaskPool::configure_global(threads == 1 ? 2 : 1);
  TaskPool::configure_global(threads);
  (void)TaskPool::global();
  g_pool_born = now_s();
}

PoolReading PoolReading::now() {
  auto& pool = ss::support::TaskPool::global();
  const auto st = pool.stats();
  PoolReading r;
  r.t = now_s();
  r.busy_s = st.utilization * (r.t - g_pool_born) * pool.size();
  r.steals_failed = static_cast<double>(st.steals_failed);
  return r;
}

void PoolUse::add(const PoolReading& before, const PoolReading& after) {
  wall_s_ += after.t - before.t;
  busy_s_ += after.busy_s - before.busy_s;
  steals_failed_ += after.steals_failed - before.steals_failed;
  ++steps_;
}

void PoolUse::sample(Tracer* tr) const {
  if (tr == nullptr || steps_ == 0) return;
  const int size = ss::support::TaskPool::global().size();
  tr->sample("support.pool_utilization", busy_s_ / (wall_s_ * size));
  tr->sample("support.pool_steals_failed", steals_failed_ / steps_);
}

}  // namespace ssbench
