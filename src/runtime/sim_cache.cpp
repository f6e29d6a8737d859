#include "runtime/sim_cache.h"

#include <type_traits>

namespace bfpp::runtime {

namespace {

// Each field's raw bytes, so two inputs pack to the same key iff every
// field is bit-equal. Every field has a fixed width, so no separators.
template <typename T>
void put(std::string& key, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  key.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void put_tier(std::string& key, const hw::NetTier& tier) {
  put(key, tier.allreduce_bw);
  put(key, tier.p2p_bw);
  put(key, tier.latency);
  put(key, tier.sync_overhead);
  put(key, tier.blocking_p2p_overhead);
}

// Everything both keys share: the model and cluster numbers and the
// config axes that shape placement, schedule and device grid.
void put_common(std::string& key, const model::TransformerSpec& spec,
                const parallel::ParallelConfig& cfg,
                const hw::ClusterSpec& cluster) {
  put(key, spec.n_layers);
  put(key, spec.n_heads);
  put(key, spec.head_size);
  put(key, spec.hidden_size);
  put(key, spec.seq_len);
  put(key, spec.vocab_size);
  put(key, cluster.gpu.peak_flops);
  put(key, cluster.gpu.memory_bytes);
  put(key, cluster.gpu.hbm_bw);
  put(key, cluster.n_nodes);
  put(key, cluster.gpus_per_node);
  put_tier(key, cluster.intra_node);
  put_tier(key, cluster.inter_node);
  put(key, cfg.n_dp);
  put(key, cfg.n_tp);
  put(key, cfg.n_pp);
  put(key, cfg.n_loop);
  put(key, cfg.schedule);
  put(key, cfg.sharding);
  put(key, cfg.overlap_dp);
  put(key, cfg.overlap_pp);
}

// Both keys pack to under this many bytes: one allocation per key.
constexpr size_t kKeyBytes = 256;

}  // namespace

std::string op_cost_key(const model::TransformerSpec& spec,
                        const parallel::ParallelConfig& cfg,
                        const hw::ClusterSpec& cluster,
                        const hw::KernelModel& kernel) {
  std::string key;
  key.reserve(kKeyBytes);
  put_common(key, spec, cfg, cluster);
  put(key, cfg.s_mb);  // N_mb deliberately excluded: no table input reads it
  put(key, kernel.max_efficiency);
  put(key, kernel.narrow_half);
  put(key, kernel.rows_half);
  return key;
}

std::string sim_topology_key(const model::TransformerSpec& spec,
                             const parallel::ParallelConfig& cfg,
                             const hw::ClusterSpec& cluster) {
  std::string key;
  key.reserve(kKeyBytes);
  put_common(key, spec, cfg, cluster);
  put(key, cfg.n_mb);  // S_mb and kernel deliberately excluded: they only
                       // scale durations, never the graph structure
  return key;
}

std::shared_ptr<const OpCostTable> SimCache::costs(
    const std::string& key, const std::function<OpCostTable()>& build) {
  {
    LockGuard lock(mu_);
    auto it = costs_.find(key);
    if (it != costs_.end()) {
      ++stats_.cost_hits;
      return it->second;
    }
    ++stats_.cost_misses;
  }
  auto built = std::make_shared<const OpCostTable>(build());
  LockGuard lock(mu_);
  // First insert wins on a race; builders are deterministic in the key,
  // so either copy is the same table.
  return costs_.emplace(key, std::move(built)).first->second;
}

std::shared_ptr<const SimSkeleton> SimCache::skeleton(
    const std::string& key, const std::function<SimSkeleton()>& build) {
  {
    LockGuard lock(mu_);
    auto it = skeletons_.find(key);
    if (it != skeletons_.end()) {
      ++stats_.skeleton_hits;
      return it->second;
    }
    ++stats_.skeleton_misses;
  }
  auto built = std::make_shared<const SimSkeleton>(build());
  LockGuard lock(mu_);
  return skeletons_.emplace(key, std::move(built)).first->second;
}

SimCache::Stats SimCache::stats() const {
  LockGuard lock(mu_);
  return stats_;
}

}  // namespace bfpp::runtime
