#include "common/config.hpp"

#include "common/error.hpp"

namespace lots {

void Config::validate() const {
  if (nprocs < 1 || nprocs > 256) {
    throw UsageError("Config.nprocs must be in [1,256] (paper supports up to 256)");
  }
  if (page_bytes == 0 || (page_bytes & (page_bytes - 1)) != 0) {
    throw UsageError("Config.page_bytes must be a power of two");
  }
  if (dmm_bytes < 4 * page_bytes) {
    throw UsageError("Config.dmm_bytes too small: need at least four pages");
  }
  if (dmm_bytes % page_bytes != 0) {
    throw UsageError("Config.dmm_bytes must be page aligned");
  }
  if (jia_heap_bytes % page_bytes != 0) {
    throw UsageError("Config.jia_heap_bytes must be page aligned");
  }
  if (disk_capacity_bytes > 0 && nprocs == 1) {
    throw UsageError("Config.disk_capacity_bytes needs nprocs >= 2: overflow spills to a peer");
  }
  if (net.time_scale < 0 || disk.time_scale < 0) {
    throw UsageError("time_scale knobs must be non-negative");
  }
  if (threads_per_node < 1 || threads_per_node > 256) {
    throw UsageError("Config.threads_per_node must be in [1,256]");
  }
  if (fetch_window < 1 || fetch_window > 256) {
    throw UsageError("Config.fetch_window must be in [1,256]");
  }
  if (migrate_streak < 1 || migrate_streak > 1024) {
    throw UsageError("Config.migrate_streak must be in [1,1024]");
  }
  if (lock_migration && protocol != ProtocolMode::kMixed && protocol != ProtocolMode::kAdaptive) {
    throw UsageError("Config.lock_migration needs a lock-diff protocol (kMixed or kAdaptive)");
  }
  if (replication == 1 || replication < 0 || replication > 256) {
    throw UsageError("Config.replication is the copy count R: 0 = off, else R >= 2 (max 256)");
  }
  for (const KillPoint& k : kill_points) {
    if (k.rank < 0 || k.rank >= nprocs) {
      throw UsageError("Config.kill_points: rank " + std::to_string(k.rank) +
                       " is not a rank of the run");
    }
    if (k.n == 0) throw UsageError("Config.kill_points: n counts from 1");
  }
  if (cluster.fabric == FabricKind::kUdp) {
    if (cluster.coord_port == 0) {
      throw UsageError("Config.cluster: kUdp needs the coordinator's rendezvous port");
    }
    for (const double p : {cluster.drop_prob, cluster.reorder_prob, cluster.dup_prob}) {
      if (p < 0.0 || p > 0.9) {
        throw UsageError("Config.cluster fault probabilities must be in [0, 0.9]");
      }
    }
    if (cluster.udp_window == 0) {
      throw UsageError("Config.cluster.udp_window must be positive");
    }
    if (cluster.net_stripes > 64) {
      throw UsageError("Config.cluster.net_stripes must be in [0,64] (0 = auto)");
    }
  }
}

}  // namespace lots
