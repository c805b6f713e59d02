// The lots_launch worker environment: how a forked worker process
// discovers that it is part of a multi-process cluster and rewrites its
// Config for the UDP fabric. This is the whole porting surface for a
// workload — call configure_from_env(cfg) before constructing the
// Runtime and the same binary runs unchanged on either fabric.
#pragma once

#include <string>
#include <vector>

#include "common/config.hpp"

namespace lots::cluster {

// Environment variables set by the lots_launch driver for its workers.
inline constexpr const char* kEnvNprocs = "LOTS_NPROCS";
inline constexpr const char* kEnvCoordPort = "LOTS_COORD_PORT";
inline constexpr const char* kEnvDrop = "LOTS_NET_DROP";
inline constexpr const char* kEnvReorder = "LOTS_NET_REORDER";
inline constexpr const char* kEnvDup = "LOTS_NET_DUP";
inline constexpr const char* kEnvFaultSeed = "LOTS_NET_FAULT_SEED";
/// Socket stripes per node (Config::cluster.net_stripes): sockets, pump
/// threads and locks all scale with it. 0 = auto (min(16,
/// hardware threads)).
inline constexpr const char* kEnvNetStripes = "LOTS_NET_STRIPES";
/// App threads per node (hybrid N-process × M-thread mode). Also honored
/// OUTSIDE the launcher by configure_threads_from_env, so the same
/// binary runs hybrid in-proc: `LOTS_THREADS=4 ./example_quickstart`.
inline constexpr const char* kEnvThreads = "LOTS_THREADS";
/// Fast-path knob (fabric-independent): the per-thread access
/// lookaside buffer (Config::alb — "0" disables, anything else
/// enables), e.g. `LOTS_ALB=0 ./bench_fig8_sor`.
inline constexpr const char* kEnvAlb = "LOTS_ALB";
/// Adaptive-migration knobs (fabric-independent): lock-release-driven
/// home migration (Config::lock_migration — any non-empty value other
/// than "0" enables) and its dominance threshold in consecutive
/// single-writer release intervals (Config::migrate_streak), e.g.
/// `LOTS_MIGRATE=1 LOTS_MIGRATE_K=3 ./bench_kv_load`.
inline constexpr const char* kEnvMigrate = "LOTS_MIGRATE";
inline constexpr const char* kEnvMigrateK = "LOTS_MIGRATE_K";
/// Fault-tolerance knobs (fabric-independent): the replication factor
/// R (Config::replication — total copies per object; 0 = off, else
/// R >= 2 = home + R-1 ring backups), the retransmit-round cap before a
/// silent peer is declared unreachable (Config::cluster.udp_max_retrans,
/// 0 = retry forever), and the chaos kill points (Config::kill_points,
/// the spec `RANK:WHEN[:N][,...]` read by parse_kill_spec and set by
/// `lots_launch --kill SPEC`), e.g. `LOTS_KILL=1:barrier:2,2:barrier:2`.
inline constexpr const char* kEnvReplicate = "LOTS_REPLICATE";
inline constexpr const char* kEnvNetRetrans = "LOTS_NET_RETRANS";
inline constexpr const char* kEnvKill = "LOTS_KILL";
/// Service-layer knobs (lots_kv). Store geometry — read by
/// service::KvConfig::from_env on every node, so identical values must
/// reach the whole cluster (lots_launch --kv-shards puts LOTS_KV_SHARDS
/// in every worker's environment):
inline constexpr const char* kEnvKvShards = "LOTS_KV_SHARDS";
inline constexpr const char* kEnvKvSlots = "LOTS_KV_SLOTS";
/// Load-harness knobs (bench/kv_load.cpp): closed-loop client threads
/// per node (--kv-clients), distinct keys, ops per client, read share
/// in percent, Zipfian skew theta (0 = uniform), per-client QPS target
/// (0 = unthrottled), and the workload seed.
inline constexpr const char* kEnvKvClients = "LOTS_KV_CLIENTS";
inline constexpr const char* kEnvKvKeys = "LOTS_KV_KEYS";
inline constexpr const char* kEnvKvOps = "LOTS_KV_OPS";
inline constexpr const char* kEnvKvReadPct = "LOTS_KV_READ_PCT";
inline constexpr const char* kEnvKvZipf = "LOTS_KV_ZIPF";
inline constexpr const char* kEnvKvQps = "LOTS_KV_QPS";
inline constexpr const char* kEnvKvSeed = "LOTS_KV_SEED";
/// Chaos-soak spare: a rank that runs ZERO clients (it only serves DSM
/// and KV traffic), so `--kill` can target a non-client rank and
/// the surviving clients' model checks stay complete. -1 = none.
inline constexpr const char* kEnvKvSpare = "LOTS_KV_SPARE";

/// True when this process was spawned by lots_launch.
bool under_launcher();

/// Rewrites `cfg` for the multi-process UDP fabric from the launcher's
/// environment (nprocs, rendezvous port, fault-injection knobs, app
/// threads per node). Returns false — and applies only the
/// fabric-independent knobs (LOTS_THREADS, LOTS_ALB, the migration and
/// robustness knobs) — when the process is not running under lots_launch.
bool configure_from_env(Config& cfg);

/// Applies LOTS_THREADS to cfg.threads_per_node (any fabric). Returns
/// true when the variable was present.
bool configure_threads_from_env(Config& cfg);

/// Applies LOTS_ALB to the access fast-path knob (any fabric). Returns
/// true when it was present.
bool configure_fastpath_from_env(Config& cfg);

/// Applies LOTS_MIGRATE / LOTS_MIGRATE_K to the adaptive-migration
/// knobs (any fabric). Returns true when any was present.
bool configure_migrate_from_env(Config& cfg);

/// Applies LOTS_REPLICATE / LOTS_NET_RETRANS / LOTS_KILL to the
/// fault-tolerance knobs (any fabric; kill ranks are checked against
/// cfg.nprocs). Returns true when any was present.
bool configure_robustness_from_env(Config& cfg);

/// Parses a kill spec `RANK:WHEN[:N][,...]` — WHEN one of barrier,
/// mid-barrier, in-recovery, after-recovery; N >= 1, default 1 — into
/// kill points. Throws UsageError on an unknown WHEN, a rank outside
/// [0, nprocs), N = 0, or any malformed or trailing text.
std::vector<KillPoint> parse_kill_spec(const std::string& spec, int nprocs);

/// Strict parses of `s` in [lo, hi]: anything malformed or out of range
/// throws UsageError naming `name` (a typo must not silently run the
/// default shape). lots_launch routes its flags through them too.
long env_int(const char* name, const char* s, long lo, long hi);
double env_double(const char* name, const char* s, double lo, double hi);

/// Strict env parses shared by the service/bench knobs: a missing or
/// empty variable yields `dflt`; anything else goes through the strict
/// parse.
long env_int_or(const char* name, long dflt, long lo, long hi);
double env_double_or(const char* name, double dflt, double lo, double hi);

}  // namespace lots::cluster
