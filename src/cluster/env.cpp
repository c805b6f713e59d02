#include "cluster/env.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>

#include "common/error.hpp"

namespace lots::cluster {
// A typo like LOTS_THREADS=four must fail loudly, not silently run the
// baseline configuration.
long env_int(const char* name, const char* s, long lo, long hi) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || v < lo || v > hi) {
    throw UsageError(std::string(name) + " must be an integer in [" + std::to_string(lo) +
                     "," + std::to_string(hi) + "]");
  }
  return v;
}

std::vector<KillPoint> parse_kill_spec(const std::string& spec, int nprocs) {
  using When = KillPoint::When;
  const auto bad = [&](const std::string& why) {
    return UsageError(std::string(kEnvKill) + "/--kill \"" + spec + "\": " + why +
                      " (want RANK:WHEN[:N][,...], WHEN = barrier | mid-barrier | "
                      "in-recovery | after-recovery)");
  };
  std::vector<KillPoint> points;
  size_t pos = 0;
  while (pos <= spec.size()) {
    const size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    std::vector<std::string> parts;
    for (size_t p = 0;;) {
      const size_t colon = item.find(':', p);
      parts.push_back(item.substr(p, colon - p));
      if (colon == std::string::npos) break;
      p = colon + 1;
    }
    if (parts.size() < 2 || parts.size() > 3) {
      throw bad("\"" + item + "\" is not RANK:WHEN[:N]");
    }
    KillPoint k;
    if (parts[1] == "barrier") {
      k.when = When::kBarrier;
    } else if (parts[1] == "mid-barrier") {
      k.when = When::kMidBarrier;
    } else if (parts[1] == "in-recovery") {
      k.when = When::kInRecovery;
    } else if (parts[1] == "after-recovery") {
      k.when = When::kAfterRecovery;
    } else {
      throw bad("unknown kill point \"" + parts[1] + "\"");
    }
    try {
      k.rank = static_cast<int>(env_int("kill rank", parts[0].c_str(), 0, nprocs - 1));
      if (parts.size() == 3) {
        k.n = static_cast<uint32_t>(env_int("kill count N", parts[2].c_str(), 1, 1 << 30));
      }
    } catch (const UsageError& e) {
      throw bad(e.what());
    }
    points.push_back(k);
  }
  return points;
}

long env_int_or(const char* name, long dflt, long lo, long hi) {
  const char* s = std::getenv(name);
  if (!s || !*s) return dflt;
  return env_int(name, s, lo, hi);
}

double env_double(const char* name, const char* s, double lo, double hi) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || v < lo || v > hi) {
    throw UsageError(std::string(name) + " must be a number in [" + std::to_string(lo) + "," +
                     std::to_string(hi) + "]");
  }
  return v;
}

double env_double_or(const char* name, double dflt, double lo, double hi) {
  const char* s = std::getenv(name);
  if (!s || !*s) return dflt;
  return env_double(name, s, lo, hi);
}

bool under_launcher() { return std::getenv(kEnvCoordPort) != nullptr; }

bool configure_threads_from_env(Config& cfg) {
  const char* s = std::getenv(kEnvThreads);
  if (!s || !*s) return false;
  cfg.threads_per_node = static_cast<int>(env_int(kEnvThreads, s, 1, 256));
  return true;
}

bool configure_fastpath_from_env(Config& cfg) {
  const char* s = std::getenv(kEnvAlb);
  if (!s || !*s) return false;
  cfg.alb = std::string(s) != "0";
  return true;
}

bool configure_migrate_from_env(Config& cfg) {
  bool any = false;
  if (const char* s = std::getenv(kEnvMigrate); s && *s) {
    cfg.lock_migration = std::string(s) != "0";
    any = true;
  }
  if (const char* s = std::getenv(kEnvMigrateK); s && *s) {
    cfg.migrate_streak = static_cast<uint32_t>(env_int(kEnvMigrateK, s, 1, 1024));
    any = true;
  }
  return any;
}

bool configure_robustness_from_env(Config& cfg) {
  bool any = false;
  if (const char* s = std::getenv(kEnvReplicate); s && *s) {
    cfg.replication = static_cast<int>(env_int(kEnvReplicate, s, 0, 256));
    any = true;
  }
  if (const char* s = std::getenv(kEnvNetRetrans); s && *s) {
    cfg.cluster.udp_max_retrans = static_cast<size_t>(env_int(kEnvNetRetrans, s, 0, 1 << 20));
    any = true;
  }
  if (const char* s = std::getenv(kEnvKill); s && *s) {
    cfg.kill_points = parse_kill_spec(s, cfg.nprocs);
    any = true;
  }
  return any;
}

bool configure_from_env(Config& cfg) {
  const char* port_s = std::getenv(kEnvCoordPort);
  if (port_s) {
    // The launcher's cluster shape first: the kill spec's ranks are
    // checked against it.
    const char* nprocs_s = std::getenv(kEnvNprocs);
    if (!nprocs_s) throw UsageError("LOTS_COORD_PORT is set but LOTS_NPROCS is not");
    cfg.nprocs = static_cast<int>(env_int(kEnvNprocs, nprocs_s, 1, 256));
    cfg.cluster.fabric = FabricKind::kUdp;
    cfg.cluster.coord_port = static_cast<uint16_t>(env_int(kEnvCoordPort, port_s, 1, 65535));
    cfg.cluster.drop_prob = env_double_or(kEnvDrop, 0.0, 0.0, 0.9);
    cfg.cluster.reorder_prob = env_double_or(kEnvReorder, 0.0, 0.0, 0.9);
    cfg.cluster.dup_prob = env_double_or(kEnvDup, 0.0, 0.0, 0.9);
    cfg.cluster.fault_seed = static_cast<uint64_t>(
        env_int_or(kEnvFaultSeed, static_cast<long>(cfg.cluster.fault_seed), 0, LONG_MAX));
    if (const char* s = std::getenv(kEnvNetStripes); s && *s) {
      cfg.cluster.net_stripes = static_cast<size_t>(env_int(kEnvNetStripes, s, 0, 64));
    }
  }
  configure_threads_from_env(cfg);   // fabric-independent hybrid knob
  configure_fastpath_from_env(cfg);  // fabric-independent fast-path knobs
  configure_migrate_from_env(cfg);   // fabric-independent migration knobs
  configure_robustness_from_env(cfg);  // fabric-independent fault-tolerance knobs
  return port_s != nullptr;
}

}  // namespace lots::cluster
