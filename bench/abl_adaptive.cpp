// §5 ablation — the adaptive coherence protocol (future work in the
// paper, implemented here): ping-pong home damping + dense diff runs.
//
// RX is the paper's own motivating case: "migrating the home to the
// latest writer during the barrier gives little benefits, since the
// bucket will be requested next by the process that originally owns it.
// As the number of processes p increases, the portion of buckets having
// this ping-pong access pattern also increases. The performance of LOTS
// thus degrades." The adaptive master detects the alternation and pins
// those homes.
#include <cstdio>
#include <string>

#include "bench_util.hpp"

int main() {
  using namespace lots;
  using namespace lots::bench;
  std::printf("\n=== §5 ablation — adaptive protocol on RX (the p=8 pathology) ===\n");
  std::printf("%-10s %6s %12s %12s %12s %16s\n", "keys", "p", "JIAJIA", "LOTS mixed",
              "LOTS adapt", "migrations m/a");
  for (const size_t n : {size_t{65536}, size_t{131072}}) {
    for (const int p : {4, 8}) {
      const Config cfg = fig8_config(p);
      Config acfg = cfg;
      acfg.protocol = ProtocolMode::kAdaptive;
      const auto jia = work::jia_rx(cfg, n, 2, 99);
      const auto mixed = work::lots_rx(cfg, n, 2, 99);
      const auto adapt = work::lots_rx(acfg, n, 2, 99);
      const std::string migrations =
          std::to_string(mixed.home_migrations) + "/" + std::to_string(adapt.home_migrations);
      std::printf("%-10zu %6d %12.3f %12.3f %12.3f %16s %s\n", n, p, jia.time_s(),
                  mixed.time_s(), adapt.time_s(), migrations.c_str(),
                  (jia.ok && mixed.ok && adapt.ok) ? "" : "!! VERIFY FAILED");
    }
  }
  std::printf("\nexpectation: adaptive <= mixed on RX (damped ping-pong homes + dense\n"
              "diff runs), closing the gap the paper reports at p=8.\n");
  return 0;
}
