#!/usr/bin/env bash
# Prints the design-size counts tracked in ROADMAP.md:
#   src_lines        lines in src/**/*.{cpp,hpp}
#   runtime_hpp      lines in src/core/runtime.hpp
#   config_fields    top-level fields of struct Config (common/config.hpp)
#   env_knobs        kEnv* constants (cluster/env.hpp)
#   msg_types        MsgType enumerators, kInvalid included (net/message.hpp)
#   sync_mu_outside  files naming sync_mu_ other than core/sync.{hpp,cpp}
#   replica_state_outside
#                    files naming replicas_ or replica_mu_ other than
#                    core/recovery.{hpp,cpp}
#   image_layout_outside
#                    files naming ctrl_words, read_object or write_object
#                    other than core/mapper.{hpp,cpp} (the one owner of
#                    the object image layout), mem/space_layout.hpp
#                    (defines ctrl_words) and storage/disk_store.{hpp,cpp}
#                    (defines the opaque image store)
#   home_writes_outside
#                    files assigning ObjectMeta::home (`->home =`,
#                    `.home =`) other than core/home.{hpp,cpp} (the one
#                    home transition, HomeEngine::move_home);
#                    ObjectDirectory::create's initial home is exempt
#   home_policy_outside
#                    files naming WriterHistory, MigrateStreak,
#                    writer_hist or migrate_streaks_ other than
#                    core/home.{hpp,cpp} (the one home-placement policy)
#
# Usage: scripts/design_counts.sh [--check]
# With --check it exits 1 when any count exceeds its ceiling below.
# Lower a ceiling when a change shrinks its count; raise one only with a
# reason recorded in CHANGES.md.
set -euo pipefail

cd "$(dirname "$0")/.."

declare -A ceiling=(
  [src_lines]=12420
  [runtime_hpp]=333
  [config_fields]=19
  [env_knobs]=24
  [msg_types]=26
  [sync_mu_outside]=0
  [replica_state_outside]=0
  [image_layout_outside]=0
  [home_writes_outside]=0
  [home_policy_outside]=0
)

declare -A count
count[src_lines]=$(find src -type f \( -name '*.cpp' -o -name '*.hpp' \) -print0 |
  xargs -0 cat | wc -l)
count[runtime_hpp]=$(wc -l < src/core/runtime.hpp)
# Fields: two-space-indented declarations ending in ';' inside
# `struct Config { ... };`, skipping member functions.
count[config_fields]=$(awk '
  /^struct Config \{/ { in_cfg = 1; next }
  in_cfg && /^\};/ { in_cfg = 0 }
  in_cfg {
    line = $0
    sub(/ *\/\/.*/, "", line)
    if (line ~ /^  [A-Za-z_][A-Za-z0-9_:<>, ]* [a-z_][a-z0-9_]*( = [^;]*)?;$/ && line !~ /\(/) n++
  }
  END { print n + 0 }' src/common/config.hpp)
count[env_knobs]=$(grep -c 'inline constexpr const char\* kEnv' src/cluster/env.hpp)
count[msg_types]=$(awk '
  /^enum class MsgType/ { in_enum = 1; next }
  in_enum && /^\};/ { in_enum = 0 }
  in_enum && /^ *k[A-Z][A-Za-z0-9]*( = [0-9]+)?,/ { n++ }
  END { print n + 0 }' src/net/message.hpp)
count[sync_mu_outside]=$(grep -rl 'sync_mu_' src |
  grep -cv -e '^src/core/sync\.hpp$' -e '^src/core/sync\.cpp$' || true)
count[replica_state_outside]=$(grep -rlE 'replicas_|replica_mu_' src |
  grep -cv -e '^src/core/recovery\.hpp$' -e '^src/core/recovery\.cpp$' || true)
count[image_layout_outside]=$(grep -rlE 'ctrl_words|read_object|write_object' src |
  grep -cv -e '^src/core/mapper\.hpp$' -e '^src/core/mapper\.cpp$' \
    -e '^src/mem/space_layout\.hpp$' -e '^src/storage/disk_store\.hpp$' \
    -e '^src/storage/disk_store\.cpp$' || true)
count[home_writes_outside]=$(grep -rnE '(->|\.)home =([^=]|$)' src |
  grep -v -e '^src/core/home\.[hc]pp:' -e '^src/core/object\.hpp:[0-9]*:    m\.home = home;$' |
  cut -d: -f1 | sort -u | grep -c . || true)
count[home_policy_outside]=$(grep -rlE 'WriterHistory|MigrateStreak|writer_hist|migrate_streaks_' src |
  grep -cv -e '^src/core/home\.hpp$' -e '^src/core/home\.cpp$' || true)

status=0
for key in src_lines runtime_hpp config_fields env_knobs msg_types sync_mu_outside \
    replica_state_outside image_layout_outside home_writes_outside home_policy_outside; do
  mark=""
  if (( count[$key] > ceiling[$key] )); then
    mark="  ABOVE CEILING ${ceiling[$key]}"
    status=1
  fi
  printf '%-21s %6d%s\n' "$key" "${count[$key]}" "$mark"
done

if [[ "${1:-}" == "--check" ]]; then
  if (( status )); then
    echo "DESIGN_COUNTS_FAIL" >&2
    exit 1
  fi
  echo "DESIGN_COUNTS_OK"
fi
