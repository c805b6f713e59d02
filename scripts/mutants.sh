#!/usr/bin/env bash
# Mutant gate: every mutant below is a known-bad edit of one source file
# that a named test must catch. The script copies the working tree
# (src/, tests/ and the rest, without build directories) to a temporary
# directory and configures it once. Per mutant it applies the edit there,
# builds the test's target, runs the named test and requires it to FAIL,
# then restores the file. No file in the repository is changed.
#
# Usage: scripts/mutants.sh [MUTANT...]   (default: every mutant)
# Exits 1 when a mutant survives (its test passed) or no longer applies
# (its text is not found exactly once: update the mutant with the code).
# CMake honours CMAKE_CXX_COMPILER_LAUNCHER from the environment (ccache).
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

tar -C "$repo" --exclude='./build' --exclude='./build-*' --exclude='./.bench_build' \
  --exclude='./.git' -cf - . | (mkdir -p "$work/tree" && tar -C "$work/tree" -xf -)
cmake -S "$work/tree" -B "$work/build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >"$work/configure.log"

selected=" $* "
failures=0

# mutant NAME FILE TARGET FILTER TEXT MUTATED: in FILE, TEXT (which must
# occur exactly once) becomes MUTATED; test binary TARGET run with
# --gtest_filter=FILTER must then fail.
mutant() {
  local name=$1 file=$2 target=$3 filter=$4 text=$5 mutated=$6
  if [[ "$selected" != "  " && "$selected" != *" $name "* ]]; then return; fi
  local src="$work/tree/$file"
  cp "$src" "$src.orig"
  if ! python3 - "$src" "$text" "$mutated" <<'PY'; then
import sys
path, old, new = sys.argv[1:]
body = open(path).read()
if body.count(old) != 1:
    sys.exit(f"{path}: mutant text found {body.count(old)} times, expected 1")
open(path, "w").write(body.replace(old, new))
PY
    echo "MUTANT STALE $name"
    failures=1
  elif ! cmake --build "$work/build" -j "$(nproc)" --target "$target" >"$work/build.log" 2>&1; then
    echo "MUTANT BUILD FAILED $name"
    tail -20 "$work/build.log"
    failures=1
  elif timeout 300 "$work/build/$target" --gtest_filter="$filter" >"$work/run.log" 2>&1; then
    echo "MUTANT SURVIVED $name ($target $filter passed)"
    failures=1
  else
    echo "mutant killed $name ($target $filter failed)"
  fi
  mv "$src.orig" "$src"
  # The restored file is older than the mutant's object: touch it, or the
  # next mutant's build would link the stale mutated object.
  touch "$src"
}

# A lock grant's record applied into a mapped copy must dirty it.
mutant incoming-diff-leaves-mapping-clean src/core/coherence.cpp core_runtime_test \
  Mapper.DiffIntoCleanMappingSurvivesEviction \
  $'  w.store();\n}\n\nvoid CoherenceEngine::apply_delivery' \
  $'  if (m.map != MapState::kMapped) w.store();\n}\n\nvoid CoherenceEngine::apply_delivery'

# A twinned copy is dirty even when its kept image exists.
mutant evict-skips-write-when-image-exists src/core/mapper.cpp core_runtime_test \
  Mapper.CleanEvictionWritesNothingAndKeepsDataAndStamps \
  '  if (!m.twinned && (m.on_disk || (!marked && m.share != ShareState::kValid))) {' \
  '  if (m.on_disk || (!m.twinned && !marked && m.share != ShareState::kValid)) {'

# Once the node took a lock in the interval (a section may be open), an
# eviction keeps the victim's twin, so the release flushes the section's
# write onto its token's chain.
mutant evict-flush-ignores-open-section src/core/coherence.cpp core_coherence_test \
  Coherence.EvictionInsideASectionKeepsItsWriteOnTheLockChain \
  '  if (!fg.owns_lock() || epoch != cut_) return;' \
  '  if (!fg.owns_lock()) return;'

# After a lock grant handed a peer a newer diff base, the barrier raises
# the stamps an eviction flush gave, or the peer's refetch skips them.
mutant evicted-stamps-not-raised src/core/coherence.cpp core_coherence_test \
  'EvictionFlushThenLock.*' \
  '      if (m->evict_marked && flush_epoch != evict_stamp) evicted.push_back(id);' \
  '      if (m->evict_marked && false) evicted.push_back(id);'

# Only a twin equal to its data carries no write; the compare runs before
# the eviction flush (the test evicts inside a section, where the twin
# would otherwise stay).
mutant twin-dropped-without-compare src/core/mapper.cpp core_runtime_test \
  Mapper.CleanEvictionWritesNothingAndKeepsDataAndStamps \
  '  if (m.twinned && std::memcmp(space_.dmm(off), space_.twin(off), bytes) == 0) m.twinned = false;' \
  '  if (m.twinned) m.twinned = false;'

# Unmapping a block must not clear past it: the page-rounded release of
# a packed small object also clears its page neighbour.
mutant drop-mapping-clears-page src/core/mapper.cpp core_runtime_test \
  Mapper.EvictingASmallObjectKeepsItsPageNeighbor \
  $'    node_.dir_.bump_generation(m.id);  // defeat cached ALB pointers first\n' \
  $'    node_.dir_.bump_generation(m.id);  // defeat cached ALB pointers first\n    if (m.dmm_offset % 4096 == 0) std::memset(space_.dmm(m.dmm_offset), 0, (word_bytes(m) + 4095) / 4096 * 4096);\n'

# A reused block keeps its last occupant's bytes: the zero path of
# map_in must clear the stamps as well as the data.
mutant map-in-keeps-stale-stamps src/core/mapper.cpp core_runtime_test \
  Mapper.ReusedBlockStartsWithCleanStamps \
  $'    std::memset(space_.ctrl_words(off), 0, bytes);\n' \
  ''

# A fetch answered after a redirect must repoint the stale home view.
mutant settle-skips-stale-home-repair src/core/fetch.cpp core_migration_test \
  Migration.FetchChasesAndRepairsStaleHomeView \
  '      if (f.hops > 0 && m.home != f.target) node_.home_.move_home(m, f.target);' \
  '      if (false && f.hops > 0 && m.home != f.target) node_.home_.move_home(m, f.target);'

# A fetched full copy must keep a word a lock chain made newer locally.
mutant full-copy-regresses-newer-word src/core/fetch.cpp core_fetch_engine_test \
  FetchEngine.FetchedCopyNeverRegressesLocallyNewerWord \
  '        has_newer = true;' \
  '        has_newer = false;'

# The handoff ack alone must flip the old home's pointer to the adopter.
mutant handoff-ack-keeps-old-home src/core/home.cpp core_migration_test \
  Migration.OldHomeFollowsTheAckBeforeAnyNotice \
  '  move_home(*meta, flip ? adopted_by : meta->home);' \
  '  move_home(*meta, meta->home);'

# A barrier must invalidate every non-home copy the plan names.
mutant barrier-skips-invalidations src/core/home.cpp core_coherence_test \
  Coherence.ManyObjectsManyWritersStress \
  $'      m->share = ShareState::kInvalid;\n      // All app threads are parked' \
  $'      // All app threads are parked'

# The adaptive barrier plan pins a ping-ponging lone writer's home.
mutant plan-skips-adaptive-damping src/core/home.cpp core_adaptive_test \
  Adaptive.PingPongDampingPinsTheHome \
  '    if (adaptive && !multi && writer_hist_[id].ping_pong(ws.front())) new_home = old_home;' \
  '    if (adaptive && !multi) (void)writer_hist_[id].ping_pong(ws.front());'

# The barrier plan gives a lone writer the home (Fig. 6).
mutant plan-keeps-lone-writer-home src/core/home.cpp core_adaptive_test \
  Adaptive.StableWriterStillMigrates \
  '    int32_t new_home = multi ? old_home : ws.front();' \
  '    int32_t new_home = old_home;'

# A barrier record ships every word the changed-word bitmap marks.
mutant barrier-record-ignores-marks src/core/coherence.cpp core_coherence_test \
  Coherence.BarrierRecordsAreBuiltOnlyForObjectsThatShip \
  $'  std::vector<uint32_t> ts;\n  for_each_mark(&mark_bits_[m.marks], m.words(), [&](uint32_t wi) {' \
  $'  std::vector<uint32_t> ts;\n  for_each_mark(&mark_bits_[m.marks], 0, [&](uint32_t wi) {'

# A release flush marks the words it ships on the token chain: the
# bitmap is the only record the barrier ships them from, so each
# writer's lock-interval words must still reach the home.
mutant release-flush-skips-marks src/core/coherence.cpp core_coherence_test \
  Coherence.BarrierRecordsAreBuiltOnlyForObjectsThatShip \
  '{w.twin(), bytes}, &mark_bits_[m.marks],' \
  '{w.twin(), bytes}, rec ? std::vector<uint64_t>(mark_bits_.size()).data() + m.marks : &mark_bits_[m.marks],'

# A node with sibling app threads keeps the ALB hit/evictor fence pair.
mutant alb-multithread-node-skips-fences src/core/runtime.cpp core_mt_access_test \
  MtAccess.AlbHitPinsHoldAgainstASiblingEvictor \
  'one_app_thread_(rt.config().threads_per_node == 1)' \
  'one_app_thread_(true)'

# A release's fold into its lock chain (fold_record) keeps the newer
# stamp of a word both records carry.
mutant chain-fold-keeps-oldest-word src/core/diff.cpp core_diff_test \
  Diff.FoldKeepsLastValuePerWord \
  '      const bool newer = rec.ts_of(j) >= into.ts_of(i);  // a tie goes to `rec`' \
  '      const bool newer = false;'

if ((failures)); then
  echo "MUTANTS FAILED"
  exit 1
fi
echo "MUTANTS_OK"
