// Victim selection for DMM-area swapping (paper §3.3).
//
// When an unmapped object must come in and no contiguous DMM block fits,
// LOTS swaps mapped objects out to disk. The policy is "a combination of
// the least-recently-used (LRU) and the best-fit strategy", constrained
// by *pinning*: each object carries a timestamp of its latest access,
// and recently stamped objects (the operands of the statement currently
// executing) must not be evicted, otherwise `a[5] = b[5] + c[5]` could
// swap `a` out between resolving its address and storing the result.
//
// choose_victim is a pure function so the policy is unit-testable; the
// runtime calls it repeatedly, evicting one object at a time until the
// allocation succeeds.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

namespace lots::mem {

struct VictimCandidate {
  uint64_t object_id = 0;
  size_t size = 0;        ///< mapped block size
  uint64_t access_stamp = 0;  ///< pinning timestamp (higher = more recent)
};

struct EvictionConfig {
  /// Candidates stamped within this distance of the newest stamp are
  /// considered pinned (the current statement's operands).
  uint64_t pin_window = 8;
  /// Among how many of the oldest candidates best-fit gets to choose.
  size_t lru_window = 8;
};

/// Picks the object to evict to help satisfy an allocation of `need`
/// bytes, or nullopt when there are no candidates at all (the paper's
/// §5 noted failure mode — all mapped objects used in one statement —
/// is reported by the CALLER, whose statement-pin rings filter the
/// candidate list; see Mapper::stmt_pin).
///
/// Strategy: restrict to candidates outside the recency window, take
/// the `lru_window` oldest, and among those prefer the smallest block
/// >= need (best fit); when none is large enough, take the largest
/// (frees the most space toward coalescing a hole). When EVERY
/// candidate is inside the recency window the filter is waived — the
/// window is a soft LRU heuristic on a clock that only access-lookaside
/// MISSES advance, not a correctness guarantee.
std::optional<uint64_t> choose_victim(std::span<const VictimCandidate> candidates, size_t need,
                                      uint64_t newest_stamp, const EvictionConfig& cfg = {});

}  // namespace lots::mem
