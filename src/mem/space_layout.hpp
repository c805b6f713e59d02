// Process-space partition of paper Fig. 3.
//
// LOTS reserves a region of the process space split into three equal
// segments of size S:
//   [DMM_BASE,        DMM_BASE +  S) : DMM area   — object data, mapped
//                                      dynamically during access
//   [DMM_BASE +  S,   DMM_BASE + 2S) : twin area  — pre-synchronization
//                                      copies used to compute diffs
//   [DMM_BASE + 2S,   DMM_BASE + 3S) : control area — per-word timestamp
//                                      and lock information
// with the paper's simplifying invariant: an object at address A in the
// DMM area has its twin at A+S and its control words at A+2S.
//
// In this reproduction each node owns a private mmap'd arena of 3S bytes
// (the cluster runs in one process); DMM *offsets* play the role of the
// paper's fixed virtual addresses 0x50000000..0xAFFFFFFF.
#pragma once

#include <cstddef>
#include <cstdint>

namespace lots::mem {

class SpaceLayout {
 public:
  /// Reserves an arena of 3 * dmm_bytes via mmap. Pages are lazily
  /// backed by the OS, so a large S commits no RAM until touched, and
  /// stay resident once touched: the DMM window is the configured
  /// budget, and the paper's limit is address space, not physical
  /// memory. A freed block keeps its old bytes, so whoever maps an
  /// object into it writes every byte before use.
  explicit SpaceLayout(size_t dmm_bytes);
  ~SpaceLayout();
  SpaceLayout(const SpaceLayout&) = delete;
  SpaceLayout& operator=(const SpaceLayout&) = delete;

  [[nodiscard]] size_t dmm_bytes() const { return s_; }

  /// Data address for a DMM offset.
  [[nodiscard]] uint8_t* dmm(size_t offset) const { return base_ + offset; }
  /// Twin address for the same offset (Fig. 3: A + S).
  [[nodiscard]] uint8_t* twin(size_t offset) const { return base_ + s_ + offset; }
  /// Control-area address for the same offset (Fig. 3: A + 2S). The
  /// control area is interpreted as one uint32 timestamp per 4-byte data
  /// word, so ctrl_word(o)[i] stamps data word i of the object at o.
  [[nodiscard]] uint32_t* ctrl_words(size_t offset) const {
    return reinterpret_cast<uint32_t*>(base_ + 2 * s_ + offset);
  }

 private:
  size_t s_;
  uint8_t* base_ = nullptr;
};

}  // namespace lots::mem
