#include "mem/space_layout.hpp"

#include <sys/mman.h>

#include <string>

#include "common/error.hpp"

namespace lots::mem {

SpaceLayout::SpaceLayout(size_t dmm_bytes) : s_(dmm_bytes) {
  void* p = ::mmap(nullptr, 3 * s_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    throw SystemError("SpaceLayout: mmap of " + std::to_string(3 * s_) + " bytes failed");
  }
  base_ = static_cast<uint8_t*>(p);
}

SpaceLayout::~SpaceLayout() {
  if (base_) ::munmap(base_, 3 * s_);
}

}  // namespace lots::mem
