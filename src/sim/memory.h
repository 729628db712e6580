// Flat byte-addressable memory image for the simulated machine.
//
// Kernel operands (the BLAS vectors), the spill area, and any scratch data
// live here.  Addresses are plain byte offsets; address 0 is kept unmapped
// so stray null dereferences fault loudly.
//
// The image has a fixed logical size (what `allocate` hands out and what
// the bounds check enforces) but stores only the prefix that has been
// written: every byte past it reads as zero.  Operand images carry a
// megabyte or two of headroom no kernel touches, so neither creating nor
// copying an image pays for that headroom.  Const reads never write, so
// threads may share one image read-only.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace ifko::sim {

class Memory {
 public:
  /// Creates an image of `size` bytes.  The first 64 bytes are reserved
  /// (unallocatable) so that address 0 never aliases real data.
  explicit Memory(size_t size) : size_(size), brk_(64) {
    if (size < 128) throw std::invalid_argument("Memory too small");
  }

  /// Copies the stored prefix into a buffer reserved at the logical size,
  /// as a grown image has.  Exact-prefix copies raised the peak RSS of
  /// parallel out-of-cache tuning by half: smaller than the images they
  /// came from, they were served from glibc's per-thread arenas, which keep
  /// freed memory, instead of being mapped and unmapped.
  Memory(const Memory& other) : size_(other.size_), brk_(other.brk_) {
    if (other.stored_.empty()) return;
    stored_.reserve(size_);
    stored_.assign(other.stored_.begin(), other.stored_.end());
  }
  Memory& operator=(const Memory&) = delete;

  /// Bump-allocates `size` bytes aligned to `align` (a power of two).
  [[nodiscard]] uint64_t allocate(size_t size, size_t align = 64) {
    uint64_t addr = (brk_ + align - 1) & ~(static_cast<uint64_t>(align) - 1);
    if (addr + size > size_)
      throw std::out_of_range("Memory::allocate: image exhausted");
    brk_ = addr + size;
    return addr;
  }

  template <typename T>
  [[nodiscard]] T read(uint64_t addr) const {
    T v;
    readBytes(addr, &v, sizeof(T));
    return v;
  }

  template <typename T>
  void write(uint64_t addr, T v) {
    writeBytes(addr, &v, sizeof(T));
  }

  void readBytes(uint64_t addr, void* out, size_t n) const {
    check(addr, n);
    if (addr + n <= stored_.size())
      std::memcpy(out, stored_.data() + addr, n);
    else
      readPastPrefix(addr, static_cast<uint8_t*>(out), n);
  }

  void writeBytes(uint64_t addr, const void* in, size_t n) {
    check(addr, n);
    if (addr + n > stored_.size()) growPrefix(addr + n);
    std::memcpy(stored_.data() + addr, in, n);
  }

  /// The logical size: every address below it is readable and writable.
  [[nodiscard]] size_t size() const { return size_; }
  /// Bytes actually held: the written prefix (everything after reads 0).
  [[nodiscard]] size_t storedBytes() const { return stored_.size(); }

 private:
  void check(uint64_t addr, size_t n) const {
    // `addr + n` could wrap (an effective address of -8 is 2^64 - 8), so
    // the end is compared by subtraction instead.
    if (addr < 64 || n > size_ || addr > size_ - n) outOfBounds(addr);
  }

  /// Kept out of line so the access paths stay small enough to inline.
  [[noreturn, gnu::cold, gnu::noinline]] static void outOfBounds(
      uint64_t addr) {
    throw std::out_of_range("simulated memory access out of bounds at " +
                            std::to_string(addr));
  }

  void readPastPrefix(uint64_t addr, uint8_t* out, size_t n) const {
    size_t held = 0;
    if (addr < stored_.size()) {
      held = stored_.size() - addr;
      std::memcpy(out, stored_.data() + addr, held);
    }
    std::memset(out + held, 0, n - held);
  }

  void growPrefix(size_t end) {
    // Reserve the whole logical size on the first growth past capacity:
    // the buffer is then never reallocated again, and its untouched tail
    // costs address space only.
    if (end > stored_.capacity()) stored_.reserve(size_);
    stored_.resize(end);
  }

  size_t size_;
  std::vector<uint8_t> stored_;
  uint64_t brk_;
};

}  // namespace ifko::sim
