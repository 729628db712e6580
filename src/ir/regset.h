// Dense register numbering and register bitsets for the dataflow passes.
//
// A RegIndex numbers every register of a function densely: integer ids
// 0..numInt-1 first (physical, then virtual), then FP ids.  Liveness, dead
// code elimination, the peephole, the register allocator and the verifier's
// def-before-use check all index flat arrays and RegSets by it.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "ir/function.h"

namespace ifko::ir {

class RegIndex {
 public:
  RegIndex() = default;
  RegIndex(int32_t numInt, int32_t numFp) : numInt_(numInt), numFp_(numFp) {}
  /// Covers every register the function has created.
  explicit RegIndex(const Function& fn)
      : RegIndex(fn.maxIntReg(), fn.maxFpReg()) {}

  [[nodiscard]] int32_t size() const { return numInt_ + numFp_; }
  [[nodiscard]] bool covers(Reg r) const {
    return r.valid() && r.id < (r.kind == RegKind::Int ? numInt_ : numFp_);
  }
  [[nodiscard]] int32_t operator()(Reg r) const {
    assert(covers(r));
    return r.kind == RegKind::Int ? r.id : numInt_ + r.id;
  }
  [[nodiscard]] Reg reg(int32_t i) const {
    return i < numInt_ ? Reg::intReg(i) : Reg::fpReg(i - numInt_);
  }

 private:
  int32_t numInt_ = 0;
  int32_t numFp_ = 0;
};

/// A set of dense register indices, one bit each.
class RegSet {
 public:
  RegSet() = default;
  explicit RegSet(int32_t size) : words_((static_cast<size_t>(size) + 63) / 64) {}

  [[nodiscard]] bool test(int32_t i) const {
    return (words_[static_cast<size_t>(i) >> 6] >> (i & 63)) & 1;
  }
  void set(int32_t i) { words_[static_cast<size_t>(i) >> 6] |= bit(i); }
  void reset(int32_t i) { words_[static_cast<size_t>(i) >> 6] &= ~bit(i); }
  [[nodiscard]] bool empty() const {
    for (uint64_t w : words_)
      if (w) return false;
    return true;
  }
  void clear() {
    for (uint64_t& w : words_) w = 0;
  }
  RegSet& operator|=(const RegSet& o) {
    for (size_t k = 0; k < words_.size(); ++k) words_[k] |= o.words_[k];
    return *this;
  }
  RegSet& operator&=(const RegSet& o) {
    for (size_t k = 0; k < words_.size(); ++k) words_[k] &= o.words_[k];
    return *this;
  }
  /// *this = gen | (through & ~kill): the transfer function of a block.
  void assignTransfer(const RegSet& gen, const RegSet& through,
                      const RegSet& kill) {
    for (size_t k = 0; k < words_.size(); ++k)
      words_[k] = gen.words_[k] | (through.words_[k] & ~kill.words_[k]);
  }
  friend bool operator==(const RegSet&, const RegSet&) = default;

  /// Calls f(i) for every member, in ascending index order.
  template <typename F>
  void forEach(F&& f) const {
    for (size_t k = 0; k < words_.size(); ++k)
      for (uint64_t w = words_[k]; w; w &= w - 1)
        f(static_cast<int32_t>(k * 64 + std::countr_zero(w)));
  }

 private:
  static uint64_t bit(int32_t i) { return uint64_t{1} << (i & 63); }
  std::vector<uint64_t> words_;
};

}  // namespace ifko::ir
