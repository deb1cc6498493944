#pragma once

// Dynamic fixed-capacity bitset used throughout the search applications.
//
// The paper's MaxClique implementation (Listing 1) uses std::bitset<N> with N
// fixed at compile time, precisely so that node copies are cheap stack
// memcpys; YewPar ships several binaries for different N. We get the same
// effect in a single binary with a small-buffer optimisation: bitsets up to
// kInlineWords*64 bits (1024) live inline with no heap traffic - covering
// every evaluation instance - and larger ones transparently fall back to a
// heap buffer.

#include <cstdint>
#include <cstddef>
#include <cstring>
#include <vector>
#include <bit>
#include <cassert>

namespace yewpar {

class DynBitset {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;
  static constexpr std::size_t kInlineWords = 8;  // 512 bits inline

  DynBitset() = default;

  // Bitset able to hold bits [0, nbits). All bits start clear.
  explicit DynBitset(std::size_t nbits)
      : nbits_(nbits), nwords_((nbits + kWordBits - 1) / kWordBits) {
    if (nwords_ > kInlineWords) {
      heap_.assign(nwords_, 0);
    } else {
      std::memset(inline_, 0, sizeof(inline_));
    }
  }

  DynBitset(const DynBitset& o) : nbits_(o.nbits_), nwords_(o.nwords_) {
    if (o.onHeap()) {
      heap_ = o.heap_;
    } else {
      std::memcpy(inline_, o.inline_, nwords_ * sizeof(Word));
    }
  }

  DynBitset(DynBitset&& o) noexcept
      : nbits_(o.nbits_), nwords_(o.nwords_) {
    if (o.onHeap()) {
      heap_ = std::move(o.heap_);
    } else {
      std::memcpy(inline_, o.inline_, nwords_ * sizeof(Word));
    }
  }

  DynBitset& operator=(const DynBitset& o) {
    if (this == &o) return *this;
    nbits_ = o.nbits_;
    nwords_ = o.nwords_;
    if (o.onHeap()) {
      heap_ = o.heap_;
    } else {
      heap_.clear();
      std::memcpy(inline_, o.inline_, nwords_ * sizeof(Word));
    }
    return *this;
  }

  DynBitset& operator=(DynBitset&& o) noexcept {
    if (this == &o) return *this;
    nbits_ = o.nbits_;
    nwords_ = o.nwords_;
    if (o.onHeap()) {
      heap_ = std::move(o.heap_);
    } else {
      heap_.clear();
      std::memcpy(inline_, o.inline_, nwords_ * sizeof(Word));
    }
    return *this;
  }

  std::size_t size() const { return nbits_; }
  std::size_t wordCount() const { return nwords_; }

  const Word* data() const { return onHeap() ? heap_.data() : inline_; }
  Word* data() { return onHeap() ? heap_.data() : inline_; }

  Word word(std::size_t i) const { return data()[i]; }

  void set(std::size_t i) {
    assert(i < nbits_);
    data()[i / kWordBits] |= Word{1} << (i % kWordBits);
  }

  void reset(std::size_t i) {
    assert(i < nbits_);
    data()[i / kWordBits] &= ~(Word{1} << (i % kWordBits));
  }

  bool test(std::size_t i) const {
    assert(i < nbits_);
    return (data()[i / kWordBits] >> (i % kWordBits)) & 1U;
  }

  void clear() {
    Word* w = data();
    for (std::size_t i = 0; i < nwords_; ++i) w[i] = 0;
  }

  void setAll() {
    Word* w = data();
    for (std::size_t i = 0; i < nwords_; ++i) w[i] = ~Word{0};
    trimTail();
  }

  std::size_t count() const {
    const Word* w = data();
    std::size_t n = 0;
    for (std::size_t i = 0; i < nwords_; ++i) {
      n += static_cast<std::size_t>(std::popcount(w[i]));
    }
    return n;
  }

  bool empty() const {
    const Word* w = data();
    for (std::size_t i = 0; i < nwords_; ++i) {
      if (w[i] != 0) return false;
    }
    return true;
  }

  bool any() const { return !empty(); }

  // Index of the lowest set bit, or npos if none.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  std::size_t findFirst() const {
    const Word* w = data();
    for (std::size_t i = 0; i < nwords_; ++i) {
      if (w[i] != 0) {
        return i * kWordBits +
               static_cast<std::size_t>(std::countr_zero(w[i]));
      }
    }
    return npos;
  }

  // Lowest set bit strictly greater than i, or npos.
  std::size_t findNext(std::size_t i) const {
    ++i;
    if (i >= nbits_) return npos;
    const Word* words = data();
    std::size_t wi = i / kWordBits;
    Word w = words[wi] & (~Word{0} << (i % kWordBits));
    while (true) {
      if (w != 0) {
        return wi * kWordBits + static_cast<std::size_t>(std::countr_zero(w));
      }
      if (++wi == nwords_) return npos;
      w = words[wi];
    }
  }

  // Highest set bit, or npos if none.
  std::size_t findLast() const {
    const Word* w = data();
    for (std::size_t i = nwords_; i-- > 0;) {
      if (w[i] != 0) {
        return i * kWordBits + (kWordBits - 1 -
               static_cast<std::size_t>(std::countl_zero(w[i])));
      }
    }
    return npos;
  }

  DynBitset& operator&=(const DynBitset& o) {
    assert(nbits_ == o.nbits_);
    Word* a = data();
    const Word* b = o.data();
    for (std::size_t i = 0; i < nwords_; ++i) a[i] &= b[i];
    return *this;
  }

  DynBitset& operator|=(const DynBitset& o) {
    assert(nbits_ == o.nbits_);
    Word* a = data();
    const Word* b = o.data();
    for (std::size_t i = 0; i < nwords_; ++i) a[i] |= b[i];
    return *this;
  }

  // Remove from this set all bits present in o.
  DynBitset& andNot(const DynBitset& o) {
    assert(nbits_ == o.nbits_);
    Word* a = data();
    const Word* b = o.data();
    for (std::size_t i = 0; i < nwords_; ++i) a[i] &= ~b[i];
    return *this;
  }

  friend DynBitset operator&(DynBitset a, const DynBitset& b) { return a &= b; }
  friend DynBitset operator|(DynBitset a, const DynBitset& b) { return a |= b; }

  bool intersects(const DynBitset& o) const {
    assert(nbits_ == o.nbits_);
    const Word* a = data();
    const Word* b = o.data();
    for (std::size_t i = 0; i < nwords_; ++i) {
      if (a[i] & b[i]) return true;
    }
    return false;
  }

  bool isSubsetOf(const DynBitset& o) const {
    assert(nbits_ == o.nbits_);
    const Word* a = data();
    const Word* b = o.data();
    for (std::size_t i = 0; i < nwords_; ++i) {
      if (a[i] & ~b[i]) return false;
    }
    return true;
  }

  bool operator==(const DynBitset& o) const {
    if (nbits_ != o.nbits_) return false;
    const Word* a = data();
    const Word* b = o.data();
    for (std::size_t i = 0; i < nwords_; ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }

  // Call f(index) for each set bit in ascending order.
  template <typename F>
  void forEach(F&& f) const {
    const Word* words = data();
    for (std::size_t wi = 0; wi < nwords_; ++wi) {
      Word w = words[wi];
      while (w != 0) {
        std::size_t b = static_cast<std::size_t>(std::countr_zero(w));
        f(wi * kWordBits + b);
        w &= w - 1;
      }
    }
  }

  std::vector<std::size_t> toVector() const {
    std::vector<std::size_t> v;
    v.reserve(count());
    forEach([&](std::size_t i) { v.push_back(i); });
    return v;
  }

 private:
  bool onHeap() const { return nwords_ > kInlineWords; }

  void trimTail() {
    std::size_t used = nbits_ % kWordBits;
    if (used != 0 && nwords_ > 0) {
      data()[nwords_ - 1] &= (Word{1} << used) - 1;
    }
  }

  std::size_t nbits_ = 0;
  std::size_t nwords_ = 0;
  Word inline_[kInlineWords];
  std::vector<Word> heap_;
};

}  // namespace yewpar
