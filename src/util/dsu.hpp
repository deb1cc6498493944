#pragma once

// Disjoint-set union as weighted quick-find: each element stores its set's
// label and each set's members form a circular list, so a union relabels the
// smaller set. It serves the cmst application, whose forests have tens of
// vertices and whose hot paths (upperBound's Kruskal completion, Gen's cycle
// test) make a find pair per edge walked but at most n-1 unions per pass:
// find and connected are one load; unite is O(smaller set), O(n log n) total.

#include <cstddef>
#include <numeric>
#include <utility>
#include <vector>

namespace yewpar {

class Dsu {
 public:
  Dsu() = default;

  // n singleton sets {0}, {1}, ..., {n-1}.
  explicit Dsu(std::size_t n) { reset(n); }

  void reset(std::size_t n) {
    label_.resize(n);
    std::iota(label_.begin(), label_.end(), std::size_t{0});
    next_ = label_;
    size_.assign(n, 1);
    comps_ = n;
  }

  std::size_t size() const { return label_.size(); }

  // Representative of x's set.
  std::size_t find(std::size_t x) const { return label_[x]; }

  // Merge the sets of a and b; false iff they were already one set (so a
  // Kruskal loop can use the return value as its cycle test).
  bool unite(std::size_t a, std::size_t b) {
    a = label_[a];
    b = label_[b];
    if (a == b) return false;
    if (size_[a] < size_[b]) std::swap(a, b);
    for (std::size_t x = next_[b]; x != b; x = next_[x]) label_[x] = a;
    label_[b] = a;
    std::swap(next_[a], next_[b]);  // splice b's member cycle into a's
    size_[a] += size_[b];
    --comps_;
    return true;
  }

  bool connected(std::size_t a, std::size_t b) const {
    return label_[a] == label_[b];
  }

  // Number of elements in x's set.
  std::size_t componentSize(std::size_t x) const { return size_[label_[x]]; }

  // Number of disjoint sets remaining.
  std::size_t componentCount() const { return comps_; }

 private:
  std::vector<std::size_t> label_;  // representative of each element's set
  std::vector<std::size_t> next_;   // next member in the set's circular list
  std::vector<std::size_t> size_;   // set size, valid at representatives
  std::size_t comps_ = 0;
};

}  // namespace yewpar
