#pragma once

// Unbalanced Tree Search (UTS) enumeration application (paper Section 5.1;
// Olivier et al.). UTS dynamically constructs a synthetic irregular tree:
// each node's child count is a pure function of the node's random state, and
// each child's state derives from (parent state, child index). The original
// uses SHA-1; we substitute a splitmix64 hash chain, which keeps the key
// reproducibility property (tree shape independent of traversal order and
// worker count) without pulling in a crypto dependency.

#include <cmath>
#include <cstdint>

#include "util/archive.hpp"
#include "util/rng.hpp"

namespace yewpar::apps::uts {

enum class Shape : std::int32_t {
  Geometric = 0,  // branching decays linearly with depth, cut at maxDepth
  Binomial = 1,   // root: b0 children; below: m children with prob q
};

struct Params {
  Shape shape = Shape::Geometric;
  std::int32_t b0 = 4;        // (expected) root branching factor
  std::int32_t maxDepth = 6;  // geometric: depth cut-off
  double q = 0.4;             // binomial: probability a node has children
  std::int32_t m = 2;         // binomial: children when it has any
  std::uint64_t seed = 42;

  void save(OArchive& a) const {
    a << static_cast<std::int32_t>(shape) << b0 << maxDepth << q << m << seed;
  }
  void load(IArchive& a) {
    std::int32_t s = 0;
    a >> s >> b0 >> maxDepth >> q >> m >> seed;
    shape = static_cast<Shape>(s);
  }
};

struct Node {
  std::int32_t d = 0;        // depth
  std::uint64_t state = 0;   // hash-chain random state

  std::int64_t getObj() const { return d; }
  std::int32_t depth() const { return d; }

  void save(OArchive& a) const { a << d << state; }
  void load(IArchive& a) { a >> d >> state; }
};

Node rootNode(const Params& p);

// Number of children of a node: pure function of (params, node). In the
// header so the skeleton loops can inline it: gcc 12 -O3 inlines it into
// countTree and into the depth-first loop's per-node push
// (core/skeletons/subtree_search.hpp), and calls one out-of-line clone for
// each task's root generator and in the Depth-Bounded and Ordered spawn
// loops. Forcing it inline everywhere ([[gnu::always_inline]]) measured
// slower.
inline std::int32_t childCount(const Params& p, const Node& n) {
  // Uniform double in [0,1) derived from the node state alone.
  const double u =
      static_cast<double>(mix64(n.state, 0x5EEDull) >> 11) * 0x1.0p-53;
  switch (p.shape) {
    case Shape::Geometric: {
      if (n.d >= p.maxDepth) return 0;
      // Expected branching decays linearly from b0 at the root to 0 at
      // maxDepth, keeping the tree finite but highly irregular.
      const double mean = static_cast<double>(p.b0) *
                          (1.0 - static_cast<double>(n.d) /
                                     static_cast<double>(p.maxDepth));
      return static_cast<std::int32_t>(std::floor(2.0 * mean * u + 0.5));
    }
    case Shape::Binomial: {
      if (n.d == 0) return p.b0;
      return u < p.q ? p.m : 0;
    }
  }
  return 0;
}

struct Gen {
  using Space = Params;
  using Node = uts::Node;

  const Params* params;
  uts::Node parent;
  std::int32_t total;
  std::int32_t produced = 0;

  Gen(const Params& p, const uts::Node& n)
      : params(&p), parent(n), total(childCount(p, n)) {}

  bool hasNext() const { return produced < total; }

  uts::Node next() {
    uts::Node child;
    child.d = parent.d + 1;
    child.state = mix64(parent.state,
                        static_cast<std::uint64_t>(produced) + 1);
    ++produced;
    return child;
  }
};

// Sequential recursive count (oracle for the tests).
std::uint64_t countTree(const Params& p);

}  // namespace yewpar::apps::uts
