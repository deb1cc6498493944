#pragma once

// Minimum spanning tree with conflicting edge pairs (CMST; Montemanni &
// Smith, PAPERS.md): find a minimum-weight spanning tree that contains no
// pair of edges declared "in conflict". NP-hard for general conflict sets.
//
// Branch and bound on a binary include/exclude decision per edge, taken in
// weight order: the include child commits the next still-possible edge to the
// tree and propagates constraints (every edge conflicting with it is forced
// out; every edge closing a cycle with the tree-so-far can never join and is
// forced out too); the exclude child forces the edge out directly. This is
// the library's first binary-branching application shape and the first app
// to exercise Decision short-circuiting (Registry::stop) end to end.
//
// Minimisation follows the TSP convention (src/apps/tsp/tsp.hpp): a complete
// spanning tree scores -(cost); partial nodes score the kPartialObj sentinel
// so they never beat a real tree. A Decision run asks "is there a
// conflict-free spanning tree of cost <= B?" via decisionTarget = -B.

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "util/archive.hpp"
#include "util/bitset.hpp"

namespace yewpar::apps::cmst {

// Objective of a node that is not yet a spanning tree: strictly worse than
// any complete tree, above the registry's kObjMin sentinel.
inline constexpr std::int64_t kPartialObj = -(1LL << 60);

// Bound value for provably infeasible subtrees (no conflict-free spanning
// tree exists below the node). Compares <= every stored bound and < every
// decision target, so such subtrees always prune.
inline constexpr std::int64_t kInfeasible =
    std::numeric_limits<std::int64_t>::min();

struct Instance {
  std::int32_t n = 0;                // vertices, 0-based
  std::vector<std::int32_t> eu, ev;  // edge endpoints, sorted by weight
  std::vector<std::int32_t> ew;      // edge weights, non-negative
  std::vector<std::int32_t> ca, cb;  // conflicting edge pairs (edge indices)

  // Derived, rebuilt by finalize()/load() and never serialized: per-edge
  // list of conflicting edge indices.
  std::vector<std::vector<std::int32_t>> conflictAdj;

  std::int32_t m() const { return static_cast<std::int32_t>(eu.size()); }

  // Endpoints of edge e, as Dsu elements.
  std::size_t u(std::size_t e) const { return static_cast<std::size_t>(eu[e]); }
  std::size_t v(std::size_t e) const { return static_cast<std::size_t>(ev[e]); }

  std::int64_t totalWeight() const;

  const std::vector<std::int32_t>& conflicts(std::int32_t e) const {
    return conflictAdj[static_cast<std::size_t>(e)];
  }

  // Sort edges by weight (stable), remap the conflict pairs to the sorted
  // indices, and build the conflict adjacency. Call once after `eu/ev/ew`
  // and `ca/cb` are populated.
  void finalize();

  void save(OArchive& a) const { a << n << eu << ev << ew << ca << cb; }
  void load(IArchive& a);
};

struct Node {
  DynBitset included;         // edges in the tree (m bits, copied w/o heap)
  DynBitset excluded;         // edges decided out (m bits)
  std::int32_t nextEdge = 0;  // first undecided edge index
  std::int64_t cost = 0;      // sum of included edge weights
  bool complete = false;      // included forms a spanning tree

  std::int64_t getObj() const { return complete ? -cost : kPartialObj; }

  void save(OArchive& a) const {
    a << included << excluded << nextEdge << cost << complete;
  }
  void load(IArchive& a) {
    a >> included >> excluded >> nextEdge >> cost >> complete;
  }
};

Node rootNode(const Instance& inst);

// Admissible bound on the best objective in the subtree: the negated cost of
// a Kruskal minimum spanning forest completion over the still-allowed edges
// (included edges forced, excluded edges forbidden, remaining conflicts
// relaxed). The conflict propagation baked into `excluded` strengthens the
// relaxation beyond a plain MST, and a forced-exclusion count check (fewer
// than n-1 usable edges remain) detects infeasibility before the DSU pass.
// Returns kInfeasible when no spanning completion exists. The pass reuses a
// per-thread scratch forest (never held past the call, so parallel workers
// never share one) and walks ~excluded a 64-bit word at a time, in the same
// ascending index order as an edge-by-edge scan, so the bound is unchanged.
std::int64_t upperBound(const Instance& inst, const Node& n);

// Lazy node generator: binary branch (include first, then exclude) on the
// cheapest undecided edge that is neither excluded nor cycle-closing.
// The constructor finds that edge the same way upperBound walks, and forces
// each cycle-closing edge it passes out in its own copy of `parent`, which
// both children inherit, so no per-node skip list is kept.
struct Gen {
  using Space = Instance;
  using Node = cmst::Node;

  const Instance* inst;
  cmst::Node parent;  // with the skipped cycle-closing edges excluded
  std::int32_t candidate = -1;  // branch edge; -1 = leaf
  int emitted = 0;

  Gen(const Instance& i, const cmst::Node& p);

  bool hasNext() const { return candidate >= 0 && emitted < 2; }
  cmst::Node next();
};

// Exhaustive reference: minimum conflict-free spanning tree cost, nullopt if
// the instance is infeasible. Enumerates edge subsets; requires m() <= 24.
std::optional<std::int64_t> bruteForce(const Instance& inst);

// Text format (whitespace-separated integers):
//   n m p
//   u v w     (m lines: 0-based endpoints u != v, weight w >= 0)
//   a b       (p lines: 0-based indices a != b into the edge list as given)
// Throws std::runtime_error on malformed or out-of-range input.
Instance parseText(const std::string& text);

// Seeded random instance: a random spanning tree (guaranteeing the
// unconstrained graph is connected) plus extra distinct random edges up to m
// total, weights in [1, 1000], and `conflicts` distinct random edge pairs.
// Feasibility under the conflicts is not guaranteed.
Instance randomInstance(std::int32_t n, std::int32_t m, std::int32_t conflicts,
                        std::uint64_t seed);

}  // namespace yewpar::apps::cmst
