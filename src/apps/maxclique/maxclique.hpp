#pragma once

// Maximum Clique / k-Clique search application (paper Section 5.1 and
// Listing 1): the McCreesh-Prosser MCSa-style algorithm with bitset
// adjacency and a greedy-colouring upper bound. The Lazy Node Generator
// below is a faithful dynamic-bitset port of the paper's Listing 1.

#include <cstdint>
#include <vector>

#include "apps/maxclique/graph.hpp"
#include "util/archive.hpp"
#include "util/bitset.hpp"

namespace yewpar::apps::mc {

// Greedily colours the subgraph induced by vertex set p. On return,
// `vertex` enumerates p (in colour-class order) and `colour[i]` is the
// number of colours used to colour {vertex[0], ..., vertex[i]} - an upper
// bound on the clique extension possible within that prefix.
void greedyColour(const Graph& graph, const DynBitset& p,
                  std::vector<std::int32_t>& vertex,
                  std::vector<std::int32_t>& colour);

// Search tree node (Listing 1's struct Node).
struct Node {
  DynBitset clique;      // current clique
  std::int32_t size = 0; // |clique|
  DynBitset candidates;  // vertices adjacent to every clique member
  std::int32_t bound = 0;// colour bound on extensions

  std::int64_t getObj() const { return size; }

  void save(OArchive& a) const { a << clique << size << candidates << bound; }
  void load(IArchive& a) { a >> clique >> size >> candidates >> bound; }
};

// Root node: empty clique, all vertices candidates.
Node rootNode(const Graph& g);

// Upper bound for branch-and-bound pruning (Listing 1's upperBound).
inline std::int64_t upperBound(const Graph&, const Node& n) {
  return n.getObj() + n.bound;
}

// Lazy node generator (Listing 1's struct Gen): children in reverse colour
// order, i.e. heuristically strongest candidate first.
struct Gen {
  using Space = Graph;
  using Node = mc::Node;

  const Graph* graph;
  // Owned copies of exactly the parent state children are built from (the
  // generator outlives the caller's node inside skeleton stacks).
  DynBitset parentClique;
  std::int32_t parentSize;
  std::vector<std::int32_t> vertex;  // candidates, colour-class order
  std::vector<std::int32_t> colour;  // prefix colour counts
  DynBitset remaining;               // candidates not yet branched on
  std::int32_t k;                    // iteration index (runs downwards)

  Gen(const Graph& g, const mc::Node& p)
      : graph(&g), parentClique(p.clique), parentSize(p.size),
        remaining(p.candidates) {
    greedyColour(g, remaining, vertex, colour);
    k = static_cast<std::int32_t>(remaining.count());
  }

  bool hasNext() const { return k > 0; }

  mc::Node next() {
    --k;
    const auto v = static_cast<std::size_t>(vertex[static_cast<std::size_t>(k)]);
    remaining.reset(v);
    mc::Node child;
    child.clique = parentClique;
    child.clique.set(v);
    child.size = parentSize + 1;
    child.candidates = remaining;
    child.candidates &= graph->neighbours(v);
    // Every child candidate is a neighbour of v and lies in the prefix
    // vertex[0..k). Greedy colouring never puts two adjacent vertices in one
    // class, so none of them shares v's class colour[k]: they all lie in
    // classes 1..colour[k]-1, and a clique takes at most one vertex per
    // class. This is the bound maxCliqueSeq prunes with before branching.
    child.bound = colour[static_cast<std::size_t>(k)] - 1;
    return child;
  }
};

// Exhaustive reference (no colour bound) for testing; n <= ~30.
std::int32_t bruteForceMaxClique(const Graph& g);

// True iff the set bits of `clique` are pairwise adjacent in g.
bool isClique(const Graph& g, const DynBitset& clique);

}  // namespace yewpar::apps::mc
