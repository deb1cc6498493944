#pragma once

// Lazy Node Generators (paper Section 4.1).
//
// A Lazy Node Generator enumerates the children of a search-tree node in
// traversal (heuristic) order, materialising each child only when `next()`
// is called. Applications provide one generator type; skeletons drive it.
//
// A generator type must look like:
//
//   struct Gen {
//     using Space = ...;   // replicated, read-only search space
//     using Node  = ...;   // search tree node (copyable, serializable)
//     Gen(const Space& space, const Node& parent);
//     bool hasNext();      // more children remain?
//     Node next();         // next child, in traversal order
//   };
//
// Define per-node generator work in the header, where the skeleton loops can
// see it, and let the compiler choose what to inline: forcing a call inline
// can make the loop slower (see uts::childCount).
//
// Node requirements:
//   * copyable and default-constructible;
//   * `void save(OArchive&) const` / `void load(IArchive&)` so tasks can
//     cross locality boundaries;
//   * for Optimisation/Decision searches: `std::int64_t getObj() const`.
//     getObj() is always maximised; a minimisation application returns the
//     negated cost for complete solutions and a large negative sentinel for
//     partial nodes (so a partial node never beats a real solution) — see
//     the minimisation-convention note in core/searchtypes.hpp.

#include <concepts>
#include <cstdint>

#include "util/archive.hpp"

namespace yewpar {

template <typename G>
concept NodeGenerator =
    std::constructible_from<G, const typename G::Space&,
                            const typename G::Node&> &&
    requires(G g) {
      { g.hasNext() } -> std::convertible_to<bool>;
      { g.next() } -> std::same_as<typename G::Node>;
    };

template <typename N>
concept SearchNode =
    std::copyable<N> && std::default_initializable<N> &&
    requires(const N& n, OArchive& oa, IArchive& ia, N& m) {
      n.save(oa);
      m.load(ia);
    };

template <typename N>
concept ObjectiveNode = SearchNode<N> && requires(const N& n) {
  { n.getObj() } -> std::convertible_to<std::int64_t>;
};

}  // namespace yewpar
