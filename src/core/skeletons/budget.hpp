#pragma once

// Budget search coordination (paper Section 4.2, rule (spawn-budget), and
// Listing 4): workers search sequentially until they have backtracked
// `backtrackBudget` times, then offload every unexplored subtree at the
// lowest depth of their generator stack into the workpool and reset the
// counter. Periodic, asynchronous load balancing in the style of mts.

#include "core/skeletons/engine.hpp"
#include "core/skeletons/subtree_search.hpp"

namespace yewpar::skeletons {

namespace budgetdetail {

template <typename Gen>
struct Coord {
  template <typename Ctx, typename WS>
  static void executeTask(Ctx& ctx, WS& ws, typename Ctx::Task task) {
    if (!detail::visitNode(ctx, ws, task.node)) return;
    detail::subtreeSearch<detail::Hook::Budget, Gen>(
        ctx, ws, task.node, task.depth, ctx.params().backtrackBudget);
  }

  template <typename Ctx, typename WS>
  static void onIdle(Ctx& ctx, WS& ws) {
    ctx.requestRemotePoolSteal(ws.rng);
  }
};

}  // namespace budgetdetail

template <NodeGenerator Gen, typename SearchType, typename... Opts>
struct Budget {
  using Space = typename Gen::Space;
  using Node = typename Gen::Node;
  using Eng =
      detail::Engine<budgetdetail::Coord<Gen>, Gen, SearchType, Opts...>;
  using Out = typename Eng::Out;

  static Out search(const Params& params, const Space& space,
                    const Node& root) {
    return Eng::run(params, space, root);
  }
};

}  // namespace yewpar::skeletons
