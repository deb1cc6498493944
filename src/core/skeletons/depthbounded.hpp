#pragma once

// Depth-Bounded search coordination (paper Section 4.2, rule (spawn-depth)):
// every node at depth < dcutoff has all of its children spawned as tasks, in
// traversal order, as tasks execute (not upfront). Below the cutoff, tasks
// run the plain sequential loop. Distribution across localities happens by
// idle localities stealing from remote workpools.

#include "core/skeletons/engine.hpp"
#include "core/skeletons/subtree_search.hpp"

namespace yewpar::skeletons {

namespace dbdetail {

template <typename Gen>
struct Coord {
  template <typename Ctx, typename WS>
  static void executeTask(Ctx& ctx, WS& ws, typename Ctx::Task task) {
    if (!detail::visitNode(ctx, ws, task.node)) return;

    if (task.depth < ctx.params().dcutoff) {
      // (spawn-depth): all children become tasks, queued in traversal order
      // so the order-preserving pool hands them out heuristic-first.
      Gen gen(ctx.space(), task.node);
      while (gen.hasNext()) {
        if (ctx.stopped()) return;
        ctx.spawn(typename Ctx::Task{gen.next(), task.depth + 1});
      }
    } else {
      detail::subtreeSearch<detail::Hook::None, Gen>(ctx, ws, task.node,
                                                     task.depth);
    }
  }

  template <typename Ctx, typename WS>
  static void onIdle(Ctx& ctx, WS& ws) {
    ctx.requestRemotePoolSteal(ws.rng);
  }
};

}  // namespace dbdetail

template <NodeGenerator Gen, typename SearchType, typename... Opts>
struct DepthBounded {
  using Space = typename Gen::Space;
  using Node = typename Gen::Node;
  using Eng =
      detail::Engine<dbdetail::Coord<Gen>, Gen, SearchType, Opts...>;
  using Out = typename Eng::Out;

  static Out search(const Params& params, const Space& space,
                    const Node& root) {
    return Eng::run(params, space, root);
  }
};

}  // namespace yewpar::skeletons
