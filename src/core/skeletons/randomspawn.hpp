#pragma once

// RandomSpawn search coordination - the second extension point named in
// paper Section 4 ("new coordination methods may provide best-first search
// or *random task creation*"). Each generated child is converted into a
// workpool task with probability 1/randomSpawnOneIn and searched inline
// otherwise. Expected work generation is steady and size-agnostic: no
// parameters tied to tree shape (depth cutoffs) or search dynamics
// (backtrack budgets), at the cost of ignoring the subtree-size heuristic
// that Depth-Bounded and Stack-Stealing exploit.

#include "core/skeletons/engine.hpp"
#include "core/skeletons/subtree_search.hpp"

namespace yewpar::skeletons {

namespace rsdetail {

inline constexpr std::uint64_t kDefaultOneIn = 64;

template <typename Gen>
struct Coord {
  template <typename Ctx, typename WS>
  static void executeTask(Ctx& ctx, WS& ws, typename Ctx::Task task) {
    if (!detail::visitNode(ctx, ws, task.node)) return;

    const auto oneIn = ctx.params().randomSpawnOneIn != 0
                           ? ctx.params().randomSpawnOneIn
                           : kDefaultOneIn;

    detail::subtreeSearch<detail::Hook::RandomSpawn, Gen>(
        ctx, ws, task.node, task.depth, oneIn);
  }

  template <typename Ctx, typename WS>
  static void onIdle(Ctx& ctx, WS& ws) {
    ctx.requestRemotePoolSteal(ws.rng);
  }
};

}  // namespace rsdetail

template <NodeGenerator Gen, typename SearchType, typename... Opts>
struct RandomSpawn {
  using Space = typename Gen::Space;
  using Node = typename Gen::Node;
  using Eng =
      detail::Engine<rsdetail::Coord<Gen>, Gen, SearchType, Opts...>;
  using Out = typename Eng::Out;

  static Out search(const Params& params, const Space& space,
                    const Node& root) {
    return Eng::run(params, space, root);
  }
};

}  // namespace yewpar::skeletons
