#pragma once

// Sequential search coordination (paper Listing 2): single-threaded
// depth-first backtracking over a stack of Lazy Node Generators, with no
// runtime underneath. This is the baseline every parallel speedup in the
// evaluation is measured against, so it carries no locks, channels or pools,
// only the registry shared with the other skeletons (uncontended here). Its
// loop is the one the parallel coordinations run (subtree_search.hpp)
// without their hooks, over a context that has no runtime.

#include "core/nodegen.hpp"
#include "core/outcome.hpp"
#include "core/params.hpp"
#include "core/search_ops.hpp"
#include "core/skeletons/subtree_search.hpp"
#include "runtime/trace.hpp"
#include "util/timer.hpp"

namespace yewpar::skeletons {

namespace seqdetail {

// The loop's view of a search with no runtime: no other locality to tell of
// a new bound, and no other worker to raise stop (the loop itself returns
// on Stop).
template <typename OpsT, bool PruneLvl>
struct Ctx {
  using Ops = OpsT;
  using Node = typename Ops::Node;
  static constexpr bool kPruneLevel = PruneLvl;

  typename Ops::Reg& reg_;
  const typename Ops::Space& space_;

  typename Ops::Reg& reg() { return reg_; }
  const typename Ops::Space& space() const { return space_; }
  static constexpr bool stopped() { return false; }
  static void applyVisit(const detail::VisitResult&) {}
};

}  // namespace seqdetail

template <NodeGenerator Gen, typename SearchType, typename... Opts>
struct Sequential {
  using Space = typename Gen::Space;
  using Node = typename Gen::Node;
  using Ops = detail::SearchOps<Gen, SearchType, BoundOf<Opts...>>;
  using Out = Outcome<Node, typename Ops::EnumValue>;

  static Out search(const Params& params, const Space& space,
                    const Node& root) {
    Timer timer;
    // One locality, one worker, one task: a single span covering the whole
    // search, so sequential traces load in the same Perfetto view as the
    // parallel ones.
    rt::trace::SessionScope traceScope(!params.traceFile.empty());
    rt::trace::nameThread("L0.seq", 0);
    rt::trace::record(rt::trace::Ev::kTaskRunBegin, 0, 0, 0);
    typename Ops::Reg reg;
    reg.decisionTarget = params.decisionTarget;
    reg.maxNodes = params.maxNodes;
    seqdetail::Ctx<Ops, kPruneLevelOf<Opts...>> ctx{reg, space};
    struct {
      typename Ops::WorkerAcc acc;
    } ws;

    // processNode(root), then search below it (Listing 2).
    if (detail::visitNode(ctx, ws, root)) {
      detail::subtreeSearch<detail::Hook::None, Gen>(ctx, ws, root, 0);
    }

    Ops::mergeWorkerAcc(reg, ws.acc);
    rt::trace::record(rt::trace::Ev::kTaskRunEnd, 0);
    if (!params.traceFile.empty()) {
      rt::trace::writeChromeJson(params.traceFile,
                                 {rt::trace::session().collect(-1)});
    }

    Out out;
    out.elapsedSeconds = timer.elapsedSeconds();
    out.metrics = reg.metrics.snapshot();
    out.sum = std::move(reg.acc);
    out.incumbent = std::move(reg.incumbent);
    out.objective = reg.incumbentObj;
    out.complete = !reg.truncated.load();
    if constexpr (SearchType::isDecision) {
      out.decided = out.objective >= params.decisionTarget;
    }
    return out;
  }
};

}  // namespace yewpar::skeletons
