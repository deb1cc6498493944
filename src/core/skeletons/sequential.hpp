#pragma once

// Sequential search coordination (paper Listing 2): single-threaded
// depth-first backtracking over a stack of Lazy Node Generators, with no
// runtime underneath. This is the baseline every parallel speedup in the
// evaluation is measured against, so it carries no locks, channels or pools,
// only the registry shared with the other skeletons (uncontended here).

#include <vector>

#include "core/nodegen.hpp"
#include "core/outcome.hpp"
#include "core/params.hpp"
#include "core/search_ops.hpp"
#include "runtime/trace.hpp"
#include "util/timer.hpp"

namespace yewpar::skeletons {

template <NodeGenerator Gen, typename SearchType, typename... Opts>
struct Sequential {
  using Space = typename Gen::Space;
  using Node = typename Gen::Node;
  using Bound = BoundOf<Opts...>;
  static constexpr bool kPruneLevel = kPruneLevelOf<Opts...>;
  using Ops = detail::SearchOps<Gen, SearchType, Bound>;
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
    typename Ops::WorkerAcc acc;

    bool stopped = false;

    // processNode(root) then push its generator (Listing 2 lines 3-4).
    auto rootRes = Ops::visit(reg, acc, space, root);
    if (rootRes.action == detail::Action::Stop) {
      stopped = true;
    }

    std::vector<Gen> genStack;
    genStack.reserve(64);
    if (rootRes.action == detail::Action::Continue) {
      genStack.emplace_back(space, root);
    } else if (rootRes.action == detail::Action::Prune) {
      ++acc.prunes;
    }

    while (!stopped && !genStack.empty()) {
      Gen& gen = genStack.back();
      if (gen.hasNext()) {
        Node child = gen.next();
        auto res = Ops::visit(reg, acc, space, child);
        switch (res.action) {
          case detail::Action::Continue:
            genStack.emplace_back(space, child);
            break;
          case detail::Action::Prune:
            ++acc.prunes;
            if constexpr (kPruneLevel) {
              // Children arrive in non-increasing bound order: the failed
              // check rules out every unexplored sibling too.
              genStack.pop_back();
              ++acc.backtracks;
            }
            break;
          case detail::Action::Stop:
            stopped = true;
            break;
        }
      } else {
        genStack.pop_back();  // Backtrack
        ++acc.backtracks;
      }
    }

    Ops::mergeWorkerAcc(reg, acc);
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
