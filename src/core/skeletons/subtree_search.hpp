#pragma once

// The depth-first subtree search loop shared by the parallel coordinations.
// It is the Sequential loop (Listing 2) extended with the two dynamic work
// generation hooks of Listings 3 and 4:
//   * PollSteals (Stack-Stealing): on every expansion, check inline for a
//     pending steal request; only then answer it, out of line, by splitting
//     off unexplored lowest-depth subtrees;
//   * budget (Budget): after `budget` backtracks, offload all unexplored
//     lowest-depth subtrees into the workpool and reset the counter.

#include <cstdint>
#include <vector>

#include "core/search_ops.hpp"
#include "runtime/trace.hpp"

namespace yewpar::detail {

// Split off unexplored subtrees at the lowest depth of the generator stack
// (closest to the root, hence heuristically the largest) - the paper's
// (spawn-stack) rule: One takes a single node, All every unexplored sibling
// at that depth. The caller is responsible for counting the tasks as
// created.
template <typename Ctx, typename Gen>
std::vector<typename Ctx::Task> splitLowest(Ctx&, std::vector<Gen>& genStack,
                                            int rootDepth,
                                            ChunkPolicy chunk) {
  std::vector<typename Ctx::Task> out;
  for (std::size_t gi = 0; gi < genStack.size(); ++gi) {
    if (!genStack[gi].hasNext()) continue;
    const auto depth = rootDepth + static_cast<std::int32_t>(gi) + 1;
    do {
      out.push_back({genStack[gi].next(), depth});
    } while (chunk == ChunkPolicy::All && genStack[gi].hasNext());
    break;
  }
  return out;
}

// Answer one pending local steal request and one pending remote steal
// request, if any (Listing 3 lines 6-13). Cold: the search loop calls it
// only once a request is pending.
template <typename Ctx, typename WS, typename Gen>
[[gnu::noinline, gnu::cold]] void pollStealRequests(
    Ctx& ctx, WS& ws, std::vector<Gen>& genStack, int rootDepth) {
  auto& metrics = ctx.reg().metrics;

  const ChunkPolicy chunk = ctx.params().chunk;

  if (ws.stealChan.hasRequest()) {
    auto tasks = splitLowest(ctx, genStack, rootDepth, chunk);
    if (tasks.empty()) {
      (void)ws.stealChan.respond({});
    } else {
      const auto n = tasks.size();
      // Count before the tasks become visible to the thief.
      ctx.term().taskCreated(n);
      metrics.tasksSpawned.fetch_add(n, std::memory_order_relaxed);
      if (!ws.stealChan.respond(std::move(tasks))) {
        // Thief withdrew; reintegrate the split-off work locally so no
        // subtree is lost.
        for (auto& t : tasks) {
          const int d = t.depth;
          ctx.pool().push(std::move(t), d);
        }
      } else {
        metrics.localSteals.fetch_add(n, std::memory_order_relaxed);
        metrics.stealReplies.fetch_add(1, std::memory_order_relaxed);
        rt::trace::record(rt::trace::Ev::kLocalStealAnswer, ctx.id(),
                          static_cast<std::uint64_t>(ws.id), n);
      }
    }
  }

  if (ctx.hasPendingRemoteSteal()) {
    if (auto req = ctx.takePendingRemoteSteal()) {
      auto tasks = splitLowest(ctx, genStack, rootDepth, chunk);
      metrics.tasksSpawned.fetch_add(tasks.size(),
                                     std::memory_order_relaxed);
      // answerRemoteSteal counts non-empty replies as created; an empty
      // reply NACKs so the thief's steal slot frees up.
      ctx.answerRemoteSteal(*req, std::move(tasks));
    }
  }
}

// Search the subtree below `root` (root itself has already been visited by
// the caller). `budget` == 0 means unbounded.
template <bool PollSteals, typename Gen, typename Ctx, typename WS>
void subtreeSearch(Ctx& ctx, WS& ws, const typename Ctx::Node& root,
                   int rootDepth, std::uint64_t budget) {
  using Ops = typename Ctx::Ops;
  auto& reg = ctx.reg();

  std::vector<Gen> genStack;
  genStack.reserve(64);
  genStack.emplace_back(ctx.space(), root);
  std::uint64_t backtracks = 0;

  while (!genStack.empty()) {
    if (ctx.stopped()) return;

    if constexpr (PollSteals) {
      if (ws.stealChan.hasRequest() || ctx.hasPendingRemoteSteal())
          [[unlikely]] {
        pollStealRequests(ctx, ws, genStack, rootDepth);
      }
    }

    // (spawn-budget): offload all unexplored lowest-depth subtrees.
    if (budget != 0 && backtracks >= budget) {
      for (auto& t :
           splitLowest(ctx, genStack, rootDepth, ChunkPolicy::All)) {
        ctx.spawn(std::move(t));
      }
      backtracks = 0;
      continue;
    }

    Gen& gen = genStack.back();
    if (gen.hasNext()) {
      typename Ctx::Node child = gen.next();
      auto res = Ops::visit(reg, ws.acc, ctx.space(), child);
      ctx.applyVisit(res);
      if (res.action == Action::Continue) {
        genStack.emplace_back(ctx.space(), child);
      } else if (res.action == Action::Stop) {
        return;
      } else {
        ++ws.acc.prunes;
        if constexpr (Ctx::kPruneLevel) {
          // Prune with level discard: unexplored siblings cannot beat the
          // incumbent either (children are in non-increasing bound order).
          genStack.pop_back();
          ++backtracks;
          ++ws.acc.backtracks;
        }
      }
    } else {
      genStack.pop_back();  // backtrack
      ++backtracks;
      ++ws.acc.backtracks;
    }
  }
}

}  // namespace yewpar::detail
