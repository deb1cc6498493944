#pragma once

// The depth-first loop every skeleton runs. Sequential (Listing 2) runs it
// bare; each parallel coordination adds at most one dynamic work generation
// hook (Listings 3 and 4):
//   * PollSteals (Stack-Stealing): on every expansion, check inline for a
//     pending steal request; only then answer it, out of line, by splitting
//     off unexplored lowest-depth subtrees;
//   * Budget: after `period` backtracks, offload all unexplored
//     lowest-depth subtrees into the workpool;
//   * RandomSpawn: turn one child in `period` (by the worker's RNG) into a
//     task instead of visiting it.
// The per-node path keeps the top of the generator stack, the counters and
// the enumeration fold in locals, and is split once on the node cap.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/search_ops.hpp"
#include "runtime/trace.hpp"

namespace yewpar::detail {

enum class Hook { None, PollSteals, Budget, RandomSpawn };

// Visit one node outside the loop (a task's root, Ordered's prefix).
// Returns true iff its subtree is to be searched.
template <typename Ctx, typename WS>
bool visitNode(Ctx& ctx, WS& ws, const typename Ctx::Node& node) {
  auto res = Ctx::Ops::visit(ctx.reg(), ws.acc, ctx.space(), node);
  ctx.applyVisit(res);
  if (res.action == Action::Prune) ++ws.acc.prunes;
  return res.action == Action::Continue;
}

// Raw storage for the loop's generator stack. The loop constructs and
// destroys the generators itself and keeps the top in a local, so the hot
// path holds it in a register.
template <typename Gen>
class GenStack {
 public:
  explicit GenStack(std::size_t cap = 64)
      : cap_(cap), base_(std::allocator<Gen>{}.allocate(cap)) {}
  ~GenStack() { std::allocator<Gen>{}.deallocate(base_, cap_); }
  GenStack(const GenStack&) = delete;
  GenStack& operator=(const GenStack&) = delete;

  Gen* base() const { return base_; }
  Gen* last() const { return base_ + cap_ - 1; }

  // Double the capacity, moving the live generators [base, top] over.
  // Returns the new top.
  [[gnu::noinline]] Gen* grow(Gen* top) {
    const auto n = top - base_ + 1;
    GenStack bigger(2 * cap_);  // frees the new storage if a move throws
    std::uninitialized_move_n(base_, n, bigger.base_);
    std::destroy_n(base_, n);
    std::swap(cap_, bigger.cap_);
    std::swap(base_, bigger.base_);
    return base_ + n - 1;
  }

 private:
  std::size_t cap_;
  Gen* base_;
};

// Split off unexplored subtrees at the lowest depth of the generator stack
// (closest to the root, hence heuristically the largest) - the paper's
// (spawn-stack) rule: One takes a single node, All every unexplored sibling
// at that depth. `genStack` is the live stack, lowest depth first. The
// caller is responsible for counting the tasks as created.
template <typename Ctx, typename Gens>
std::vector<typename Ctx::Task> splitLowest(Ctx&, Gens&& genStack,
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

// (spawn-budget): offload all unexplored lowest-depth subtrees.
template <typename Ctx, typename Gen>
[[gnu::noinline]] void spawnLowest(Ctx& ctx, std::span<Gen> genStack,
                                   int rootDepth) {
  for (auto& t : splitLowest(ctx, genStack, rootDepth, ChunkPolicy::All)) {
    ctx.spawn(std::move(t));
  }
}

// Answer one pending local steal request and one pending remote steal
// request, if any (Listing 3 lines 6-13). Cold: the search loop calls it
// only once a request is pending.
template <typename Ctx, typename WS, typename Gen>
[[gnu::noinline, gnu::cold]] void pollStealRequests(Ctx& ctx, WS& ws,
                                                    std::span<Gen> genStack,
                                                    int rootDepth) {
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

// Out of line, so each of the two copies (capped or not) is compiled as
// its own lean loop.
template <Hook H, bool Capped, typename Gen, typename Ctx, typename WS>
[[gnu::noinline]] void searchLoop(Ctx& ctx, WS& ws,
                                  const typename Ctx::Node& root,
                                  int rootDepth, std::uint64_t period) {
  using Ops = typename Ctx::Ops;
  // Stop is raised only by the node cap or a decision find.
  constexpr bool kMayStop = Capped || Ops::kDecision;

  auto& reg = ctx.reg();
  const auto& space = ctx.space();
  GenStack<Gen> stack;
  Gen* base = stack.base();
  Gen* last = stack.last();
  Gen* top = base;  // nullptr once the stack has emptied
  std::uint64_t nodes = 0, prunes = 0, backtracks = 0, sinceSplit = 0;
  auto value = std::move(ws.acc.value);

  ::new (top) Gen(space, root);
  try {
    for (;;) {
      if constexpr (kMayStop) {
        if (ctx.stopped()) break;
      }
      if constexpr (H == Hook::PollSteals) {
        if (ws.stealChan.hasRequest() || ctx.hasPendingRemoteSteal())
            [[unlikely]] {
          pollStealRequests(ctx, ws, std::span<Gen>(base, top + 1),
                            rootDepth);
        }
      }

      if (top->hasNext()) {
        typename Ctx::Node child = top->next();
        if constexpr (H == Hook::RandomSpawn) {
          // Hive the child off unvisited; the worker running the task
          // visits it, as under every other spawn rule.
          if (ws.rng.below(period) == 0) {
            const auto depth =
                rootDepth + static_cast<std::int32_t>(top - base) + 1;
            ctx.spawn(typename Ctx::Task{std::move(child), depth});
            continue;
          }
        }
        if constexpr (Capped) {
          if (Ops::capReached(reg)) {
            ctx.applyVisit({Action::Stop, {}});
            break;
          }
        } else {
          ++nodes;
        }
        const VisitResult res = Ops::process(reg, value, space, child);
        if constexpr (!Ops::kEnumeration) ctx.applyVisit(res);
        if (res.action == Action::Continue) {
          if (top == last) [[unlikely]] {
            top = stack.grow(top);
            base = stack.base();
            last = stack.last();
          }
          ::new (top + 1) Gen(space, child);
          ++top;
          continue;
        }
        if (res.action == Action::Stop) break;
        ++prunes;
        // Prune with level discard: unexplored siblings cannot beat the
        // incumbent either (children are in non-increasing bound order),
        // so backtrack as if the generator were exhausted.
        if constexpr (!Ctx::kPruneLevel) continue;
      }

      // Backtrack.
      top->~Gen();
      ++backtracks;
      if (top == base) {
        top = nullptr;
        break;
      }
      --top;
      if constexpr (H == Hook::Budget) {
        // period == 0 (no budget) never matches: sinceSplit is >= 1 here.
        if (++sinceSplit == period) {
          spawnLowest(ctx, std::span<Gen>(base, top + 1), rootDepth);
          sinceSplit = 0;
        }
      }
    }
  } catch (...) {
    std::destroy(base, top + 1);  // every throwing call leaves them live
    throw;
  }
  if (top != nullptr) std::destroy(base, top + 1);

  ws.acc.nodes += nodes;
  ws.acc.prunes += prunes;
  ws.acc.backtracks += backtracks;
  ws.acc.value = std::move(value);
}

// Search the subtree below `root` (root itself has already been visited by
// the caller). `period` is the hook's: backtracks between Budget splits (0 =
// never), or one child in `period` spawned under RandomSpawn.
template <Hook H, typename Gen, typename Ctx, typename WS>
void subtreeSearch(Ctx& ctx, WS& ws, const typename Ctx::Node& root,
                   int rootDepth, std::uint64_t period = 0) {
  if (ctx.reg().maxNodes != 0) {
    searchLoop<H, true, Gen>(ctx, ws, root, rootDepth, period);
  } else {
    searchLoop<H, false, Gen>(ctx, ws, root, rootDepth, period);
  }
}

}  // namespace yewpar::detail
