// Chunked steal replies, end to end: ChunkPolicy parsing and sizing, the
// stack splitter, the engine-level guarantee that every chunking policy
// reproduces the unchunked search result on enumeration and branch-and-bound
// workloads (the Section 4.2 ablation's correctness leg), and the no
// ping-pong invariant: a task crosses the network at most once.
// The CI TSan lane runs this suite alongside test_runtime.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/maxclique/graph.hpp"
#include "apps/maxclique/maxclique.hpp"
#include "apps/uts/uts.hpp"
#include "common/run_skeleton.hpp"
#include "common/synth.hpp"
#include "core/yewpar.hpp"

using namespace yewpar;
using namespace yewpar::testing;

namespace {

const char* kPolicySpecs[] = {"one", "all"};

}  // namespace

TEST(ChunkPolicy, ParsesEverySpec) {
  EXPECT_EQ(parseChunkPolicy("one"), ChunkPolicy::One);
  EXPECT_EQ(parseChunkPolicy("all"), ChunkPolicy::All);
}

TEST(ChunkPolicy, RejectsBadSpecs) {
  EXPECT_THROW(parseChunkPolicy(""), std::invalid_argument);
  EXPECT_THROW(parseChunkPolicy("chunky"), std::invalid_argument);
  for (const char* gone : {"fixed", "fixed:4", "half", "adaptive"}) {
    EXPECT_THROW(parseChunkPolicy(gone), std::invalid_argument) << gone;
  }
}

TEST(ChunkPolicy, VictimKeepsAtLeastHalf) {
  EXPECT_EQ(rt::chunkSize(ChunkPolicy::One, 100), 1u);
  EXPECT_EQ(rt::chunkSize(ChunkPolicy::All, 10), 5u);
  EXPECT_EQ(rt::chunkSize(ChunkPolicy::All, 7), 3u);
  for (const char* spec : kPolicySpecs) {
    const auto policy = parseChunkPolicy(spec);
    // Nothing to steal, nothing taken; a lone task can still move.
    EXPECT_EQ(rt::chunkSize(policy, 0), 0u) << spec;
    EXPECT_EQ(rt::chunkSize(policy, 1), 1u) << spec;
    for (std::size_t n = 2; n < 64; ++n) {
      EXPECT_GE(n - rt::chunkSize(policy, n), n / 2) << spec << " n=" << n;
    }
  }
}

namespace {

// splitLowest only needs Ctx for its Task alias.
struct FakeCtx {
  using Task = yewpar::detail::EngineTask<SynthNode>;
};

// A generator stack describing a descent: at each level one child was taken
// (the path) leaving branching-1 unexplored siblings.
std::vector<SynthGen> descend(const SynthSpace& space, int levels) {
  std::vector<SynthGen> stack;
  SynthNode cur{};
  for (int l = 0; l < levels; ++l) {
    stack.emplace_back(space, cur);
    cur = stack.back().next();  // follow the first child down
  }
  return stack;
}

}  // namespace

TEST(SplitLowest, OneTakesASingleLowestDepthNode) {
  SynthSpace space{3, 6};
  auto stack = descend(space, 3);  // 2 unexplored siblings per level
  FakeCtx ctx;
  auto tasks = yewpar::detail::splitLowest(ctx, stack, /*rootDepth=*/0,
                                           parseChunkPolicy("one"));
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].depth, 1);  // lowest depth first
  EXPECT_TRUE(stack[0].hasNext());  // one sibling left at the lowest level
}

TEST(SplitLowest, AllTakesEverySiblingAtTheLowestLevelOnly) {
  SynthSpace space{4, 6};
  auto stack = descend(space, 3);  // 3 unexplored siblings per level
  FakeCtx ctx;
  auto tasks = yewpar::detail::splitLowest(ctx, stack, /*rootDepth=*/0,
                                           parseChunkPolicy("all"));
  ASSERT_EQ(tasks.size(), 3u);
  for (const auto& t : tasks) EXPECT_EQ(t.depth, 1);
  EXPECT_FALSE(stack[0].hasNext());  // lowest level drained...
  EXPECT_TRUE(stack[1].hasNext());   // ...deeper levels untouched
}

TEST(SplitLowest, EmptyStackSplitsNothing) {
  std::vector<SynthGen> stack;
  FakeCtx ctx;
  for (const char* spec : kPolicySpecs) {
    EXPECT_TRUE(yewpar::detail::splitLowest(ctx, stack, 0,
                                            parseChunkPolicy(spec))
                    .empty())
        << spec;
  }
}

// ---- engine-level correctness: every policy, every stealing skeleton ----

TEST(ChunkedSteals, EveryPolicyCountsTheFullTree) {
  SynthSpace space{3, 7};
  const auto expect = completeTreeSize(3, 7);
  for (const char* spec : kPolicySpecs) {
    for (Skel skel :
         {Skel::StackStealing, Skel::DepthBounded, Skel::Budget}) {
      Params p;
      p.nLocalities = 2;
      p.workersPerLocality = 2;
      p.dcutoff = 3;
      p.backtrackBudget = 64;
      p.chunk = parseChunkPolicy(spec);
      auto out = runSkeleton<SynthGen, Enumeration<CountAll>>(
          skel, p, space, SynthNode{});
      EXPECT_EQ(out.sum, expect) << spec << " / " << skelName(skel);
      // Accounting invariant: a successful steal transaction moves at
      // least one task.
      EXPECT_GE(out.metrics.tasksStolen(), out.metrics.stealReplies);
    }
  }
}

TEST(ChunkedSteals, EveryPolicyFindsTheSameMaxClique) {
  auto g = apps::gnp(45, 0.6, 3);
  g.sortByDegreeDesc();
  const auto seq =
      runSkeleton<apps::mc::Gen, Optimisation,
                  BoundFunction<&apps::mc::upperBound>, PruneLevel>(
          Skel::Seq, Params{}, g, apps::mc::rootNode(g));
  for (const char* spec : kPolicySpecs) {
    for (Skel skel : {Skel::StackStealing, Skel::DepthBounded}) {
      Params p;
      p.nLocalities = 2;
      p.workersPerLocality = 2;
      p.dcutoff = 2;
      p.chunk = parseChunkPolicy(spec);
      auto out = runSkeleton<apps::mc::Gen, Optimisation,
                             BoundFunction<&apps::mc::upperBound>,
                             PruneLevel>(skel, p, g, apps::mc::rootNode(g));
      EXPECT_EQ(out.objective, seq.objective)
          << spec << " / " << skelName(skel);
    }
  }
}

TEST(ChunkedSteals, OrderedSkeletonSurvivesChunkedHandOut) {
  // The Ordered skeleton's priority pool must keep its global-order
  // guarantee when steal replies carry chunks.
  SynthSpace space{3, 6};
  const auto expect = completeTreeSize(3, 6);
  for (const char* spec : kPolicySpecs) {
    Params p;
    p.nLocalities = 2;
    p.workersPerLocality = 2;
    p.dcutoff = 2;
    p.chunk = parseChunkPolicy(spec);
    auto out = runSkeleton<SynthGen, Enumeration<CountAll>>(
        Skel::Ordered, p, space, SynthNode{});
    EXPECT_EQ(out.sum, expect) << spec;
  }
}

TEST(ChunkedSteals, NoTaskCrossesTheNetworkTwice) {
  // No remote-steal ping-pong (a victim handing over its whole pool, then
  // stealing the same tasks back): with the victim keeping half and
  // received tasks pinned, each task crosses the network at most once.
  apps::uts::Params tree;
  tree.shape = apps::uts::Shape::Geometric;
  tree.b0 = 6;
  tree.maxDepth = 11;  // 378,848 nodes: enough for the ping-pong to show
  tree.seed = 7;
  const auto expect = apps::uts::countTree(tree);
  for (const char* spec : kPolicySpecs) {
    for (Skel skel :
         {Skel::DepthBounded, Skel::Budget, Skel::StackStealing}) {
      for (int localities : {2, 4}) {
        Params p;
        p.nLocalities = localities;
        p.workersPerLocality = 1;
        p.dcutoff = 4;
        p.backtrackBudget = 200;
        p.chunk = parseChunkPolicy(spec);
        auto out = runSkeleton<apps::uts::Gen, Enumeration<CountAll>>(
            skel, p, tree, apps::uts::rootNode(tree));
        const auto where = std::string(spec) + " / " + skelName(skel) +
                           " / " + std::to_string(localities) + " loc";
        EXPECT_EQ(out.sum, expect) << where;
        EXPECT_LE(out.metrics.remoteSteals, out.metrics.tasksSpawned)
            << where;
        EXPECT_LE(out.metrics.movedPerSpawned(), 1.0) << where;
      }
    }
  }
}
