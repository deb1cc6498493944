// Conflict-MST application tests: parser, conflict propagation, bound
// admissibility, brute-force cross-checks of Optimisation across all six
// skeletons, and Decision early termination (Registry::stop end to end).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "apps/cmst/cmst.hpp"
#include "common/run_skeleton.hpp"
#include "util/dsu.hpp"

using namespace yewpar;
using namespace yewpar::apps;
using namespace yewpar::testing;

namespace {

Params parParams() {
  Params p;
  p.workersPerLocality = 2;
  p.dcutoff = 2;
  p.backtrackBudget = 30;
  return p;
}

cmst::Instance testInstance(std::uint64_t seed) {
  return cmst::randomInstance(7, 14, 6, seed);
}

// Full validity check: n-1 included edges, acyclic + spanning, no conflict
// pair fully included, recorded cost equals the edge-weight sum.
void expectValidTree(const cmst::Instance& inst, const cmst::Node& nd) {
  ASSERT_TRUE(nd.complete);
  ASSERT_EQ(nd.included.count(), static_cast<std::size_t>(inst.n - 1));
  Dsu dsu(static_cast<std::size_t>(inst.n));
  std::int64_t cost = 0;
  nd.included.forEach([&](std::size_t e) {
    EXPECT_TRUE(dsu.unite(inst.u(e), inst.v(e)));
    cost += inst.ew[e];
  });
  EXPECT_EQ(dsu.componentCount(), 1u);
  EXPECT_EQ(cost, nd.cost);
  for (std::size_t i = 0; i < inst.ca.size(); ++i) {
    const bool hasA = nd.included.test(static_cast<std::size_t>(inst.ca[i]));
    const bool hasB = nd.included.test(static_cast<std::size_t>(inst.cb[i]));
    EXPECT_FALSE(hasA && hasB) << "conflict pair " << i << " violated";
  }
}

// A fresh Dsu holding nd's included edges.
Dsu includedDsu(const cmst::Instance& inst, const cmst::Node& nd) {
  Dsu dsu(static_cast<std::size_t>(inst.n));
  for (std::size_t e = 0; e < static_cast<std::size_t>(inst.m()); ++e) {
    if (nd.included.test(e)) dsu.unite(inst.u(e), inst.v(e));
  }
  return dsu;
}

// Plain reference for upperBound: a fresh Dsu per call, the included edges
// united first, then a Kruskal scan from edge 0 testing each edge's
// excluded bit.
std::int64_t referenceBound(const cmst::Instance& inst, const cmst::Node& nd) {
  if (nd.complete) return -nd.cost;
  const auto m = static_cast<std::size_t>(inst.m());
  Dsu dsu = includedDsu(inst, nd);
  std::int64_t total = nd.cost;
  for (std::size_t e = 0; e < m && dsu.componentCount() > 1; ++e) {
    if (nd.excluded.test(e)) continue;
    if (dsu.unite(inst.u(e), inst.v(e))) total += inst.ew[e];
  }
  return dsu.componentCount() > 1 ? cmst::kInfeasible : -total;
}

// Plain reference for Gen's branch: the first edge at or after nextEdge
// that is neither excluded nor closes a cycle with the included edges
// (-1 if none), and the cycle-closing edges skipped on the way.
struct RefBranch {
  std::int32_t candidate = -1;
  std::vector<std::size_t> skipped;
};

RefBranch referenceBranch(const cmst::Instance& inst, const cmst::Node& nd) {
  RefBranch ref;
  if (nd.complete) return ref;
  const auto m = static_cast<std::size_t>(inst.m());
  const Dsu dsu = includedDsu(inst, nd);
  for (auto e = static_cast<std::size_t>(nd.nextEdge); e < m; ++e) {
    if (nd.excluded.test(e)) continue;
    if (dsu.connected(inst.u(e), inst.v(e))) {
      ref.skipped.push_back(e);
      continue;
    }
    ref.candidate = static_cast<std::int32_t>(e);
    break;
  }
  return ref;
}

// Walks the include/exclude tree depth first (include child first, no
// pruning), visiting at most `limit` nodes, and checks upperBound and Gen
// against the references at every node. Returns the nodes visited.
std::size_t checkAgainstReference(const cmst::Instance& inst,
                                  std::size_t limit) {
  std::vector<cmst::Node> stack{cmst::rootNode(inst)};
  std::size_t visited = 0;
  while (!stack.empty() && visited < limit) {
    const cmst::Node nd = std::move(stack.back());
    stack.pop_back();
    ++visited;
    EXPECT_EQ(cmst::upperBound(inst, nd), referenceBound(inst, nd));

    const RefBranch ref = referenceBranch(inst, nd);
    cmst::Gen gen(inst, nd);
    EXPECT_EQ(gen.candidate, ref.candidate);
    if (::testing::Test::HasFailure()) return visited;
    if (!gen.hasNext()) continue;
    const auto c = static_cast<std::size_t>(ref.candidate);
    cmst::Node include = gen.next();
    cmst::Node exclude = gen.next();
    EXPECT_FALSE(gen.hasNext());

    // Expected children: both force out every skipped cycle-closing edge;
    // the include child takes the edge and forces out its conflicts, the
    // exclude child forces out the edge.
    cmst::Node wantIn = nd;
    for (auto e : ref.skipped) wantIn.excluded.set(e);
    cmst::Node wantEx = wantIn;
    wantIn.included.set(c);
    wantIn.cost += inst.ew[c];
    for (auto f : inst.conflicts(ref.candidate)) {
      wantIn.excluded.set(static_cast<std::size_t>(f));
    }
    wantEx.excluded.set(c);
    EXPECT_EQ(include.nextEdge, ref.candidate + 1);
    EXPECT_EQ(exclude.nextEdge, ref.candidate + 1);
    EXPECT_EQ(include.included, wantIn.included);
    EXPECT_EQ(include.excluded, wantIn.excluded);
    EXPECT_EQ(include.cost, wantIn.cost);
    EXPECT_EQ(exclude.included, wantEx.included);
    EXPECT_EQ(exclude.excluded, wantEx.excluded);
    EXPECT_EQ(exclude.cost, wantEx.cost);
    EXPECT_FALSE(exclude.complete);
    EXPECT_EQ(include.complete,
              include.included.count() == static_cast<std::size_t>(inst.n - 1));
    if (::testing::Test::HasFailure()) return visited;
    stack.push_back(std::move(exclude));
    stack.push_back(std::move(include));
  }
  return visited;
}

// First seed in [1, limit] whose instance admits a conflict-free spanning
// tree (deterministic; the generators are seeded).
std::uint64_t feasibleSeed(std::uint64_t limit = 20) {
  for (std::uint64_t seed = 1; seed <= limit; ++seed) {
    if (cmst::bruteForce(testInstance(seed)).has_value()) return seed;
  }
  ADD_FAILURE() << "no feasible seed found";
  return 1;
}

}  // namespace

TEST(Cmst, ParsesTextAndSortsByWeight) {
  // A 4-cycle with a chord; conflicts refer to input edge order and must be
  // remapped when the edges are weight-sorted.
  const std::string text =
      "4 5 2\n"
      "0 1 30\n"
      "1 2 10\n"
      "2 3 20\n"
      "3 0 40\n"
      "0 2 5\n"
      "0 1\n"
      "1 4\n";
  auto inst = cmst::parseText(text);
  EXPECT_EQ(inst.n, 4);
  EXPECT_EQ(inst.m(), 5);
  // Weight-sorted: 5, 10, 20, 30, 40.
  EXPECT_EQ(inst.ew, (std::vector<std::int32_t>{5, 10, 20, 30, 40}));
  // Input pair (0,1) = weights (30,10) -> sorted indices (3,1); input pair
  // (1,4) = weights (10,5) -> sorted indices (1,0).
  ASSERT_EQ(inst.ca.size(), 2u);
  EXPECT_EQ(inst.ca[0], 3);
  EXPECT_EQ(inst.cb[0], 1);
  EXPECT_EQ(inst.ca[1], 1);
  EXPECT_EQ(inst.cb[1], 0);
  EXPECT_EQ(inst.conflicts(1),
            (std::vector<std::int32_t>{3, 0}));
}

TEST(Cmst, ParserRejectsMalformed) {
  EXPECT_THROW(cmst::parseText(""), std::runtime_error);
  EXPECT_THROW(cmst::parseText("3 1 0\n0 0 5\n"), std::runtime_error);   // u==v
  EXPECT_THROW(cmst::parseText("3 2 0\n0 1 5\n"), std::runtime_error);   // short
  EXPECT_THROW(cmst::parseText("3 2 1\n0 1 5\n1 2 6\n0 0\n"),
               std::runtime_error);                                      // a==b
  EXPECT_THROW(cmst::parseText("3 2 1\n0 1 5\n1 2 6\n0 7\n"),
               std::runtime_error);                                      // range
  EXPECT_THROW(cmst::parseText("3 1 0\n0 1 -2\n"), std::runtime_error);  // w<0
}

TEST(Cmst, InstanceSerializationRoundTrips) {
  auto inst = testInstance(3);
  OArchive oa;
  inst.save(oa);
  IArchive ia(std::move(oa).takeBytes());
  cmst::Instance inst2;
  inst2.load(ia);
  EXPECT_EQ(inst2.n, inst.n);
  EXPECT_EQ(inst2.ew, inst.ew);
  EXPECT_EQ(inst2.conflictAdj, inst.conflictAdj);  // rebuilt on load
}

TEST(Cmst, KnownInstanceConflictForcesDetour) {
  // Triangle 0-1-2 plus pendant 3. The unconstrained MST is {0-1, 1-2, 1-3}
  // (cost 1+2+1=4), but 0-1 conflicts with 1-2, so the best conflict-free
  // tree swaps in 0-2 (cost 1+3+1=5).
  const std::string text =
      "4 4 1\n"
      "0 1 1\n"
      "1 2 2\n"
      "0 2 3\n"
      "1 3 1\n"
      "0 1\n";
  auto inst = cmst::parseText(text);
  auto expect = cmst::bruteForce(inst);
  ASSERT_TRUE(expect.has_value());
  EXPECT_EQ(*expect, 5);
  auto out = skeletons::Sequential<
      cmst::Gen, Optimisation,
      BoundFunction<&cmst::upperBound>>::search(Params{}, inst,
                                                cmst::rootNode(inst));
  EXPECT_EQ(-out.objective, 5);
  ASSERT_TRUE(out.incumbent.has_value());
  expectValidTree(inst, *out.incumbent);
}

TEST(Cmst, GeneratorPropagatesConflicts) {
  const std::string text =
      "4 4 1\n"
      "0 1 1\n"
      "1 2 2\n"
      "0 2 3\n"
      "1 3 1\n"
      "0 1\n";
  auto inst = cmst::parseText(text);
  cmst::Gen gen(inst, cmst::rootNode(inst));
  ASSERT_TRUE(gen.hasNext());
  auto include = gen.next();  // includes edge 0 (0-1, weight 1)
  ASSERT_EQ(include.included.count(), 1u);
  const auto e = static_cast<std::int32_t>(include.included.findFirst());
  // Every edge conflicting with e is forced out, e itself is not.
  EXPECT_FALSE(include.excluded.test(static_cast<std::size_t>(e)));
  for (auto f : inst.conflicts(e)) {
    EXPECT_TRUE(include.excluded.test(static_cast<std::size_t>(f)));
  }
  ASSERT_TRUE(gen.hasNext());
  auto exclude = gen.next();  // excludes the same edge, keeps conflicts open
  EXPECT_TRUE(exclude.included.empty());
  EXPECT_TRUE(exclude.excluded.test(static_cast<std::size_t>(e)));
  for (auto f : inst.conflicts(e)) {
    EXPECT_FALSE(exclude.excluded.test(static_cast<std::size_t>(f)));
  }
  EXPECT_FALSE(gen.hasNext());  // binary branching
}

TEST(Cmst, SingleVertexRootIsComplete) {
  cmst::Instance inst;
  inst.n = 1;
  inst.finalize();
  auto root = cmst::rootNode(inst);
  EXPECT_TRUE(root.complete);
  EXPECT_EQ(root.getObj(), 0);
  cmst::Gen gen(inst, root);
  EXPECT_FALSE(gen.hasNext());
  EXPECT_EQ(cmst::bruteForce(inst), std::optional<std::int64_t>{0});
}

TEST(Cmst, BoundIsAdmissibleAndDetectsInfeasibility) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto inst = testInstance(seed);
    auto root = cmst::rootNode(inst);
    auto expect = cmst::bruteForce(inst);
    if (expect) {
      // Bound dominates the optimum: -(lower bound) >= -(optimal cost).
      EXPECT_GE(cmst::upperBound(inst, root), -*expect) << "seed " << seed;
      // And is itself a real relaxation value, not the sentinel.
      EXPECT_GT(cmst::upperBound(inst, root), cmst::kPartialObj);
    }
  }
  // A node with everything except a disconnecting cut excluded is detected.
  auto inst = cmst::parseText("3 2 0\n0 1 1\n1 2 1\n");
  auto nd = cmst::rootNode(inst);
  nd.excluded.set(0);
  EXPECT_EQ(cmst::upperBound(inst, nd), cmst::kInfeasible);
}

TEST(Cmst, BoundAndGeneratorMatchReferenceKruskal) {
  // Every node of the full tree of the small instances.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("testInstance seed " + std::to_string(seed));
    EXPECT_GT(checkAgainstReference(testInstance(seed), SIZE_MAX), 1u);
  }
  // The first 20,000 depth-first nodes of larger instances: m = 63, 64, 65
  // cover a partial single word, an exactly full one and a one-bit second
  // word; m = 128 two full words; the last is a benchmark instance.
  for (const std::int32_t m : {63, 64, 65, 128}) {
    SCOPED_TRACE("m " + std::to_string(m));
    const auto inst = cmst::randomInstance(20, m, 3 * m, 7);
    ASSERT_EQ(inst.m(), m);
    EXPECT_EQ(checkAgainstReference(inst, 20000), 20000u);
  }
  SCOPED_TRACE("randomInstance(24, 90, 450, 101)");
  EXPECT_EQ(
      checkAgainstReference(cmst::randomInstance(24, 90, 450, 101), 20000),
      20000u);
}

TEST(Cmst, SequentialTreeIsUnchangedAtBenchmarkSize) {
  // The Sequential skeleton's node counts on two of the benchmark's
  // instances, as recorded in perfbench/counts.txt (the benchmark renames
  // vertices, which leaves the tree unchanged).
  const std::pair<std::uint64_t, std::uint64_t> pins[] = {{101, 50947},
                                                           {111, 23285}};
  for (const auto& [seed, nodes] : pins) {
    const auto inst = cmst::randomInstance(24, 90, 450, seed);
    const auto out = skeletons::Sequential<
        cmst::Gen, Optimisation,
        BoundFunction<&cmst::upperBound>>::search(Params{}, inst,
                                                  cmst::rootNode(inst));
    EXPECT_EQ(out.metrics.nodesProcessed, nodes) << "seed " << seed;
  }
}

class CmstSkeletons : public ::testing::TestWithParam<Skel> {};

TEST_P(CmstSkeletons, MatchesBruteForce) {
  // >= 20 seeded instances per skeleton, feasible and infeasible alike.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    auto inst = testInstance(seed);
    auto expect = cmst::bruteForce(inst);
    auto out = runSkeleton<cmst::Gen, Optimisation,
                           BoundFunction<&cmst::upperBound>>(
        GetParam(), parParams(), inst, cmst::rootNode(inst));
    if (expect) {
      EXPECT_EQ(-out.objective, *expect) << "seed " << seed;
      ASSERT_TRUE(out.incumbent.has_value());
      expectValidTree(inst, *out.incumbent);
    } else {
      // Infeasible: no complete tree can ever strengthen past the partial
      // sentinel.
      EXPECT_EQ(out.objective, cmst::kPartialObj) << "seed " << seed;
    }
  }
}

TEST_P(CmstSkeletons, TwoLocalitiesAgree) {
  const auto seed = feasibleSeed();
  auto inst = testInstance(seed);
  auto expect = cmst::bruteForce(inst);
  Params p = parParams();
  p.nLocalities = 2;
  auto out =
      runSkeleton<cmst::Gen, Optimisation, BoundFunction<&cmst::upperBound>>(
          GetParam(), p, inst, cmst::rootNode(inst));
  ASSERT_TRUE(expect.has_value());
  EXPECT_EQ(-out.objective, *expect);
}

TEST_P(CmstSkeletons, DecisionStopsEarlyOnAchievableTarget) {
  const auto seed = feasibleSeed();
  auto inst = testInstance(seed);
  const auto optimal = *cmst::bruteForce(inst);

  // Reference: an unachievable target with no bound function visits the
  // whole include/exclude tree exactly once (cost <= 0 is impossible for
  // positive weights).
  Params full = parParams();
  full.decisionTarget = -0;
  auto fullOut = runSkeleton<cmst::Gen, Decision>(GetParam(), full, inst,
                                                  cmst::rootNode(inst));
  EXPECT_FALSE(fullOut.decided);
  const auto treeNodes = fullOut.metrics.nodesProcessed;
  ASSERT_GT(treeNodes, 50u);  // nontrivial tree, so "early" is meaningful

  // Loose achievable target: any spanning tree qualifies, so the first
  // complete tree raises Registry::stop and the rest of the tree is drained
  // unsearched.
  Params loose = parParams();
  loose.decisionTarget = -inst.totalWeight();
  auto out = runSkeleton<cmst::Gen, Decision>(GetParam(), loose, inst,
                                              cmst::rootNode(inst));
  EXPECT_TRUE(out.decided);
  ASSERT_TRUE(out.incumbent.has_value());
  expectValidTree(inst, *out.incumbent);
  EXPECT_LT(out.metrics.nodesProcessed, treeNodes);
  if (GetParam() == Skel::Seq) {
    // Deterministic: include-first branching walks straight down to the
    // first spanning tree, so the short-circuit fires within a sliver of
    // the full tree.
    EXPECT_LT(out.metrics.nodesProcessed * 4, treeNodes);
  }

  // Exact achievable / just-unachievable targets, with the bound enabled.
  Params exact = parParams();
  exact.decisionTarget = -optimal;
  auto exactOut =
      runSkeleton<cmst::Gen, Decision, BoundFunction<&cmst::upperBound>>(
          GetParam(), exact, inst, cmst::rootNode(inst));
  EXPECT_TRUE(exactOut.decided);

  Params unach = parParams();
  unach.decisionTarget = -(optimal - 1);
  auto unachOut =
      runSkeleton<cmst::Gen, Decision, BoundFunction<&cmst::upperBound>>(
          GetParam(), unach, inst, cmst::rootNode(inst));
  EXPECT_FALSE(unachOut.decided);
}

INSTANTIATE_TEST_SUITE_P(AllSkeletons, CmstSkeletons,
                         ::testing::ValuesIn(kAllSkels),
                         [](const auto& paramInfo) {
                           return skelName(paramInfo.param);
                         });
