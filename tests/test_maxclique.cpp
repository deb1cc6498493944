// MaxClique application tests: the paper's Fig. 1 worked example, the greedy
// colour bound, DIMACS parsing, brute-force cross-checks, node-for-node
// identity of the Sequential skeleton's tree with the hand-written solver's,
// and agreement of all 4 coordinations (optimisation) plus k-clique decision
// searches.

#include <gtest/gtest.h>

#include "apps/baselines/clique_seq.hpp"
#include "apps/maxclique/graph.hpp"
#include "apps/maxclique/maxclique.hpp"
#include "common/run_skeleton.hpp"

using namespace yewpar;
using namespace yewpar::apps;
using namespace yewpar::testing;

namespace {

Params parParams() {
  Params p;
  p.nLocalities = 1;
  p.workersPerLocality = 2;
  p.dcutoff = 2;
  p.backtrackBudget = 50;
  return p;
}

}  // namespace

TEST(Graph, BasicsAndDegreeSort) {
  Graph g = fig1Graph();
  EXPECT_EQ(g.size(), 8u);
  EXPECT_EQ(g.edgeCount(), 13u);
  EXPECT_TRUE(g.hasEdge(0, 3));   // a-d
  EXPECT_FALSE(g.hasEdge(2, 6));  // c-g
  Graph sorted = g;
  auto perm = sorted.sortByDegreeDesc();
  // Vertex a (old 0, degree 6) must come first.
  EXPECT_EQ(perm[0], 0u);
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_LE(sorted.degree(i), sorted.degree(i - 1));
  }
  // Relabelling preserves adjacency.
  for (std::size_t u = 0; u < 8; ++u) {
    for (std::size_t v = 0; v < 8; ++v) {
      EXPECT_EQ(sorted.hasEdge(u, v), g.hasEdge(perm[u], perm[v]));
    }
  }
}

TEST(Graph, DimacsRoundTrip) {
  const std::string text =
      "c example\n"
      "p edge 4 3\n"
      "e 1 2\n"
      "e 2 3\n"
      "e 3 4\n";
  Graph g = parseDimacsText(text);
  EXPECT_EQ(g.size(), 4u);
  EXPECT_EQ(g.edgeCount(), 3u);
  EXPECT_TRUE(g.hasEdge(0, 1));
  EXPECT_TRUE(g.hasEdge(2, 3));
  EXPECT_FALSE(g.hasEdge(0, 3));
}

TEST(Graph, DimacsRejectsMalformed) {
  EXPECT_THROW(parseDimacsText("e 1 2\n"), std::runtime_error);
  EXPECT_THROW(parseDimacsText("p edge 2 1\ne 1 5\n"), std::runtime_error);
  EXPECT_THROW(parseDimacsText(""), std::runtime_error);
}

TEST(Graph, GeneratorsAreDeterministic) {
  Graph a = gnp(50, 0.5, 7);
  Graph b = gnp(50, 0.5, 7);
  Graph c = gnp(50, 0.5, 8);
  EXPECT_EQ(a.edgeCount(), b.edgeCount());
  EXPECT_NE(a.edgeCount(), c.edgeCount());
  // Density roughly matches p.
  EXPECT_NEAR(a.density(), 0.5, 0.1);
}

TEST(Graph, PlantedCliqueContainsClique) {
  Graph g = plantedClique(40, 0.3, 8, 11);
  // The planted clique guarantees maximum clique >= 8.
  EXPECT_GE(mc::bruteForceMaxClique(g), 8);
}

TEST(MaxClique, GreedyColourIsProperAndMonotone) {
  Graph g = gnp(30, 0.5, 3);
  DynBitset p(30);
  p.setAll();
  std::vector<std::int32_t> vertex, colour;
  mc::greedyColour(g, p, vertex, colour);
  ASSERT_EQ(vertex.size(), 30u);
  // Prefix colour counts are non-decreasing.
  for (std::size_t i = 1; i < colour.size(); ++i) {
    EXPECT_GE(colour[i], colour[i - 1]);
  }
  // Same-colour vertices form an independent set (proper colouring).
  for (std::size_t i = 0; i < vertex.size(); ++i) {
    for (std::size_t j = i + 1; j < vertex.size(); ++j) {
      if (colour[i] == colour[j]) {
        EXPECT_FALSE(g.hasEdge(static_cast<std::size_t>(vertex[i]),
                               static_cast<std::size_t>(vertex[j])));
      }
    }
  }
  // Colour count bounds the clique number.
  EXPECT_GE(colour.back(), mc::bruteForceMaxClique(g));
}

TEST(MaxClique, Fig1WorkedExample) {
  Graph g = fig1Graph();
  EXPECT_EQ(mc::bruteForceMaxClique(g), 4);  // {a,d,f,g}
  auto out = skeletons::Sequential<
      mc::Gen, Optimisation,
      BoundFunction<&mc::upperBound>, PruneLevel>::search(Params{}, g, mc::rootNode(g));
  EXPECT_EQ(out.objective, 4);
  ASSERT_TRUE(out.incumbent.has_value());
  EXPECT_TRUE(mc::isClique(g, out.incumbent->clique));
  EXPECT_EQ(out.incumbent->clique.count(), 4u);
  // The exact max clique of Fig. 1: vertices a, d, f, g.
  EXPECT_TRUE(out.incumbent->clique.test(0));
  EXPECT_TRUE(out.incumbent->clique.test(3));
  EXPECT_TRUE(out.incumbent->clique.test(5));
  EXPECT_TRUE(out.incumbent->clique.test(6));
}

TEST(MaxClique, PruningReducesNodeCount) {
  Graph g = gnp(45, 0.6, 5);
  auto pruned = skeletons::Sequential<
      mc::Gen, Optimisation,
      BoundFunction<&mc::upperBound>, PruneLevel>::search(Params{}, g, mc::rootNode(g));
  auto unpruned = skeletons::Sequential<mc::Gen, Optimisation>::search(
      Params{}, g, mc::rootNode(g));
  EXPECT_EQ(pruned.objective, unpruned.objective);
  EXPECT_LT(pruned.metrics.nodesProcessed, unpruned.metrics.nodesProcessed);
  EXPECT_GT(pruned.metrics.prunes, 0u);
}

TEST(MaxClique, SequentialSearchesTheHandSolversTree) {
  // The child bound is the one maxCliqueSeq prunes with, so the Sequential
  // skeleton expands exactly the hand solver's nodes: every node it does
  // not prune is one the hand solver expands. A looser child bound
  // (colour[k] instead of colour[k] - 1) expands nodes the hand solver
  // prunes and breaks the equality.
  struct Case {
    const char* name;
    Graph g;
  };
  std::vector<Case> cases;
  cases.push_back({"fig1", fig1Graph()});
  cases.push_back({"gnp-60-0.7-1", gnp(60, 0.7, 1)});
  cases.push_back({"gnp-70-0.8-2", gnp(70, 0.8, 2)});
  cases.push_back({"twoDensity-80-3", twoDensity(80, 0.4, 0.85, 3)});
  cases.push_back({"twoDensity-90-4", twoDensity(90, 0.45, 0.8, 4)});
  cases.push_back({"planted-70-5", plantedClique(70, 0.6, 14, 5)});
  cases.push_back({"planted-80-6", plantedClique(80, 0.65, 16, 6)});
  for (auto& c : cases) {
    c.g.sortByDegreeDesc();
    auto hand = baseline::maxCliqueSeq(c.g);
    auto out = skeletons::Sequential<
        mc::Gen, Optimisation, BoundFunction<&mc::upperBound>,
        PruneLevel>::search(Params{}, c.g, mc::rootNode(c.g));
    EXPECT_EQ(out.objective, hand.size) << c.name;
    EXPECT_EQ(out.metrics.nodesProcessed - out.metrics.prunes, hand.nodes)
        << c.name;
    // Each expanded node's generator ends on exactly one pruned child: the
    // first that fails the bound, or the last (colour 1, bound 0).
    EXPECT_EQ(out.metrics.prunes, hand.nodes) << c.name;
  }
}

class MaxCliqueSkeletons : public ::testing::TestWithParam<Skel> {};

TEST_P(MaxCliqueSkeletons, MatchesBruteForceOnRandomGraphs) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    Graph g = gnp(35, 0.55, seed);
    auto expect = mc::bruteForceMaxClique(g);
    auto out = runSkeleton<mc::Gen, Optimisation,
                           BoundFunction<&mc::upperBound>, PruneLevel>(
        GetParam(), parParams(), g, mc::rootNode(g));
    EXPECT_EQ(out.objective, expect) << "seed " << seed;
    ASSERT_TRUE(out.incumbent.has_value());
    EXPECT_TRUE(mc::isClique(g, out.incumbent->clique));
    EXPECT_EQ(static_cast<std::int64_t>(out.incumbent->clique.count()),
              out.objective);
  }
}

TEST_P(MaxCliqueSkeletons, TwoLocalitiesAgree) {
  Graph g = gnp(32, 0.5, 9);
  auto expect = mc::bruteForceMaxClique(g);
  Params p = parParams();
  p.nLocalities = 2;
  auto out = runSkeleton<mc::Gen, Optimisation,
                         BoundFunction<&mc::upperBound>, PruneLevel>(GetParam(), p, g,
                                                         mc::rootNode(g));
  EXPECT_EQ(out.objective, expect);
}

TEST_P(MaxCliqueSkeletons, KCliqueDecision) {
  Graph g = plantedClique(40, 0.4, 9, 21);
  auto maxSize = mc::bruteForceMaxClique(g);
  ASSERT_GE(maxSize, 9);
  Params p = parParams();
  // Satisfiable: k == planted size.
  p.decisionTarget = 9;
  auto sat = runSkeleton<mc::Gen, Decision, BoundFunction<&mc::upperBound>, PruneLevel>(
      GetParam(), p, g, mc::rootNode(g));
  EXPECT_TRUE(sat.decided);
  ASSERT_TRUE(sat.incumbent.has_value());
  EXPECT_TRUE(mc::isClique(g, sat.incumbent->clique));
  EXPECT_GE(sat.incumbent->size, 9);
  // Unsatisfiable: k beyond the maximum.
  p.decisionTarget = maxSize + 1;
  auto unsat = runSkeleton<mc::Gen, Decision, BoundFunction<&mc::upperBound>, PruneLevel>(
      GetParam(), p, g, mc::rootNode(g));
  EXPECT_FALSE(unsat.decided);
}

INSTANTIATE_TEST_SUITE_P(AllSkeletons, MaxCliqueSkeletons,
                         ::testing::ValuesIn(kAllSkels),
                         [](const auto& paramInfo) {
                           return skelName(paramInfo.param);
                         });

TEST(MaxClique, NodeSerializationRoundTrip) {
  Graph g = fig1Graph();
  mc::Node root = mc::rootNode(g);
  mc::Gen gen(g, root);
  ASSERT_TRUE(gen.hasNext());
  mc::Node child = gen.next();
  auto bytes = toBytes(child);
  auto copy = fromBytes<mc::Node>(bytes);
  EXPECT_TRUE(copy.clique == child.clique);
  EXPECT_TRUE(copy.candidates == child.candidates);
  EXPECT_EQ(copy.size, child.size);
  EXPECT_EQ(copy.bound, child.bound);
}
