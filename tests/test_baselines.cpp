// Baseline solver tests: the hand-coded sequential and OpenMP MaxClique
// implementations used in the Table 1 comparison must agree with brute force
// and with the YewPar skeletons, and the OpenMP one must really fork a team.

#include <gtest/gtest.h>

#include "apps/baselines/clique_seq.hpp"
#include "apps/maxclique/maxclique.hpp"
#include "core/yewpar.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

using namespace yewpar;
using namespace yewpar::apps;

TEST(BaselineSeq, MatchesBruteForce) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    Graph g = gnp(38, 0.55, seed);
    auto res = baseline::maxCliqueSeq(g);
    EXPECT_EQ(res.size, mc::bruteForceMaxClique(g)) << "seed " << seed;
    // Witness is a real clique of the reported size.
    DynBitset clique(g.size());
    for (auto v : res.members) clique.set(v);
    EXPECT_TRUE(mc::isClique(g, clique));
    EXPECT_EQ(static_cast<std::int32_t>(res.members.size()), res.size);
    EXPECT_GT(res.nodes, 0u);
  }
}

TEST(BaselineSeq, Fig1) {
  Graph g = fig1Graph();
  auto res = baseline::maxCliqueSeq(g);
  EXPECT_EQ(res.size, 4);
}

TEST(BaselineOmp, BuiltWithOpenMP) {
  // Without OpenMP, maxCliqueOmp is the sequential solver and Table 1(b)
  // compares Depth-Bounded with a sequential run. CMakeLists.txt decides
  // when OpenMP must be present (configuring a gcc build fails without
  // it); here we only check that the runtime really forks a team.
#ifdef _OPENMP
  int teamSize = 0;
#pragma omp parallel num_threads(2)
  {
#pragma omp single
    teamSize = omp_get_num_threads();
  }
  EXPECT_EQ(teamSize, 2);
#else
  GTEST_SKIP() << "built without OpenMP (clang without libomp, or TSan)";
#endif
}

TEST(BaselineOmp, MatchesSequential) {
  for (std::uint64_t seed : {5ULL, 6ULL, 7ULL}) {
    Graph g = gnp(40, 0.6, seed);
    auto seq = baseline::maxCliqueSeq(g);
    auto par = baseline::maxCliqueOmp(g, 2);
    EXPECT_EQ(par.size, seq.size) << "seed " << seed;
    DynBitset clique(g.size());
    for (auto v : par.members) clique.set(v);
    EXPECT_TRUE(mc::isClique(g, clique));
  }
}

TEST(BaselineVsYewPar, SameOptimum) {
  Graph g = plantedClique(42, 0.5, 10, 13);
  auto base = baseline::maxCliqueSeq(g);
  auto out = skeletons::Sequential<
      mc::Gen, Optimisation,
      BoundFunction<&mc::upperBound>, PruneLevel>::search(Params{}, g, mc::rootNode(g));
  EXPECT_EQ(static_cast<std::int64_t>(base.size), out.objective);
}
