// UTS application tests: reproducibility of the synthetic trees, oracle
// counts, and skeleton agreement across worker counts and localities.

#include <gtest/gtest.h>

#include "apps/uts/uts.hpp"
#include "common/run_skeleton.hpp"

using namespace yewpar;
using namespace yewpar::apps;
using namespace yewpar::testing;

namespace {

using Enum = Enumeration<CountAll>;

Params parParams(int workers) {
  Params p;
  p.workersPerLocality = workers;
  p.dcutoff = 2;
  p.backtrackBudget = 40;
  return p;
}

uts::Params geoTree(std::uint64_t seed) {
  uts::Params p;
  p.shape = uts::Shape::Geometric;
  p.b0 = 5;
  p.maxDepth = 7;
  p.seed = seed;
  return p;
}

uts::Params binTree(std::uint64_t seed) {
  uts::Params p;
  p.shape = uts::Shape::Binomial;
  p.b0 = 8;
  p.q = 0.42;
  p.m = 2;
  p.seed = seed;
  return p;
}

// The benchmark's UTS tree (geometric b0 6, seed 19) at its depth 15 and at
// depth 12. Pinning its counts makes any change to the tree shape
// (childCount, the hash chain) fail here, not only in the benchmark's count
// check.
uts::Params benchTree(std::int32_t depth) {
  uts::Params p;
  p.shape = uts::Shape::Geometric;
  p.b0 = 6;
  p.maxDepth = depth;
  p.seed = 19;
  return p;
}

constexpr std::uint64_t kDepth12Nodes = 1112395;

}  // namespace

TEST(Uts, ChildCountIsPureFunction) {
  auto p = geoTree(1);
  auto root = uts::rootNode(p);
  EXPECT_EQ(uts::childCount(p, root), uts::childCount(p, root));
  uts::Gen g1(p, root), g2(p, root);
  while (g1.hasNext()) {
    ASSERT_TRUE(g2.hasNext());
    auto a = g1.next();
    auto b = g2.next();
    EXPECT_EQ(a.state, b.state);
    EXPECT_EQ(a.d, b.d);
  }
  EXPECT_FALSE(g2.hasNext());
}

TEST(Uts, GeometricDepthCutoff) {
  auto p = geoTree(3);
  uts::Node deep;
  deep.d = p.maxDepth;
  deep.state = 123;
  EXPECT_EQ(uts::childCount(p, deep), 0);
}

TEST(Uts, TreesAreIrregular) {
  // Sanity: sibling subtree sizes differ (the point of UTS).
  auto p = geoTree(5);
  auto root = uts::rootNode(p);
  uts::Gen gen(p, root);
  std::vector<std::uint64_t> sizes;
  while (gen.hasNext()) {
    auto child = gen.next();
    uts::Params sub = p;
    // Count subtree below child by DFS.
    std::vector<uts::Node> stack{child};
    std::uint64_t n = 0;
    while (!stack.empty()) {
      auto nd = stack.back();
      stack.pop_back();
      ++n;
      uts::Gen g(sub, nd);
      while (g.hasNext()) stack.push_back(g.next());
    }
    sizes.push_back(n);
  }
  ASSERT_GE(sizes.size(), 2u);
  EXPECT_NE(*std::min_element(sizes.begin(), sizes.end()),
            *std::max_element(sizes.begin(), sizes.end()));
}

TEST(Uts, BenchmarkTreeIsUnchanged) {
  const auto p = benchTree(15);
  EXPECT_EQ(uts::countTree(p), 19795844u);
  const std::vector<std::uint64_t> byDepth = {
      1,       9,       40,      217,     1043,    4518,
      17863,   64399,   205916,  574158,  1377146, 2754291,
      4389943, 5123010, 3842431, 1440859};
  auto hist = skeletons::Sequential<uts::Gen, Enumeration<CountByDepth>>::
      search(Params{}, p, uts::rootNode(p));
  EXPECT_EQ(hist.sum, byDepth);
}

// A victim must actually answer: a poll gated on the wrong flag would
// still count the tree, just serially.
TEST(Uts, StackStealingAnswersLocalAndRemoteSteals) {
  const auto p = benchTree(12);
  Params local;
  local.workersPerLocality = 2;
  auto out = skeletons::StackStealing<uts::Gen, Enum>::search(
      local, p, uts::rootNode(p));
  EXPECT_EQ(out.sum, kDepth12Nodes);
  EXPECT_GT(out.metrics.localSteals, 0u);

  Params remote;
  remote.nLocalities = 2;
  auto dist = skeletons::StackStealing<uts::Gen, Enum>::search(
      remote, p, uts::rootNode(p));
  EXPECT_EQ(dist.sum, kDepth12Nodes);
  EXPECT_GT(dist.metrics.remoteSteals, 0u);
}

class UtsSkeletons : public ::testing::TestWithParam<Skel> {};

TEST_P(UtsSkeletons, GeometricCountMatchesOracle) {
  for (std::uint64_t seed : {1ULL, 9ULL}) {
    auto p = geoTree(seed);
    auto expect = uts::countTree(p);
    auto out = runSkeleton<uts::Gen, Enum>(GetParam(), parParams(2), p,
                                           uts::rootNode(p));
    EXPECT_EQ(out.sum, expect) << "seed " << seed;
  }
  // The benchmark tree at depth 12, pinned on every skeleton.
  const auto bench = benchTree(12);
  auto out = runSkeleton<uts::Gen, Enum>(GetParam(), parParams(2), bench,
                                         uts::rootNode(bench));
  EXPECT_EQ(uts::countTree(bench), kDepth12Nodes);
  EXPECT_EQ(out.sum, kDepth12Nodes);
}

TEST_P(UtsSkeletons, BinomialCountMatchesOracle) {
  auto p = binTree(4);
  auto expect = uts::countTree(p);
  auto out = runSkeleton<uts::Gen, Enum>(GetParam(), parParams(2), p,
                                         uts::rootNode(p));
  EXPECT_EQ(out.sum, expect);
}

TEST_P(UtsSkeletons, CountIndependentOfWorkers) {
  auto p = geoTree(7);
  auto expect = uts::countTree(p);
  for (int workers : {1, 2, 3}) {
    auto out = runSkeleton<uts::Gen, Enum>(GetParam(), parParams(workers), p,
                                           uts::rootNode(p));
    EXPECT_EQ(out.sum, expect) << "workers " << workers;
  }
}

TEST_P(UtsSkeletons, DepthHistogramSumsToTotal) {
  auto p = geoTree(2);
  auto expect = uts::countTree(p);
  auto out = runSkeleton<uts::Gen, Enumeration<CountByDepth>>(
      GetParam(), parParams(2), p, uts::rootNode(p));
  std::uint64_t total = 0;
  for (auto c : out.sum) total += c;
  EXPECT_EQ(total, expect);
  ASSERT_FALSE(out.sum.empty());
  EXPECT_EQ(out.sum[0], 1u);  // exactly one root
}

INSTANTIATE_TEST_SUITE_P(AllSkeletons, UtsSkeletons,
                         ::testing::ValuesIn(kAllSkels),
                         [](const auto& paramInfo) {
                           return skelName(paramInfo.param);
                         });
