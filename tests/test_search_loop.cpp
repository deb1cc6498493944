// The depth-first loop every skeleton runs (core/skeletons/subtree_search.hpp)
// keeps its counters in locals and manages generator lifetimes by hand.
// These tests pin what that must not change - the exact node, prune and
// backtrack counts on fixed instances - and check that every generator the
// loop constructs is destroyed exactly once, through stack growth, budget
// splits, steals and a decision stop with a partly filled stack.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>

#include "apps/cmst/cmst.hpp"
#include "apps/maxclique/graph.hpp"
#include "apps/maxclique/maxclique.hpp"
#include "apps/uts/uts.hpp"
#include "common/run_skeleton.hpp"

using namespace yewpar;
using namespace yewpar::apps;
using namespace yewpar::testing;

namespace {

struct Counts {
  std::uint64_t nodes, prunes, backtracks;
  bool operator==(const Counts&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Counts& c) {
  return os << "{" << c.nodes << ", " << c.prunes << ", " << c.backtracks
            << "}";
}

template <typename Out>
Counts countsOf(const Out& out) {
  return {out.metrics.nodesProcessed, out.metrics.prunes,
          out.metrics.backtracks};
}

// One worker on one locality, so every coordination runs deterministically.
Params oneByOne() {
  Params p;
  p.dcutoff = 2;
  p.backtrackBudget = 50;
  return p;
}

constexpr Skel kPinned[] = {Skel::Seq, Skel::DepthBounded, Skel::Budget,
                            Skel::StackStealing};

// The Table 1 stand-in "sanr-like-3" (bench/common.hpp), degree-sorted.
Graph sanrLike3() {
  Graph g = gnp(145, 0.80, 35);
  g.sortByDegreeDesc();
  return g;
}

}  // namespace

// ---- counter identity ---------------------------------------------------
//
// The pins are the counts the skeletons reported before the loop kept its
// counters in locals; a lost or double count moves one of them.

TEST(CounterIdentity, UtsBenchmarkTree) {
  uts::Params t;
  t.shape = uts::Shape::Geometric;
  t.b0 = 6;
  t.maxDepth = 12;
  t.seed = 19;
  const Counts pins[] = {{1112395, 0, 1112395},
                         {1112395, 0, 1112385},
                         {1112395, 0, 1112395},
                         {1112395, 0, 1112395}};
  for (std::size_t i = 0; i < std::size(kPinned); ++i) {
    const auto out = runSkeleton<uts::Gen, Enumeration<CountAll>>(
        kPinned[i], oneByOne(), t, uts::rootNode(t));
    EXPECT_EQ(out.sum, 1112395u) << skelName(kPinned[i]);
    EXPECT_EQ(countsOf(out), pins[i]) << skelName(kPinned[i]);
  }
}

TEST(CounterIdentity, MaxCliqueTable1Graph) {
  const Graph g = sanrLike3();
  const Counts pins[] = {{190850, 95425, 95425},
                         {197710, 102192, 95374},
                         {229849, 133582, 96267},
                         {190850, 95425, 95425}};
  for (std::size_t i = 0; i < std::size(kPinned); ++i) {
    const auto out =
        runSkeleton<mc::Gen, Optimisation, BoundFunction<&mc::upperBound>,
                    PruneLevel>(kPinned[i], oneByOne(), g, mc::rootNode(g));
    EXPECT_EQ(countsOf(out), pins[i]) << skelName(kPinned[i]);
  }
}

TEST(CounterIdentity, CmstInstance) {
  const auto inst = cmst::randomInstance(24, 90, 450, 111);
  const Counts pins[] = {{23285, 11643, 11642},
                         {23285, 11643, 11639},
                         {24105, 12053, 12052},
                         {23285, 11643, 11642}};
  for (std::size_t i = 0; i < std::size(kPinned); ++i) {
    const auto out =
        runSkeleton<cmst::Gen, Optimisation,
                    BoundFunction<&cmst::upperBound>>(
            kPinned[i], oneByOne(), inst, cmst::rootNode(inst));
    EXPECT_EQ(countsOf(out), pins[i]) << skelName(kPinned[i]);
  }
}

TEST(CounterIdentity, NodeCapOnSequentialAndDepthBounded) {
  uts::Params t;
  t.shape = uts::Shape::Geometric;
  t.b0 = 6;
  t.maxDepth = 12;
  t.seed = 19;
  Params p = oneByOne();
  p.maxNodes = 100000;
  const Counts seqPin{100001, 0, 99990};
  const Counts dbPin{100001, 0, 99982};
  const auto seq = runSkeleton<uts::Gen, Enumeration<CountAll>>(
      Skel::Seq, p, t, uts::rootNode(t));
  EXPECT_FALSE(seq.complete);
  EXPECT_EQ(countsOf(seq), seqPin);
  const auto db = runSkeleton<uts::Gen, Enumeration<CountAll>>(
      Skel::DepthBounded, p, t, uts::rootNode(t));
  EXPECT_FALSE(db.complete);
  EXPECT_EQ(countsOf(db), dbPin);
}

// ---- generator lifetimes ------------------------------------------------

namespace {

std::atomic<long> liveGens{0};

// A comb: a spine of `depth` nodes, each with one spine child (first) and
// `leaves` leaf children; the objective is the depth. Every generator owns
// heap memory and is counted, so a leaked or doubly destroyed generator
// shows in liveGens (and under ASan).
struct CombSpace {
  std::int32_t depth = 300;
  std::int32_t leaves = 3;
  std::int32_t throwAt = -1;  // a generator at this depth throws

  void save(OArchive& a) const { a << depth << leaves << throwAt; }
  void load(IArchive& a) { a >> depth >> leaves >> throwAt; }
};

struct CombNode {
  std::int32_t d = 0;
  std::uint8_t spine = 1;

  std::int64_t getObj() const { return d; }
  void save(OArchive& a) const { a << d << spine; }
  void load(IArchive& a) { a >> d >> spine; }
};

struct CombGen {
  using Space = CombSpace;
  using Node = CombNode;

  std::unique_ptr<std::int32_t[]> kids;  // child kinds, 1 = spine
  std::int32_t n = 0;
  std::int32_t i = 0;
  std::int32_t d = 0;

  CombGen(const Space& s, const Node& parent) : d(parent.d) {
    if (parent.d == s.throwAt) throw std::runtime_error("comb: throwAt");
    if (parent.spine && parent.d < s.depth) n = 1 + s.leaves;
    kids = std::make_unique<std::int32_t[]>(static_cast<std::size_t>(n) + 1);
    if (n > 0) kids[0] = 1;
    ++liveGens;
  }
  CombGen(CombGen&& o) noexcept
      : kids(std::move(o.kids)), n(o.n), i(o.i), d(o.d) {
    ++liveGens;
  }
  CombGen& operator=(CombGen&&) = delete;
  ~CombGen() { --liveGens; }

  bool hasNext() const { return i < n; }
  Node next() {
    Node c;
    c.d = d + 1;
    c.spine = static_cast<std::uint8_t>(kids[static_cast<std::size_t>(i)]);
    ++i;
    return c;
  }
};

std::uint64_t combSize(const CombSpace& s) {
  return 1 + static_cast<std::uint64_t>(s.depth) *
                 static_cast<std::uint64_t>(1 + s.leaves);
}

}  // namespace

TEST(GeneratorLifetimes, DeepCombThroughSequentialBudgetAndStealing) {
  CombSpace s;
  s.depth = 2000;  // the stack grows from 64 slots to 2048
  for (Skel k : {Skel::Seq, Skel::Budget, Skel::StackStealing,
                 Skel::RandomSpawn}) {
    Params p;
    p.workersPerLocality = k == Skel::Seq ? 1 : 2;
    p.backtrackBudget = 1;  // split at every backtrack, the first one deep
    // Stack-Stealing steals only when the thief asks in time: retry until
    // a run has answered one (nearly every run does).
    for (int attempt = 0; attempt < 20; ++attempt) {
      const auto out = runSkeleton<CombGen, Enumeration<CountAll>>(
          k, p, s, CombNode{});
      EXPECT_EQ(out.sum, combSize(s)) << skelName(k);
      EXPECT_EQ(liveGens.load(), 0) << skelName(k);
      if (k == Skel::Budget) {
        EXPECT_GT(out.metrics.tasksSpawned, 0u);
      }
      if (k != Skel::StackStealing || out.metrics.localSteals > 0) break;
      EXPECT_LT(attempt, 19) << "no run answered a steal";
    }
  }
}

TEST(GeneratorLifetimes, DecisionStopLeavesAPartlyFilledStack) {
  const CombSpace s;
  Params p;
  p.decisionTarget = 200;  // reached 200 levels down the spine
  for (Skel k : kAllSkels) {
    const auto out =
        runSkeleton<CombGen, Decision>(k, p, s, CombNode{});
    EXPECT_TRUE(out.decided) << skelName(k);
    EXPECT_EQ(liveGens.load(), 0) << skelName(k);
  }
}

TEST(GeneratorLifetimes, NodeCapStopsDeep) {
  const CombSpace s;
  Params p;
  p.maxNodes = 250;  // hits about 250 levels down the spine
  for (Skel k : {Skel::Seq, Skel::DepthBounded}) {
    const auto out = runSkeleton<CombGen, Enumeration<CountAll>>(
        k, p, s, CombNode{});
    EXPECT_FALSE(out.complete) << skelName(k);
    EXPECT_EQ(liveGens.load(), 0) << skelName(k);
  }
}

TEST(GeneratorLifetimes, ThrowingGeneratorUnwindsTheStack) {
  CombSpace s;
  s.throwAt = 150;
  EXPECT_THROW((skeletons::Sequential<CombGen, Enumeration<CountAll>>::search(
                   Params{}, s, CombNode{})),
               std::runtime_error);
  EXPECT_EQ(liveGens.load(), 0);
}
