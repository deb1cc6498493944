// uts-dist: UTS geometric enumeration (b0 6, depth 15: about 19.8M nodes)
// on 2 simulated localities x 1 worker with --chunk-policy all (Fig 4's
// setting), as three searches: Depth-Bounded d=6, Budget b=1000 and
// Stack-Stealing.
//
// Chosen because UTS nodes are nearly free to generate, so remote steals,
// runtime/transport, util/archive and termination make up the run time:
// this is the workload for the remote-steal ping-pong fix. Stack-Stealing is
// the control (it moves a few dozen tasks). Bypasses greedyColour, pruning
// and the incumbent entirely (pure enumeration).
//
// The tree is the one the paper-table benches use at this size (tree seed
// 19: exactly 19,795,844 nodes) and stays fixed; the workload seed shuffles
// the order of the three searches. (Other tree seeds give trees whose size
// and steal behaviour differ from seed to seed.) The workload has no input
// to build beyond the tree's parameters, so set-up runs uts::countTree to
// know the total before the first timed search. Each round runs countTree
// again as the sequential reference time; every search's total and the
// round's countTree are checked against the set-up total.

#include <algorithm>
#include <array>
#include <deque>

#include "apps/uts/uts.hpp"
#include "bench.hpp"
#include "layers.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace uts = apps::uts;

class UtsDist : public Workload {
 public:
  int setupReps() const override { return 3; }

  void setup(std::uint64_t seed) override {
    tree_ = uts::Params{};
    tree_.shape = uts::Shape::Geometric;
    tree_.b0 = 6;
    tree_.maxDepth = 15;
    tree_.seed = 19;
    order_ = {"Depth-Bounded", "Budget", "Stack-Stealing"};
    Rng rng(mix64(seed, 0x075D));
    std::shuffle(order_.begin(), order_.end(), rng);
    total_ = static_cast<std::int64_t>(uts::countTree(tree_));
  }

  Round runRound(bool traced) override {
    Round round;
    auto ref = timeSearch(instance(), "countTree", [&](SearchRecord& r) {
      r.result = static_cast<std::int64_t>(uts::countTree(tree_));
      r.nodes = static_cast<std::uint64_t>(r.result);
    });
    ref.reference = true;
    ref.exactCount = true;
    ref.expected = total_;
    const std::uint64_t refNodes = ref.nodes;
    const double refSeconds = ref.seconds;
    round.searches.push_back(std::move(ref));
    for (const char* skel : order_) {
      SearchRecord rec = traced ? search<TimedGen<uts::Gen>>(skel)
                                : search<uts::Gen>(skel);
      rec.expected = total_;
      rec.exactCount = true;
      rec.threads = kLocalities;
      rec.refNodes = refNodes;
      rec.refSeconds = refSeconds;
      round.searches.push_back(std::move(rec));
    }
    return round;
  }

  LayerTimings probeLayers(const std::vector<Round>& traced) override {
    // Inputs: the first 32768 nodes of the tree in breadth-first order -
    // the frontier Depth-Bounded and Budget hand out in steal replies.
    std::vector<uts::Node> nodes;
    std::deque<uts::Node> frontier{uts::rootNode(tree_)};
    while (!frontier.empty() && nodes.size() < 32768) {
      uts::Gen gen(tree_, frontier.front());
      frontier.pop_front();
      while (gen.hasNext()) {
        nodes.push_back(gen.next());
        frontier.push_back(nodes.back());
      }
    }
    LayerTimings lt;
    probeRuntimeLayers(lt, nodes, tasksPerReply(traced), 1);
    lt.greedyColourNs = referenceGreedyColourNs();
    lt.emptySearchMs =
        emptySearchMs(EmptyLayout::DepthBounded, kLocalities, 1);
    return lt;
  }

 private:
  static constexpr int kLocalities = 2;

  template <typename G>
  SearchRecord search(const char* skel) {
    Params p;
    p.nLocalities = kLocalities;
    p.workersPerLocality = 1;
    p.dcutoff = 6;
    p.backtrackBudget = 1000;
    p.chunk = parseChunkPolicy("all");
    using Enum = Enumeration<CountAll>;
    const auto root = uts::rootNode(tree_);
    const std::string s = skel;
    return timeSearch(instance(), s, [&](SearchRecord& r) {
      auto out = s == "Depth-Bounded"
                     ? skeletons::DepthBounded<G, Enum>::search(p, tree_, root)
                 : s == "Budget"
                     ? skeletons::Budget<G, Enum>::search(p, tree_, root)
                     : skeletons::StackStealing<G, Enum>::search(p, tree_,
                                                                 root);
      fromOutcome(r, out, static_cast<std::int64_t>(out.sum));
    });
  }

  std::string instance() const {
    return "uts-b6-d15-s" + std::to_string(tree_.seed);
  }

  uts::Params tree_;
  std::int64_t total_ = 0;
  std::array<const char*, 3> order_{};
};

}  // namespace

std::unique_ptr<Workload> makeUtsDist() { return std::make_unique<UtsDist>(); }

}  // namespace perfbench
