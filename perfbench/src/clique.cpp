// clique-seq and clique-par: Table 1 of the paper on the 18 seeded
// stand-in graphs.
//
// clique-seq: each graph runs through the YewPar Sequential skeleton and
//   then the hand-written baseline::maxCliqueSeq, on one thread. Chosen
//   because it is Table 1(a): nearly all time is node generation (mc::Gen,
//   greedyColour) and core/search_ops; runtime/* is bypassed entirely. The
//   bound fix and generator-copy work show here.
// clique-par: each graph runs through Depth-Bounded (dcutoff 1, 1 locality
//   x 3 workers: Table 1(b)'s configuration) and then maxCliqueSeq as the
//   reference. Loads the DepthPool (local push/pop/steal), in-locality
//   incumbent sharing and the fixed cost of 18 search start-ups; sends no
//   transport messages, so runtime/transport and remote steals are bypassed.
//
// The graphs are the paper's instances and stay fixed; the workload seed
// shuffles the order in which they run. (Relabelling a graph's vertices
// would also be seedable, but it reorders equal-degree vertices in the
// solvers' static order and moves the whole set's node count by +-15% from
// seed to seed - more than any change this benchmark should judge.)

#include <algorithm>

#include "apps/baselines/clique_seq.hpp"
#include "apps/maxclique/graph.hpp"
#include "apps/maxclique/maxclique.hpp"
#include "bench.hpp"
#include "layers.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using apps::Graph;
namespace mc = apps::mc;

// The Table 1 stand-in set: the same families, sizes and generator seeds
// as the repo's table1_overheads bench.
struct GraphSpec {
  const char* name;
  char family;  // g = gnp, t = twoDensity, p = plantedClique
  std::size_t n;
  double p, q;  // q: twoDensity's high density
  std::size_t k;  // plantedClique's clique size
  std::uint64_t seed;
};

constexpr GraphSpec kTable1[] = {
    {"MANN-like-1", 'g', 130, 0.88, 0, 0, 5},
    {"MANN-like-2", 'g', 125, 0.88, 0, 0, 105},
    {"brock-like-1", 'g', 180, 0.72, 0, 0, 1},
    {"brock-like-2", 'g', 200, 0.70, 0, 0, 2},
    {"brock-like-3", 'g', 190, 0.72, 0, 0, 3},
    {"brock-like-4", 'g', 185, 0.71, 0, 0, 44},
    {"p_hat-like-1", 't', 240, 0.45, 0.85, 0, 6},
    {"p_hat-like-2", 't', 260, 0.40, 0.82, 0, 7},
    {"p_hat-like-3", 't', 250, 0.42, 0.84, 0, 16},
    {"p_hat-like-4", 't', 230, 0.45, 0.85, 0, 17},
    {"san-like-1", 'p', 190, 0.70, 0, 24, 8},
    {"san-like-2", 'p', 200, 0.68, 0, 26, 9},
    {"san-like-3", 'p', 180, 0.70, 0, 22, 25},
    {"san-like-4", 'p', 195, 0.69, 0, 25, 26},
    {"sanr-like-1", 'g', 150, 0.80, 0, 0, 4},
    {"sanr-like-2", 'g', 155, 0.78, 0, 0, 34},
    {"sanr-like-3", 'g', 145, 0.80, 0, 0, 35},
    {"sanr-like-4", 'g', 160, 0.78, 0, 0, 36},
};

Graph generate(const GraphSpec& s) {
  switch (s.family) {
    case 't': return apps::twoDensity(s.n, s.p, s.q, s.seed);
    case 'p': return apps::plantedClique(s.n, s.p, s.k, s.seed);
    default: return apps::gnp(s.n, s.p, s.seed);
  }
}

Graph degreeSorted(const GraphSpec& s) {
  Graph g = generate(s);
  g.sortByDegreeDesc();
  return g;
}

struct Instance {
  std::string name;
  Graph graph;
};

std::vector<Instance> makeInstances(std::uint64_t seed) {
  std::vector<Instance> out;
  for (const auto& spec : kTable1) out.push_back({spec.name, degreeSorted(spec)});
  Rng rng(mix64(seed, 0xC11C0E));
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

template <typename G, template <typename, typename, typename...> class Skel>
using CliqueSkel =
    Skel<G, Optimisation, BoundFunction<&mc::upperBound>, PruneLevel>;

SearchRecord handSearch(const Instance& inst) {
  auto rec = timeSearch(inst.name, "maxCliqueSeq", [&](SearchRecord& r) {
    const auto res = apps::baseline::maxCliqueSeq(inst.graph);
    r.result = res.size;
    r.nodes = res.nodes;
  });
  rec.reference = true;
  rec.exactCount = true;
  rec.expected = rec.result;
  return rec;
}

class CliqueWorkload : public Workload {
 public:
  explicit CliqueWorkload(bool parallel) : parallel_(parallel) {}

  void setup(std::uint64_t seed) override { insts_ = makeInstances(seed); }
  int setupReps() const override { return 101; }

  Round runRound(bool traced) override {
    Round round;
    for (const auto& inst : insts_) {
      SearchRecord yp = traced ? search<TimedGen<mc::Gen>>(inst)
                               : search<mc::Gen>(inst);
      SearchRecord hand = handSearch(inst);
      yp.expected = hand.result;
      yp.refNodes = hand.nodes;
      yp.refSeconds = hand.seconds;
      round.searches.push_back(std::move(yp));
      round.searches.push_back(std::move(hand));
    }
    return round;
  }

  LayerTimings probeLayers(const std::vector<Round>& traced) override {
    // Inputs: the root's children and grandchildren of every graph - the
    // nodes the searches start from and the candidate sets greedyColour
    // sees at the top of the tree.
    std::vector<mc::Node> nodes;
    std::vector<const Graph*> graphOf;
    for (const auto& inst : insts_) {
      mc::Gen root(inst.graph, mc::rootNode(inst.graph));
      int kids = 0;
      while (root.hasNext() && kids < 12) {
        mc::Node child = root.next();
        mc::Gen gen(inst.graph, child);
        for (int g = 0; g < 4 && gen.hasNext(); ++g) {
          nodes.push_back(gen.next());
          graphOf.push_back(&inst.graph);
        }
        nodes.push_back(std::move(child));
        graphOf.push_back(&inst.graph);
        ++kids;
      }
    }
    LayerTimings lt;
    lt.greedyColourNs = probeGreedyColourNs(graphOf, nodes);
    probeRuntimeLayers(lt, nodes, tasksPerReply(traced),
                       parallel_ ? kWorkers : 1);
    lt.emptySearchMs = parallel_
                           ? emptySearchMs(EmptyLayout::DepthBounded, 1,
                                           kWorkers)
                           : emptySearchMs(EmptyLayout::Sequential, 1, 1);
    return lt;
  }

  double ompCpuWallRatio() override {
    // The Table 1(b) OpenMP baseline on the first graphs, until 0.2 s of
    // wall has passed: CPU/wall near 1 means it ran sequentially.
    double wall = 0, cpu = 0;
    for (const auto& inst : insts_) {
      const double c0 = cpuSeconds();
      const std::uint64_t t0 = nowNs();
      apps::baseline::maxCliqueOmp(inst.graph, kWorkers);
      wall += static_cast<double>(nowNs() - t0) * 1e-9;
      cpu += cpuSeconds() - c0;
      if (wall >= 0.2) break;
    }
    return wall > 0 ? cpu / wall : 0;
  }

 private:
  static constexpr int kWorkers = 3;

  // The root's colouring is timed with the search, as the hand solver's is.
  template <typename G>
  SearchRecord search(const Instance& inst) {
    if (!parallel_) {
      auto rec = timeSearch(inst.name, "Sequential", [&](SearchRecord& r) {
        auto out = CliqueSkel<G, skeletons::Sequential>::search(
            Params{}, inst.graph, mc::rootNode(inst.graph));
        fromOutcome(r, out, out.objective);
      });
      rec.exactCount = true;
      return rec;
    }
    Params p;
    p.workersPerLocality = kWorkers;
    p.dcutoff = 1;
    auto rec = timeSearch(inst.name, "Depth-Bounded", [&](SearchRecord& r) {
      auto out = CliqueSkel<G, skeletons::DepthBounded>::search(
          p, inst.graph, mc::rootNode(inst.graph));
      fromOutcome(r, out, out.objective);
    });
    rec.threads = kWorkers;
    return rec;
  }

  bool parallel_;
  std::vector<Instance> insts_;
};

}  // namespace

std::unique_ptr<Workload> makeCliqueSeq() {
  return std::make_unique<CliqueWorkload>(false);
}
std::unique_ptr<Workload> makeCliquePar() {
  return std::make_unique<CliqueWorkload>(true);
}

double referenceGreedyColourNs() {
  const Graph g = degreeSorted(kTable1[2]);  // brock-like-1
  std::vector<mc::Node> nodes;
  mc::Gen root(g, mc::rootNode(g));
  while (root.hasNext() && nodes.size() < 64) nodes.push_back(root.next());
  return probeGreedyColourNs(std::vector<const Graph*>(nodes.size(), &g),
                             nodes);
}

}  // namespace perfbench
