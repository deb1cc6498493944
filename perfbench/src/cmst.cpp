// cmst-ordered: seeded conflict-MST instances (Montemanni & Smith), each
// solved by the Ordered skeleton on the sharded priority pool (1 locality
// x 3 workers) and then by the Sequential skeleton as the reference.
//
// Chosen because it uses the workpool differently from the other
// workloads: a priority heap with a sequence window, contended shard locks
// and frequent incumbent updates instead of LIFO depth buckets. It is also
// the roadmap's second application, so that no result is specific to
// MaxClique. Bypasses greedyColour, remote steals and runtime/transport.
//
// The instance family is fixed (sizes and generator seeds below). The
// workload seed renames every instance's vertices and shuffles the order the
// instances run in. Renaming keeps the edge list and its weight order, so
// the search tree is the same for every seed (shuffling the edge list as
// well would reorder equal-weight edges and move each instance's tree size
// from seed to seed). Each Ordered objective is checked against the
// Sequential skeleton's on the same instance in the same round.

#include <algorithm>
#include <numeric>

#include "apps/cmst/cmst.hpp"
#include "bench.hpp"
#include "layers.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace cmst = apps::cmst;

constexpr std::int32_t kVertices = 24;
constexpr std::int32_t kEdges = 90;
constexpr std::int32_t kConflicts = 450;
constexpr std::uint64_t kInstanceSeeds[] = {101, 102, 103, 104, 105, 106,
                                            107, 108, 109, 110, 111, 112};

// Copy of `in` with vertex v renamed perm[v]; edge order, weights and
// conflict pairs are unchanged.
cmst::Instance renameVertices(const cmst::Instance& in, Rng& rng) {
  std::vector<std::int32_t> perm(static_cast<std::size_t>(in.n));
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng);
  cmst::Instance out = in;
  for (auto* ends : {&out.eu, &out.ev}) {
    for (auto& v : *ends) v = perm[static_cast<std::size_t>(v)];
  }
  out.finalize();
  return out;
}

using Bound = BoundFunction<&cmst::upperBound>;

struct Instance {
  std::string name;
  cmst::Instance inst;
};

class CmstOrdered : public Workload {
 public:
  int setupReps() const override { return 101; }

  void setup(std::uint64_t seed) override {
    Rng rng(mix64(seed, 0xC3570));
    insts_.clear();
    for (const auto s : kInstanceSeeds) {
      insts_.push_back(
          {"cmst-" + std::to_string(kVertices) + "-" + std::to_string(kEdges) +
               "-" + std::to_string(kConflicts) + "-s" + std::to_string(s),
           renameVertices(
               cmst::randomInstance(kVertices, kEdges, kConflicts, s), rng)});
    }
    std::shuffle(insts_.begin(), insts_.end(), rng);
  }

  Round runRound(bool traced) override {
    Round round;
    for (const auto& in : insts_) {
      SearchRecord yp = traced ? search<TimedGen<cmst::Gen>>(in)
                               : search<cmst::Gen>(in);
      auto ref = timeSearch(in.name, "Sequential", [&](SearchRecord& r) {
        auto out =
            skeletons::Sequential<cmst::Gen, Optimisation, Bound>::search(
                Params{}, in.inst, cmst::rootNode(in.inst));
        fromOutcome(r, out, out.objective);
      });
      ref.reference = true;
      ref.exactCount = true;
      ref.expected = ref.result;
      yp.expected = ref.result;
      yp.refNodes = ref.nodes;
      yp.refSeconds = ref.seconds;
      round.searches.push_back(std::move(yp));
      round.searches.push_back(std::move(ref));
    }
    return round;
  }

  LayerTimings probeLayers(const std::vector<Round>& traced) override {
    // Inputs: each instance's include/exclude tree down to the Ordered
    // skeleton's spawn depth - the prefix tasks the priority pool holds.
    std::vector<cmst::Node> nodes;
    for (const auto& in : insts_) {
      std::vector<cmst::Node> level{cmst::rootNode(in.inst)};
      for (int d = 0; d < kSpawnDepth && !level.empty(); ++d) {
        std::vector<cmst::Node> next;
        for (const auto& n : level) {
          cmst::Gen gen(in.inst, n);
          while (gen.hasNext()) next.push_back(gen.next());
        }
        nodes.insert(nodes.end(), next.begin(), next.end());
        level = std::move(next);
      }
    }
    LayerTimings lt;
    probeRuntimeLayers(lt, nodes, tasksPerReply(traced), kWorkers);
    lt.greedyColourNs = referenceGreedyColourNs();
    lt.emptySearchMs = emptySearchMs(EmptyLayout::Ordered, 1, kWorkers);
    return lt;
  }

 private:
  static constexpr int kWorkers = 3;
  static constexpr int kSpawnDepth = 8;

  template <typename G>
  SearchRecord search(const Instance& in) {
    Params p;
    p.workersPerLocality = kWorkers;
    p.dcutoff = kSpawnDepth;
    auto rec = timeSearch(in.name, "Ordered", [&](SearchRecord& r) {
      auto out = skeletons::Ordered<G, Optimisation, Bound>::search(
          p, in.inst, cmst::rootNode(in.inst));
      fromOutcome(r, out, out.objective);
    });
    rec.threads = kWorkers;
    return rec;
  }

  std::vector<Instance> insts_;
};

}  // namespace

std::unique_ptr<Workload> makeCmstOrdered() {
  return std::make_unique<CmstOrdered>();
}

}  // namespace perfbench
