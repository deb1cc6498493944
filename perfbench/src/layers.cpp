#include "layers.hpp"

#include "apps/uts/uts.hpp"
#include "runtime/trace.hpp"

namespace perfbench {

double tasksPerReply(const std::vector<Round>& rounds) {
  std::uint64_t moved = 0, replies = 0;
  for (const auto& round : rounds) {
    for (const auto& s : round.searches) {
      if (s.reference) continue;
      moved += s.metrics.tasksStolen();
      replies += s.metrics.stealReplies;
    }
  }
  return replies == 0 ? 0.0
                      : static_cast<double>(moved) /
                            static_cast<double>(replies);
}

double probeGreedyColourNs(const std::vector<const apps::Graph*>& graphOf,
                           const std::vector<apps::mc::Node>& nodes) {
  std::vector<std::int32_t> vertex, colour;
  vertex.reserve(1024);
  colour.reserve(1024);
  std::vector<double> perCall;
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t t0 = nowNs();
    std::uint64_t calls = 0;
    while (nowNs() - t0 < 10'000'000 || calls == 0) {
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        apps::mc::greedyColour(*graphOf[i], nodes[i].candidates, vertex,
                               colour);
      }
      calls += nodes.size();
    }
    perCall.push_back(static_cast<double>(nowNs() - t0) /
                      static_cast<double>(calls));
  }
  return median(perCall);
}

double probeRecordDisabledNs() {
  if (rt::trace::enabled()) {
    throw std::logic_error("trace session armed during the disabled probe");
  }
  constexpr std::uint64_t kCalls = 20'000'000;
  std::vector<double> perCall;
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t t0 = nowNs();
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      rt::trace::record(rt::trace::Ev::kPoolPush, 0, i, i);
    }
    perCall.push_back(static_cast<double>(nowNs() - t0) /
                      static_cast<double>(kCalls));
  }
  return median(perCall);
}

double emptySearchMs(EmptyLayout skel, int localities, int workers) {
  apps::uts::Params tree;
  tree.maxDepth = 0;  // the root has no children
  const auto root = apps::uts::rootNode(tree);
  Params p;
  p.nLocalities = localities;
  p.workersPerLocality = workers;
  p.dcutoff = 1;
  using Enum = Enumeration<CountAll>;
  std::vector<double> ms;
  for (int rep = 0; rep < 15; ++rep) {
    const std::uint64_t t0 = nowNs();
    std::uint64_t total = 0;
    switch (skel) {
      case EmptyLayout::Sequential:
        total = skeletons::Sequential<apps::uts::Gen, Enum>::search(p, tree,
                                                                    root)
                    .sum;
        break;
      case EmptyLayout::DepthBounded:
        total = skeletons::DepthBounded<apps::uts::Gen, Enum>::search(p, tree,
                                                                      root)
                    .sum;
        break;
      case EmptyLayout::Ordered:
        total =
            skeletons::Ordered<apps::uts::Gen, Enum>::search(p, tree, root)
                .sum;
        break;
    }
    ms.push_back(static_cast<double>(nowNs() - t0) * 1e-6);
    if (total != 1) throw std::runtime_error("root-only search miscounted");
  }
  return median(ms);
}

}  // namespace perfbench
