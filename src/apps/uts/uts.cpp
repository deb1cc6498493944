#include "apps/uts/uts.hpp"

namespace yewpar::apps::uts {

Node rootNode(const Params& p) {
  Node root;
  root.d = 0;
  std::uint64_t s = p.seed;
  root.state = splitmix64(s);
  return root;
}

namespace {
std::uint64_t countBelow(const Params& p, const Node& n) {
  std::uint64_t total = 1;
  Gen gen(p, n);
  while (gen.hasNext()) total += countBelow(p, gen.next());
  return total;
}
}  // namespace

std::uint64_t countTree(const Params& p) { return countBelow(p, rootNode(p)); }

}  // namespace yewpar::apps::uts
