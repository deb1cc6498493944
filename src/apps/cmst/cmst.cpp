#include "apps/cmst/cmst.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "util/dsu.hpp"
#include "util/rng.hpp"

namespace yewpar::apps::cmst {

std::int64_t Instance::totalWeight() const {
  return std::accumulate(ew.begin(), ew.end(), std::int64_t{0});
}

namespace {

void buildAdj(Instance& inst) {
  inst.conflictAdj.assign(static_cast<std::size_t>(inst.m()), {});
  for (std::size_t i = 0; i < inst.ca.size(); ++i) {
    inst.conflictAdj[static_cast<std::size_t>(inst.ca[i])].push_back(
        inst.cb[i]);
    inst.conflictAdj[static_cast<std::size_t>(inst.cb[i])].push_back(
        inst.ca[i]);
  }
}

}  // namespace

void Instance::finalize() {
  std::vector<std::int32_t> order(static_cast<std::size_t>(m()));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::int32_t a, std::int32_t b) {
                     return ew[static_cast<std::size_t>(a)] <
                            ew[static_cast<std::size_t>(b)];
                   });
  std::vector<std::int32_t> oldToNew(order.size());
  std::vector<std::int32_t> u2(order.size()), v2(order.size()),
      w2(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto old = static_cast<std::size_t>(order[i]);
    oldToNew[old] = static_cast<std::int32_t>(i);
    u2[i] = eu[old];
    v2[i] = ev[old];
    w2[i] = ew[old];
  }
  eu = std::move(u2);
  ev = std::move(v2);
  ew = std::move(w2);
  for (auto& a : ca) a = oldToNew[static_cast<std::size_t>(a)];
  for (auto& b : cb) b = oldToNew[static_cast<std::size_t>(b)];
  buildAdj(*this);
}

void Instance::load(IArchive& a) {
  a >> n >> eu >> ev >> ew >> ca >> cb;
  buildAdj(*this);  // edges arrive already weight-sorted
}

namespace {

// The calling thread's scratch forest, reset to `included`'s edges. Valid
// until this thread's next call; upperBound and Gen::Gen never nest.
Dsu& includedForest(const Instance& inst, const DynBitset& included) {
  thread_local Dsu dsu;
  dsu.reset(static_cast<std::size_t>(inst.n));
  included.forEach([&](std::size_t e) { dsu.unite(inst.u(e), inst.v(e)); });
  return dsu;
}

// Calls f(idx) on each edge idx >= from that `excluded` leaves allowed, in
// ascending order, one word of ~excluded (masked to the m edges) at a time,
// until f returns false. f may set bits of `excluded` at or below idx.
template <typename F>
void forEachAllowed(const DynBitset& excluded, std::size_t from, F&& f) {
  using Word = DynBitset::Word;
  constexpr auto kBits = DynBitset::kWordBits;
  const std::size_t m = excluded.size();
  Word mask = ~Word{0} << (from % kBits);  // drops edges below `from`
  for (std::size_t w = from / kBits; w * kBits < m; ++w, mask = ~Word{0}) {
    if (m - w * kBits < kBits) mask &= (Word{1} << (m - w * kBits)) - 1;
    for (Word a = ~excluded.word(w) & mask; a != 0; a &= a - 1) {
      if (!f(w * kBits + static_cast<std::size_t>(std::countr_zero(a)))) return;
    }
  }
}

}  // namespace

Node rootNode(const Instance& inst) {
  Node root;
  root.included = root.excluded = DynBitset(static_cast<std::size_t>(inst.m()));
  root.complete = inst.n <= 1;  // the empty tree spans a single vertex
  return root;
}

std::int64_t upperBound(const Instance& inst, const Node& nd) {
  if (nd.complete) return -nd.cost;
  const auto need = static_cast<std::size_t>(inst.n - 1);

  // Forced-exclusion count check: conflict propagation (plus explicit
  // excludes) may leave fewer usable edges than a spanning tree needs.
  if (nd.excluded.size() - nd.excluded.count() < need) return kInfeasible;

  // Kruskal completion over the still-allowed edges (weight order = index
  // order). Included edges are already united, so they cannot double-count.
  Dsu& dsu = includedForest(inst, nd.included);
  std::int64_t total = nd.cost;
  forEachAllowed(nd.excluded, 0, [&](std::size_t idx) {
    if (dsu.unite(inst.u(idx), inst.v(idx))) total += inst.ew[idx];
    return dsu.componentCount() > 1;
  });
  if (dsu.componentCount() > 1) return kInfeasible;
  return -total;
}

Gen::Gen(const Instance& i, const cmst::Node& p) : inst(&i), parent(p) {
  if (parent.complete) return;  // a spanning tree is a leaf
  const Dsu& dsu = includedForest(*inst, parent.included);
  const auto from = static_cast<std::size_t>(parent.nextEdge);
  forEachAllowed(parent.excluded, from, [&](std::size_t idx) {
    // An edge closing a cycle with the tree-so-far can never join it (the
    // tree only grows below this node), so it is forced out in both
    // children (sharpens the children's bound relaxation).
    const bool cycle = dsu.connected(inst->u(idx), inst->v(idx));
    if (cycle) parent.excluded.set(idx);
    else candidate = static_cast<std::int32_t>(idx);
    return cycle;
  });
}

cmst::Node Gen::next() {
  cmst::Node child = parent;
  const auto c = static_cast<std::size_t>(candidate);
  child.nextEdge = candidate + 1;
  if (emitted == 0) {
    // Include child: commit the edge, force out everything conflicting with
    // it. (A conflicting edge can never already be included: including it
    // would have excluded `candidate` first.)
    child.included.set(c);
    child.cost += inst->ew[c];
    for (auto f : inst->conflicts(candidate)) {
      child.excluded.set(static_cast<std::size_t>(f));
    }
    // n-1 acyclic edges over n vertices: a spanning tree.
    child.complete = static_cast<std::int32_t>(child.included.count()) ==
                     inst->n - 1;
  } else {
    child.excluded.set(c);
  }
  ++emitted;
  return child;
}

std::optional<std::int64_t> bruteForce(const Instance& inst) {
  const auto m = inst.m();
  if (m > 24) {
    throw std::runtime_error("cmst::bruteForce: instance too large (m > 24)");
  }
  if (inst.n <= 1) return 0;
  const auto need = inst.n - 1;
  std::optional<std::int64_t> best;
  for (std::uint32_t mask = 0; mask < (1u << m); ++mask) {
    if (std::popcount(mask) != need) continue;
    bool ok = true;
    for (std::size_t i = 0; i < inst.ca.size() && ok; ++i) {
      if ((mask >> inst.ca[i] & 1u) && (mask >> inst.cb[i] & 1u)) ok = false;
    }
    if (!ok) continue;
    Dsu dsu(static_cast<std::size_t>(inst.n));
    std::int64_t cost = 0;
    for (std::int32_t e = 0; e < m && ok; ++e) {
      if (!(mask >> e & 1u)) continue;
      const auto se = static_cast<std::size_t>(e);
      if (!dsu.unite(inst.u(se), inst.v(se))) ok = false;  // cycle
      cost += inst.ew[static_cast<std::size_t>(e)];
    }
    if (!ok || dsu.componentCount() != 1) continue;
    if (!best || cost < *best) best = cost;
  }
  return best;
}

Instance parseText(const std::string& text) {
  std::istringstream in(text);
  std::int64_t n = 0, m = 0, p = 0;
  if (!(in >> n >> m >> p)) {
    throw std::runtime_error("cmst: missing 'n m p' header");
  }
  if (n < 1 || m < 0 || p < 0) {
    throw std::runtime_error("cmst: bad header values");
  }
  Instance inst;
  inst.n = static_cast<std::int32_t>(n);
  for (std::int64_t i = 0; i < m; ++i) {
    std::int64_t u = 0, v = 0, w = 0;
    if (!(in >> u >> v >> w)) {
      throw std::runtime_error("cmst: truncated edge list");
    }
    if (u < 0 || u >= n || v < 0 || v >= n || u == v || w < 0) {
      throw std::runtime_error("cmst: bad edge line");
    }
    inst.eu.push_back(static_cast<std::int32_t>(u));
    inst.ev.push_back(static_cast<std::int32_t>(v));
    inst.ew.push_back(static_cast<std::int32_t>(w));
  }
  for (std::int64_t i = 0; i < p; ++i) {
    std::int64_t a = 0, b = 0;
    if (!(in >> a >> b)) {
      throw std::runtime_error("cmst: truncated conflict list");
    }
    if (a < 0 || a >= m || b < 0 || b >= m || a == b) {
      throw std::runtime_error("cmst: bad conflict line");
    }
    inst.ca.push_back(static_cast<std::int32_t>(a));
    inst.cb.push_back(static_cast<std::int32_t>(b));
  }
  inst.finalize();
  return inst;
}

Instance randomInstance(std::int32_t n, std::int32_t m, std::int32_t conflicts,
                        std::uint64_t seed) {
  if (n < 1) throw std::runtime_error("cmst: n must be >= 1");
  const auto maxEdges =
      static_cast<std::int64_t>(n) * (n - 1) / 2;
  m = static_cast<std::int32_t>(
      std::min<std::int64_t>(std::max<std::int64_t>(m, n - 1), maxEdges));

  Rng rng(mix64(seed, 0xC3A5C85C97CB3127ULL));
  Instance inst;
  inst.n = n;
  auto key = [n](std::int32_t u, std::int32_t v) {
    if (u > v) std::swap(u, v);
    return static_cast<std::int64_t>(u) * n + v;
  };
  std::unordered_set<std::int64_t> used;
  auto addEdge = [&](std::int32_t u, std::int32_t v) {
    used.insert(key(u, v));
    inst.eu.push_back(u);
    inst.ev.push_back(v);
    inst.ew.push_back(static_cast<std::int32_t>(1 + rng.below(1000)));
  };
  // Random spanning tree first, so the unconstrained graph is connected.
  for (std::int32_t v = 1; v < n; ++v) {
    addEdge(static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(v))),
            v);
  }
  while (static_cast<std::int32_t>(inst.eu.size()) < m) {
    const auto u = static_cast<std::int32_t>(
        rng.below(static_cast<std::uint64_t>(n)));
    const auto v = static_cast<std::int32_t>(
        rng.below(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    if (used.contains(key(u, v))) continue;
    addEdge(u, v);
  }
  // Distinct random conflict pairs over the edge indices.
  const auto maxPairs = static_cast<std::int64_t>(m) * (m - 1) / 2;
  conflicts = static_cast<std::int32_t>(
      std::min<std::int64_t>(std::max(conflicts, 0), maxPairs));
  std::unordered_set<std::int64_t> usedPairs;
  auto pairKey = [m](std::int32_t a, std::int32_t b) {
    if (a > b) std::swap(a, b);
    return static_cast<std::int64_t>(a) * m + b;
  };
  while (static_cast<std::int32_t>(inst.ca.size()) < conflicts) {
    const auto a = static_cast<std::int32_t>(
        rng.below(static_cast<std::uint64_t>(m)));
    const auto b = static_cast<std::int32_t>(
        rng.below(static_cast<std::uint64_t>(m)));
    if (a == b) continue;
    if (!usedPairs.insert(pairKey(a, b)).second) continue;
    inst.ca.push_back(a);
    inst.cb.push_back(b);
  }
  inst.finalize();
  return inst;
}

}  // namespace yewpar::apps::cmst
