#pragma once

// Shared types of the repo benchmark (see perfbench/README.md).
//
// A *workload* is a fixed set of searches built from the workload seed. One
// *round* runs that whole set once and yields one SearchRecord per search
// call. The untraced run measures rounds as they are; the traced run
// replays them with every node generator wrapped in TimedGen, and then
// times direct calls into single layers (layers.hpp).

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/yewpar.hpp"
#include "runtime/metrics.hpp"
#include "runtime/profile.hpp"

namespace perfbench {

using namespace yewpar;

inline std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Process user+sys CPU time, in seconds.
double cpuSeconds();
// Peak resident set size of the process since start or since the last
// resetPeakRss(), in MB.
double peakRssMb();
// Restart the peak-RSS mark at the current RSS (Linux clear_refs "5");
// false where the kernel does not allow it, and the mark keeps running.
bool resetPeakRss();

// Calls into a node generator, summed over threads. Every call is
// counted; about one generator in kGenSampleEvery, drawn at random at its
// construction, is timed - its construction and all its next() calls - so
// the clock reads cost the traced search a fraction of what timing every
// call would. Totals are the sampled mean per call, less the cost of the
// clock reads themselves, times the exact call count.
inline constexpr std::uint64_t kGenSampleEvery = 8;

// Cost of one timed interval's two clock reads, measured at start-up.
double clockOverheadNs();

struct GenTimes {
  std::uint64_t ctorCalls = 0;
  std::uint64_t nextCalls = 0;
  std::uint64_t sampledCtors = 0;
  std::uint64_t sampledNexts = 0;
  std::uint64_t sampledCtorNs = 0;
  std::uint64_t sampledNextNs = 0;

  double ctorNs() const { return perCall(sampledCtorNs, sampledCtors); }
  double nextNs() const { return perCall(sampledNextNs, sampledNexts); }
  double totalNs() const {
    return ctorNs() * static_cast<double>(ctorCalls) +
           nextNs() * static_cast<double>(nextCalls);
  }
  GenTimes& operator+=(const GenTimes& o) {
    ctorCalls += o.ctorCalls;
    nextCalls += o.nextCalls;
    sampledCtors += o.sampledCtors;
    sampledNexts += o.sampledNexts;
    sampledCtorNs += o.sampledCtorNs;
    sampledNextNs += o.sampledNextNs;
    return *this;
  }

 private:
  static double perCall(std::uint64_t ns, std::uint64_t calls) {
    if (calls == 0) return 0.0;
    const double mean =
        static_cast<double>(ns) / static_cast<double>(calls) -
        clockOverheadNs();
    return mean > 0 ? mean : 0.0;
  }
};

// The calling thread's accumulator. Each thread's totals move into a
// process-wide sum when the thread exits (engine workers are joined before
// a search returns), so takeGenTimes() after a search sees all of them.
GenTimes& threadGenTimes();
// Flush the calling thread, then return and reset the process-wide sum.
GenTimes takeGenTimes();

// True for about one call in kGenSampleEvery (a per-thread splitmix64
// stream, so the choice never aliases with the shape of the tree).
inline bool sampleThisGen() {
  thread_local std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return ((z ^ (z >> 31)) % kGenSampleEvery) == 0;
}

// The traced run's child span: wraps an application generator and times
// its construction and next() calls on whichever thread runs them. The
// skeletons drive it exactly like the generator it wraps.
template <typename G>
struct TimedGen {
  using Space = typename G::Space;
  using Node = typename G::Node;

  // Declared before `inner`, so both are set before it is constructed.
  bool timed;
  std::uint64_t born;
  G inner;

  TimedGen(const Space& s, const Node& n)
      : timed(sampleThisGen()), born(timed ? nowNs() : 0), inner(s, n) {
    auto& acc = threadGenTimes();
    ++acc.ctorCalls;
    if (timed) {
      acc.sampledCtorNs += nowNs() - born;
      ++acc.sampledCtors;
    }
  }

  bool hasNext() const { return inner.hasNext(); }

  Node next() {
    auto& acc = threadGenTimes();
    ++acc.nextCalls;
    if (!timed) return inner.next();
    const std::uint64_t t0 = nowNs();
    Node child = inner.next();
    acc.sampledNextNs += nowNs() - t0;
    ++acc.sampledNexts;
    return child;
  }
};

// One search call of a round: a YewPar search or a reference solver.
struct SearchRecord {
  std::string instance;
  std::string skeleton;    // YewPar skeleton, or the reference solver's name
  bool reference = false;  // hand-written / oracle solver, not a skeleton
  bool exactCount = false; // deterministic tree: `nodes` is an exact count
  int threads = 1;         // worker threads the search keeps busy
  std::uint64_t startNs = 0;
  double seconds = 0;
  std::int64_t result = 0;   // clique size, enumeration total, objective
  std::int64_t expected = 0; // the oracle's answer for this instance
  std::uint64_t nodes = 0;
  std::uint64_t refNodes = 0;  // reference solver's nodes (0 = none)
  double refSeconds = 0;       // reference solver's time (0 = none)
  rt::MetricsSnapshot metrics;
  std::vector<rt::prof::ProfileSnapshot> profiles;
  GenTimes gen;  // traced rounds only

  bool ok() const { return result == expected; }
};

struct Round {
  std::vector<SearchRecord> searches;
  double wallSeconds = 0;
  double cpuSeconds = 0;
  double peakRssMb = 0;  // the process's peak RSS during this round
};

// Direct per-layer timings (layers.hpp), inputs drawn from the workload.
struct LayerTimings {
  double greedyColourNs = 0;
  double pushPopNs = 0;         // DepthPool push + pop, per task
  double stealManyNs = 0;       // DepthPool stealMany(k), per call
  double shardedPushPopNs = 0;  // ShardedPriorityPool push + pop, per task
  double encodeNsPerKb = 0;
  double decodeNsPerKb = 0;
  double roundtripUs = 0;
  double recordDisabledNs = 0;
  double emptySearchMs = 0;
  // Payload sizes the archive/transport timings used (tasks per reply and
  // encoded bytes), and whether time grew with size at every step.
  std::vector<std::size_t> replyTasks;
  std::vector<std::size_t> replyBytes;
  std::vector<double> encodeNs, decodeNs, roundtripNs;
  bool growsWithSize = true;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Build the inputs (and the oracle answers not measured in a round) from
  // the workload seed. Called several times; each call rebuilds everything.
  virtual void setup(std::uint64_t seed) = 0;
  virtual int setupReps() const = 0;
  // Run the whole search set once.
  virtual Round runRound(bool traced) = 0;
  // Per-layer direct timings, with inputs drawn from the workload's nodes
  // and from `traced` (steal-reply sizes).
  virtual LayerTimings probeLayers(const std::vector<Round>& traced) = 0;
  // The OpenMP baseline's CPU/wall ratio, when the workload has one.
  virtual double ompCpuWallRatio() { return 0; }
};

std::unique_ptr<Workload> makeCliqueSeq();
std::unique_ptr<Workload> makeCliquePar();
std::unique_ptr<Workload> makeUtsDist();
std::unique_ptr<Workload> makeCmstOrdered();

// Time one search call into a SearchRecord: wall, result, metrics and (for
// traced rounds) the generator time taken on every thread during the call.
template <typename F>
SearchRecord timeSearch(std::string instance, std::string skeleton, F&& fn) {
  SearchRecord r;
  r.instance = std::move(instance);
  r.skeleton = std::move(skeleton);
  takeGenTimes();  // drop anything left over from outside this call
  r.startNs = nowNs();
  fn(r);
  r.seconds = static_cast<double>(nowNs() - r.startNs) * 1e-9;
  r.gen = takeGenTimes();
  return r;
}

// Fill a record from a skeleton's Outcome.
template <typename Out>
void fromOutcome(SearchRecord& r, Out&& out, std::int64_t result) {
  r.result = result;
  r.nodes = out.metrics.nodesProcessed;
  r.metrics = out.metrics;
  r.profiles = std::move(out.profiles);
}

}  // namespace perfbench
