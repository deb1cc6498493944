// The repo benchmark's measuring program (see perfbench/README.md).
//
//   perfbench --workload <clique-seq|clique-par|uts-dist|cmst-ordered>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--spans FILE] [--counts FILE] [--write-counts]
//
// --trace 0: set up several times, then run whole rounds of the workload
//   until --seconds have passed, and report the end-to-end metrics (medians
//   over rounds).
// --trace 1: set up, run untraced rounds, replay them traced (every node
//   generator wrapped in TimedGen), time each layer directly, and report
//   the per-layer metrics; the traced rounds' spans go to --spans.
// --counts FILE compares the deterministic searches' exact node counts with
//   a baseline ("count change" lines); --write-counts adds this run's counts
//   to it.
//
// Every search result is checked against its oracle. The last stdout line
// is the JSON result; the exit code is 1 if any result or self-check was
// wrong, 2 on bad arguments.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "bench.hpp"
#include "layers.hpp"
#include "report.hpp"
#include "util/stats.hpp"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
  std::string counts;
  bool writeCounts = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "clique-seq|clique-par|uts-dist|cmst-ordered --seed N "
               "--seconds S --trace 0|1 [--spans FILE] [--counts FILE] "
               "[--write-counts]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--write-counts") {
      a.writeCounts = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
        haveWorkload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        a.trace = std::stoi(v) != 0;
      } else if (flag == "--spans") {
        a.spans = v;
      } else if (flag == "--counts") {
        a.counts = v;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!haveWorkload) usage("--workload is required");
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

std::unique_ptr<Workload> make(const std::string& name) {
  if (name == "clique-seq") return makeCliqueSeq();
  if (name == "clique-par") return makeCliquePar();
  if (name == "uts-dist") return makeUtsDist();
  if (name == "cmst-ordered") return makeCmstOrdered();
  usage(("unknown workload " + name).c_str());
}

// Run whole rounds until `seconds` have passed (at least `minRounds`).
std::vector<Round> runRounds(Workload& w, bool traced, double seconds,
                             std::size_t minRounds) {
  std::vector<Round> rounds;
  const std::uint64_t start = nowNs();
  while (rounds.size() < minRounds ||
         static_cast<double>(nowNs() - start) * 1e-9 < seconds) {
    resetPeakRss();
    const double c0 = cpuSeconds();
    const std::uint64_t t0 = nowNs();
    Round r = w.runRound(traced);
    r.wallSeconds = static_cast<double>(nowNs() - t0) * 1e-9;
    r.cpuSeconds = cpuSeconds() - c0;
    r.peakRssMb = peakRssMb();
    rounds.push_back(std::move(r));
  }
  std::vector<double> walls;
  for (const auto& r : rounds) walls.push_back(r.wallSeconds);
  std::sort(walls.begin(), walls.end());
  std::printf("%s rounds: %zu, wall min %.4f median %.4f max %.4f s\n",
              traced ? "traced" : "untraced", walls.size(), walls.front(),
              median(walls), walls.back());
  return rounds;
}

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

// The host block: where and how the numbers were measured. The OpenMP
// ratio is null on workloads without the Table 1(b) baseline.
void printHost(const Args& a, double ompRatio) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  std::printf("host {\"nproc\": %ld, \"compiler\": %s, \"build_type\": %s, "
              "\"commit\": %s, \"workload\": %s, \"seed\": %llu, "
              "\"seconds\": %g, \"omp_cpu_wall_ratio\": %s}\n",
              nproc, jsonString(kCompiler).c_str(),
              jsonString(PERFBENCH_BUILD_TYPE).c_str(),
              jsonString(commit ? commit : "unknown").c_str(),
              jsonString(a.workload).c_str(),
              static_cast<unsigned long long>(a.seed), a.seconds,
              ompRatio > 0 ? std::to_string(ompRatio).c_str() : "null");
  if (ompRatio > 0) {
    std::printf("openmp baseline: CPU/wall %.2f on 3 threads -> %s\n",
                ompRatio,
                ompRatio < 1.5 ? "runs sequentially in this build; no "
                                 "OpenMP-relative metric is reported"
                               : "runs in parallel");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  auto w = make(args.workload);

  std::vector<double> setupSeconds;
  for (int r = 0; r < w->setupReps(); ++r) {
    const std::uint64_t t0 = nowNs();
    w->setup(args.seed);
    setupSeconds.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
  }
  printHost(args, w->ompCpuWallRatio());
  std::printf("set-ups: %zu, min %.6f median %.6f max %.6f s\n",
              setupSeconds.size(),
              *std::min_element(setupSeconds.begin(), setupSeconds.end()),
              median(setupSeconds),
              *std::max_element(setupSeconds.begin(), setupSeconds.end()));

  std::vector<Round> untraced, traced;
  std::vector<Metric> metrics;
  bool selfChecksOk = true;
  if (!args.trace) {
    untraced = runRounds(*w, false, args.seconds, 1);
    metrics = endToEnd(untraced, setupSeconds);
    printSearchTable(untraced.front());
    auto shown = metrics;
    for (const auto& y : yardsticks(args.workload, untraced)) {
      shown.push_back(y);
    }
    printMetricTable(args.workload + " end-to-end", shown);
  } else {
    untraced = runRounds(*w, false, 0.35 * args.seconds, 1);
    traced = runRounds(*w, true, 0.35 * args.seconds, 1);
    const LayerTimings lt = w->probeLayers(traced);
    metrics = perLayer(traced, untraced, lt);
    printSearchTable(traced.front());
    printMetricTable(args.workload + " per-layer (traced)", metrics);
    if (!lt.growsWithSize) {
      selfChecksOk = false;
      std::printf("SELF-CHECK FAILED: archive/transport time did not grow "
                  "with payload size\n");
      for (std::size_t i = 0; i < lt.replyTasks.size(); ++i) {
        std::printf("  %zu tasks %zu B: encode %.0f ns decode %.0f ns "
                    "roundtrip %.0f ns\n",
                    lt.replyTasks[i], lt.replyBytes[i], lt.encodeNs[i],
                    lt.decodeNs[i], lt.roundtripNs[i]);
      }
    }
    if (!args.spans.empty()) writeSpans(args.spans, args.workload, args.seed,
                                        traced);
  }

  // Oracles: every YewPar search of every round against its reference
  // (and the UTS reference against the set-up total). `attempted` counts
  // the YewPar searches.
  std::uint64_t attempted = 0, failed = 0;
  for (const auto* rounds : {&untraced, &traced}) {
    for (const auto& r : *rounds) {
      for (const auto& s : r.searches) {
        if (!s.reference) ++attempted;
        if (!s.ok()) {
          ++failed;
          std::printf("WRONG RESULT: %s %s gave %lld, expected %lld\n",
                      s.instance.c_str(), s.skeleton.c_str(),
                      static_cast<long long>(s.result),
                      static_cast<long long>(s.expected));
        }
      }
    }
  }
  std::printf("wrong_results: %llu / %llu searches\n",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  // Exact counts against the baseline: a changed count is a change in the
  // search tree (pruning), never a speed-up.
  if (!args.counts.empty()) {
    auto baseline = readCounts(args.counts);
    const auto now = exactCounts(args.workload, untraced.front());
    std::size_t compared = 0, changed = 0;
    for (const auto& [key, nodes] : now) {
      const auto it = baseline.find(key);
      if (it == baseline.end()) continue;
      ++compared;
      if (it->second != nodes) {
        ++changed;
        std::printf("count change: %s nodes %llu -> %llu\n", key.c_str(),
                    static_cast<unsigned long long>(it->second),
                    static_cast<unsigned long long>(nodes));
      }
    }
    std::printf("exact counts: %zu of %zu compared with the baseline, %zu "
                "changed\n",
                compared, now.size(), changed);
    if (args.writeCounts) {
      for (const auto& [key, nodes] : now) baseline[key] = nodes;
      writeCounts(args.counts, baseline);
    }
  }

  const bool correct = failed == 0 && selfChecksOk;
  std::printf("%s\n", resultJson(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
