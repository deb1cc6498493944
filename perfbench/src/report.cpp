#include "report.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "util/stats.hpp"

namespace perfbench {

double cpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peakRssMb() {
  // VmHWM belongs to this program's address space. getrusage's ru_maxrss
  // survives execve, so it would report the launching process's peak
  // whenever that was larger; it is only the fallback.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

bool resetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

namespace {

std::mutex gGenMtx;
GenTimes gGenTotal;

struct ThreadGenTimes {
  GenTimes t;
  ~ThreadGenTimes() {
    std::lock_guard<std::mutex> lock(gGenMtx);
    gGenTotal += t;
  }
};

thread_local ThreadGenTimes tGen;

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string fmt(double v, int digits = 10) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  return buf;
}

// Per-round aggregate metrics that are then taken as a median over rounds.
std::vector<Metric> roundLayerMetrics(const Round& round) {
  GenTimes gen;
  double threadSeconds = 0, weightedCv = 0, cvWeight = 0;
  std::uint64_t nodes = 0, refNodes = 0, nodesWithRef = 0;
  rt::MetricsSnapshot m;
  std::uint64_t phase[rt::prof::kNumPhases] = {};
  std::uint64_t workerWall = 0, managerNs = 0, rankWall = 0;
  bool allExact = true;
  for (const auto& s : round.searches) {
    if (s.reference) continue;
    gen += s.gen;
    threadSeconds += s.seconds * s.threads;
    nodes += s.nodes;
    allExact = allExact && s.exactCount;
    if (s.refNodes > 0) {
      refNodes += s.refNodes;
      nodesWithRef += s.nodes;
    }
    m += s.metrics;
    rt::prof::ProfileSnapshot all;  // every worker of every rank
    for (const auto& rank : s.profiles) {
      for (const auto& w : rank.workers) {
        for (int p = 0; p < rt::prof::kNumPhases; ++p) {
          phase[p] += w.nanos[static_cast<std::size_t>(p)];
        }
        workerWall += w.wallNanos > 0 ? w.wallNanos : rank.wallNanos;
        all.workers.push_back(w);
      }
      managerNs += rank.manager.get(rt::prof::Phase::kManager);
      rankWall += rank.wallNanos;
    }
    if (!all.workers.empty()) {
      weightedCv += all.utilizationCV() * s.seconds;
      cvWeight += s.seconds;
    }
  }
  const double moved = static_cast<double>(m.tasksStolen());
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  using rt::prof::Phase;
  const auto frac = [&](Phase p) {
    return ratio(d(phase[static_cast<int>(p)]), d(workerWall));
  };
  return {
      {"apps.gen_next_ns", gen.nextNs(), "ns",
       fmt(d(gen.sampledNexts)) + " of " + fmt(d(gen.nextCalls)) +
           " next() calls timed"},
      {"apps.gen_ctor_ns", gen.ctorNs(), "ns",
       fmt(d(gen.sampledCtors)) + " of " + fmt(d(gen.ctorCalls)) +
           " constructions timed"},
      {"apps.gen_share", ratio(gen.totalNs() * 1e-9, threadSeconds), "frac",
       fmt(gen.totalNs() * 1e-9) + " s Gen / " + fmt(threadSeconds) +
           " s search wall x threads"},
      {"core.nodes", d(nodes), "count",
       allExact ? "exact (deterministic trees)" : "varies (parallel B&B)"},
      {"core.ref_nodes", d(refNodes), "count", "reference solver, exact"},
      {"core.nodes_vs_hand", ratio(d(nodesWithRef), d(refNodes)), "ratio",
       fmt(d(nodesWithRef)) + " / " + fmt(d(refNodes)) + " reference nodes"},
      {"core.prunes", d(m.prunes), "count", ""},
      {"core.prune_ratio", ratio(d(m.prunes), d(nodes)), "ratio",
       fmt(d(m.prunes)) + " / " + fmt(d(nodes)) + " nodes"},
      {"core.backtracks", d(m.backtracks), "count", ""},
      {"core.tasks_spawned", d(m.tasksSpawned), "count", ""},
      {"core.nodes_per_worker_s", ratio(d(nodes), threadSeconds), "1/s",
       fmt(d(nodes)) + " / " + fmt(threadSeconds) + " s wall x threads"},
      {"worker.working_frac", frac(Phase::kWorking), "frac",
       "of " + fmt(d(workerWall) * 1e-9) + " s worker wall"},
      {"worker.popping_frac", frac(Phase::kPopping), "frac", ""},
      {"worker.stealing_frac", frac(Phase::kStealing), "frac", ""},
      {"worker.idle_frac", frac(Phase::kIdle), "frac", ""},
      {"worker.imbalance_cv", ratio(weightedCv, cvWeight), "ratio",
       "CV of working time over all workers, search-time weighted"},
      {"manager.busy_frac", ratio(d(managerNs), d(rankWall)), "frac",
       fmt(d(managerNs) * 1e-9) + " s / " + fmt(d(rankWall) * 1e-9) +
           " s rank wall"},
      {"workpool.lock_contentions", d(m.poolLockContentions), "count", ""},
      {"steal.local_moved", d(m.localSteals), "count", ""},
      {"steal.remote_moved", d(m.remoteSteals), "count", ""},
      {"steal.moved_per_spawned", ratio(moved, d(m.tasksSpawned)), "ratio",
       fmt(moved) + " moved / " + fmt(d(m.tasksSpawned)) + " spawned"},
      {"steal.replies", d(m.stealReplies), "count", ""},
      {"steal.tasks_per_reply", ratio(moved, d(m.stealReplies)), "ratio",
       fmt(moved) + " / " + fmt(d(m.stealReplies)) + " replies"},
      {"steal.failed", d(m.failedSteals), "count", ""},
      {"steal.fail_ratio",
       ratio(d(m.failedSteals), d(m.failedSteals + m.stealReplies)), "ratio",
       fmt(d(m.failedSteals)) + " / " +
           fmt(d(m.failedSteals + m.stealReplies)) + " steal attempts"},
      {"transport.messages", d(m.networkMessages), "count", ""},
      {"transport.frames", d(m.networkFrames), "count", ""},
      {"transport.bytes", d(m.networkBytes), "bytes", ""},
      {"transport.queue_high_water", d(m.linkQueueHighWater), "count", ""},
  };
}

// Median of each metric over rounds (the rounds share one metric list).
std::vector<Metric> medianOver(const std::vector<std::vector<Metric>>& per) {
  std::vector<Metric> out = per.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> vs;
    for (const auto& r : per) vs.push_back(r[i].value);
    out[i].value = median(vs);
  }
  return out;
}

// Geo-mean over a round's YewPar searches of their time / reference time.
double roundOverhead(const Round& r) {
  std::vector<double> ratios;
  for (const auto& s : r.searches) {
    if (!s.reference && s.refSeconds > 0) {
      ratios.push_back(s.seconds / s.refSeconds);
    }
  }
  return ratios.empty() ? 0.0 : geometricMean(ratios);
}

}  // namespace

double clockOverheadNs() {
  static const double overhead = [] {
    std::vector<double> perPair;
    for (int rep = 0; rep < 9; ++rep) {
      constexpr int kPairs = 20000;
      std::uint64_t sink = 0;
      const std::uint64_t t0 = nowNs();
      for (int i = 0; i < kPairs; ++i) {
        const std::uint64_t a = nowNs();
        sink += nowNs() - a;
      }
      // Each pair is one interval's two reads; `sink` keeps them live.
      perPair.push_back(static_cast<double>(nowNs() - t0 + (sink & 1)) /
                        kPairs);
    }
    return median(perPair) / 2;
  }();
  return overhead;
}

GenTimes& threadGenTimes() { return tGen.t; }

GenTimes takeGenTimes() {
  std::lock_guard<std::mutex> lock(gGenMtx);
  gGenTotal += tGen.t;
  tGen.t = GenTimes{};
  GenTimes out = gGenTotal;
  gGenTotal = GenTimes{};
  return out;
}

std::vector<Metric> endToEnd(const std::vector<Round>& rounds,
                             const std::vector<double>& setupSeconds) {
  std::vector<double> wall, cpu, rss, overhead;
  for (const auto& r : rounds) {
    wall.push_back(r.wallSeconds);
    cpu.push_back(r.cpuSeconds);
    rss.push_back(r.peakRssMb);
    overhead.push_back(roundOverhead(r));
  }
  const std::string n = std::to_string(rounds.size()) + " rounds";
  return {
      {"wall_s", median(wall), "s", "median of " + n},
      {"cpu_s", median(cpu), "s", "median of " + n},
      {"setup_s", median(setupSeconds), "s",
       "median of " + std::to_string(setupSeconds.size()) + " set-ups"},
      {"peak_rss_mb", median(rss), "MB",
       "process peak within a round, median of " + n},
      {"overhead_ratio", median(overhead), "ratio",
       "geo-mean YewPar time / reference time, median of " + n},
  };
}

std::vector<Metric> yardsticks(const std::string& workload,
                               const std::vector<Round>& rounds) {
  std::vector<double> overhead;
  for (const auto& r : rounds) overhead.push_back(roundOverhead(r));
  const double o = median(overhead);
  if (workload == "clique-seq") {
    return {{"seq_overhead_ratio", o, "ratio",
             "Sequential / maxCliqueSeq geo-mean (paper: 1.088)"}};
  }
  if (workload == "clique-par") {
    return {{"par_speedup", ratio(1.0, o), "ratio",
             "maxCliqueSeq / Depth-Bounded(3 workers) geo-mean"}};
  }
  return {};
}

std::vector<Metric> perLayer(const std::vector<Round>& traced,
                             const std::vector<Round>& untraced,
                             const LayerTimings& lt) {
  std::vector<std::vector<Metric>> per;
  for (const auto& r : traced) per.push_back(roundLayerMetrics(r));
  std::vector<Metric> out = medianOver(per);

  std::vector<double> tw, uw;
  for (const auto& r : traced) tw.push_back(r.wallSeconds);
  for (const auto& r : untraced) uw.push_back(r.wallSeconds);
  const double tMed = median(tw), uMed = median(uw);

  std::string sizes;
  for (std::size_t i = 0; i < lt.replyTasks.size(); ++i) {
    sizes += (i ? ", " : "") + std::to_string(lt.replyTasks[i]) + " tasks/" +
             std::to_string(lt.replyBytes[i]) + " B";
  }
  const std::vector<Metric> direct = {
      {"apps.greedy_colour_ns", lt.greedyColourNs, "ns", "per call"},
      {"workpool.push_pop_ns", lt.pushPopNs, "ns", "DepthPool, per task"},
      {"workpool.steal_many_ns", lt.stealManyNs, "ns",
       "DepthPool stealMany(" + std::to_string(lt.replyTasks[1]) +
           "), per call"},
      {"workpool.sharded_push_pop_ns", lt.shardedPushPopNs, "ns",
       "ShardedPriorityPool, per task"},
      {"archive.encode_ns_per_kb", lt.encodeNsPerKb, "ns/KB",
       "at " + std::to_string(lt.replyBytes[1]) + " B; sizes " + sizes},
      {"archive.decode_ns_per_kb", lt.decodeNsPerKb, "ns/KB",
       "at " + std::to_string(lt.replyBytes[1]) + " B"},
      {"transport.roundtrip_us", lt.roundtripUs, "us",
       "InProcTransport reply+ack at " + std::to_string(lt.replyBytes[1]) +
           " B"},
      {"runtime.empty_search_ms", lt.emptySearchMs, "ms",
       "root-only search on the workload's layout, median of 15"},
      {"trace.record_disabled_ns", lt.recordDisabledNs, "ns",
       "disarmed trace::record, budget 5 ns"},
      {"bench.trace_overhead_ratio", ratio(tMed, uMed), "ratio",
       fmt(tMed) + " s traced / " + fmt(uMed) + " s untraced wall"},
  };
  out.insert(out.end(), direct.begin(), direct.end());
  return out;
}

void printSearchTable(const Round& round) {
  std::printf("%-16s %-15s %9s %12s %12s %8s %9s %7s %s\n", "instance",
              "search", "time(s)", "nodes", "ref-nodes", "nodes/ref",
              "moved/spn", "gen%", "result");
  for (const auto& s : round.searches) {
    const double moved = static_cast<double>(s.metrics.tasksStolen());
    std::printf("%-16s %-15s %9.4f %12llu %12llu %8.3f %9.2f %7.1f %lld%s%s\n",
                s.instance.c_str(), s.skeleton.c_str(), s.seconds,
                static_cast<unsigned long long>(s.nodes),
                static_cast<unsigned long long>(s.refNodes),
                ratio(static_cast<double>(s.nodes),
                      static_cast<double>(s.refNodes)),
                ratio(moved, static_cast<double>(s.metrics.tasksSpawned)),
                100.0 * ratio(s.gen.totalNs() * 1e-9, s.seconds * s.threads),
                static_cast<long long>(s.result), s.exactCount ? " exact" : "",
                s.ok() ? "" : " WRONG");
  }
}

void printMetricTable(const std::string& title,
                      const std::vector<Metric>& metrics) {
  std::printf("-- %s --\n", title.c_str());
  for (const auto& m : metrics) {
    std::printf("  %-28s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.base.c_str());
  }
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string resultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    os << (i ? ", " : "") << jsonString(metrics[i].name)
       << ": {\"value\": " << fmt(v, 17)
       << ", \"unit\": " << jsonString(metrics[i].unit) << "}";
  }
  os << "}}";
  return os.str();
}

void writeSpans(const std::string& path, const std::string& workload,
                std::uint64_t seed, const std::vector<Round>& traced) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write spans to " + path);
  f << "[\n";
  bool first = true;
  for (std::size_t r = 0; r < traced.size(); ++r) {
    for (const auto& s : traced[r].searches) {
      const auto durNs = static_cast<std::uint64_t>(s.seconds * 1e9);
      const auto threadNs = durNs * static_cast<std::uint64_t>(s.threads);
      const auto child = static_cast<std::uint64_t>(s.gen.totalNs());
      f << (first ? "" : ",\n") << "{\"workload\": " << jsonString(workload)
        << ", \"seed\": " << seed << ", \"round\": " << r
        << ", \"name\": " << jsonString(s.skeleton)
        << ", \"instance\": " << jsonString(s.instance)
        << ", \"reference\": " << (s.reference ? "true" : "false")
        << ", \"start_ns\": " << s.startNs << ", \"dur_ns\": " << durNs
        << ", \"threads\": " << s.threads
        << ", \"child_gen_ns\": " << child
        << ", \"gen_ctor_calls\": " << s.gen.ctorCalls
        << ", \"gen_next_calls\": " << s.gen.nextCalls
        << ", \"self_thread_ns\": " << (threadNs > child ? threadNs - child : 0)
        << ", \"nodes\": " << s.nodes
        << ", \"exact\": " << (s.exactCount ? "true" : "false")
        << ", \"tasks_spawned\": " << s.metrics.tasksSpawned
        << ", \"tasks_moved\": " << s.metrics.tasksStolen()
        << ", \"result\": " << s.result
        << ", \"ok\": " << (s.ok() ? "true" : "false") << "}";
      first = false;
    }
  }
  f << "\n]\n";
}

std::map<std::string, std::uint64_t> exactCounts(const std::string& workload,
                                                 const Round& round) {
  std::map<std::string, std::uint64_t> out;
  const std::string prefix = workload + "|";
  for (const auto& s : round.searches) {
    if (s.exactCount) out[prefix + s.instance + "|" + s.skeleton] = s.nodes;
  }
  return out;
}

std::map<std::string, std::uint64_t> readCounts(const std::string& path) {
  std::map<std::string, std::uint64_t> out;
  std::ifstream f(path);
  std::string key;
  std::uint64_t nodes = 0;
  while (f >> key >> nodes) out[key] = nodes;
  return out;
}

void writeCounts(const std::string& path,
                 const std::map<std::string, std::uint64_t>& counts) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write counts to " + path);
  for (const auto& [key, nodes] : counts) f << key << ' ' << nodes << '\n';
}

}  // namespace perfbench
