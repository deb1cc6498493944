#pragma once

// Turning rounds into the benchmark's metrics, and printing them.

#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string base;  // what a ratio was computed from, for the human table
};

// End-to-end metrics of an untraced run (the names in BENCHMARK.json).
std::vector<Metric> endToEnd(const std::vector<Round>& rounds,
                             const std::vector<double>& setupSeconds);

// The paper-yardstick names of the end-to-end ratio, per workload
// (seq_overhead_ratio on clique-seq, par_speedup on clique-par), printed
// in the human table only.
std::vector<Metric> yardsticks(const std::string& workload,
                               const std::vector<Round>& rounds);

// Per-layer metrics of a traced run: counts and generator times from the
// traced rounds, direct timings from `lt`, and the tracing overhead against
// the untraced rounds of the same process.
std::vector<Metric> perLayer(const std::vector<Round>& traced,
                             const std::vector<Round>& untraced,
                             const LayerTimings& lt);

// One row per search of `round`.
void printSearchTable(const Round& round);
void printMetricTable(const std::string& title,
                      const std::vector<Metric>& metrics);

// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string resultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics);

// The traced run's spans, one per search call, as a JSON array in `path`.
void writeSpans(const std::string& path, const std::string& workload,
                std::uint64_t seed, const std::vector<Round>& traced);

// Exact node counts of the deterministic searches, keyed
// "workload|instance|search". The seed is not part of the key: it orders
// the instances but never changes one.
std::map<std::string, std::uint64_t> exactCounts(const std::string& workload,
                                                 const Round& round);
std::map<std::string, std::uint64_t> readCounts(const std::string& path);
void writeCounts(const std::string& path,
                 const std::map<std::string, std::uint64_t>& counts);

std::string jsonString(const std::string& s);

}  // namespace perfbench
