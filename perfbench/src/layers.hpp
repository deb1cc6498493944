#pragma once

// The traced run's per-layer phase: direct calls into single layers, timed
// from outside, with inputs drawn from the workload's own nodes and the
// steal-reply sizes its searches produced.
//
// Every buffer, pool, ring and transport is built outside the timed region;
// only the named operation is inside it. The archive and transport timings
// run at three reply sizes (1 task, the workload's mean tasks per reply but
// at least 16, and 4x that) and growsWithSize records whether time rose
// with size at every step - a timing that does not is measuring something
// else.

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <vector>

#include "apps/maxclique/graph.hpp"
#include "apps/maxclique/maxclique.hpp"
#include "bench.hpp"
#include "runtime/message.hpp"
#include "runtime/transport/inproc.hpp"
#include "runtime/workpool.hpp"
#include "util/archive.hpp"
#include "util/stats.hpp"

namespace perfbench {

// Mean tasks carried per successful steal reply over the YewPar searches
// of `rounds` (0 when no search stole anything).
double tasksPerReply(const std::vector<Round>& rounds);

// ns per greedyColour call over the candidate sets of `nodes`; node i
// belongs to graph graphOf[i].
double probeGreedyColourNs(const std::vector<const apps::Graph*>& graphOf,
                           const std::vector<apps::mc::Node>& nodes);

// ns per trace::record() call with the trace session disarmed.
double probeRecordDisabledNs();

// Median ms of a root-only search (a UTS tree cut at depth 0) on a layout.
enum class EmptyLayout { Sequential, DepthBounded, Ordered };
double emptySearchMs(EmptyLayout skel, int localities, int workers);

// probeGreedyColourNs on the root's children of a reference Table 1 graph
// (brock-like-1), for workloads that do not colour graphs themselves (it
// should stay flat there). Defined with the graphs, in clique.cpp.
double referenceGreedyColourNs();

// Repeat fn() until at least `minNs` have passed (and at least once);
// return ns per call. Each call's setup happens inside fn's caller.
template <typename F>
double nsPerCall(std::uint64_t minNs, F&& fn) {
  std::uint64_t calls = 0, spent = 0;
  while (spent < minNs || calls == 0) {
    const std::uint64_t t0 = nowNs();
    fn();
    spent += nowNs() - t0;
    ++calls;
  }
  return static_cast<double>(spent) / static_cast<double>(calls);
}

// The engine's steal reply, field for field (token, then the task chunk),
// so encoding it costs what the engine pays per reply.
template <typename Node>
struct ReplyMsg {
  std::int64_t token = 0;
  std::vector<yewpar::detail::EngineTask<Node>> tasks;

  void save(OArchive& a) const { a << token << tasks; }
  void load(IArchive& a) { a >> token >> tasks; }
};

template <typename Node>
void probeRuntimeLayers(LayerTimings& lt, const std::vector<Node>& sample,
                        double meanTasksPerReply, int workers) {
  using Task = yewpar::detail::EngineTask<Node>;
  constexpr std::uint64_t kMinNs = 20'000'000;  // per timed measurement
  const std::size_t n = std::max<std::size_t>(sample.size(), 1);

  std::vector<Task> tasks;  // the pool inputs, seq in traversal order
  tasks.reserve(n);
  for (std::size_t i = 0; i < sample.size(); ++i) {
    tasks.push_back(Task{sample[i], static_cast<std::int32_t>(i % 4),
                         static_cast<std::uint64_t>(i)});
  }

  // DepthPool push + pop: the LIFO-bucket pool the engine uses by default.
  {
    rt::DepthPool<Task> pool;
    std::vector<Task> batch;
    std::vector<std::optional<Task>> popped;
    std::vector<double> perTask;
    for (int rep = 0; rep < 9; ++rep) {
      batch = tasks;
      popped.clear();
      popped.reserve(batch.size());
      const std::uint64_t t0 = nowNs();
      for (auto& t : batch) {
        const int depth = t.depth;
        pool.push(std::move(t), depth);
      }
      while (auto t = pool.pop()) popped.push_back(std::move(t));
      perTask.push_back(static_cast<double>(nowNs() - t0) /
                        static_cast<double>(batch.size()));
    }
    lt.pushPopNs = median(perTask);
  }

  // DepthPool stealMany(k) with k = the workload's mean reply size.
  const auto k = static_cast<std::size_t>(
      std::max(1.0, std::round(meanTasksPerReply)));
  {
    rt::DepthPool<Task> pool;
    std::vector<std::vector<Task>> chunks;
    std::uint64_t spent = 0, calls = 0;
    while (spent < kMinNs || calls == 0) {
      for (const auto& t : tasks) pool.push(t, t.depth);
      chunks.clear();
      chunks.reserve(tasks.size() / k + 1);
      const std::uint64_t t0 = nowNs();
      while (pool.size() > 0) chunks.push_back(pool.stealMany(k));
      spent += nowNs() - t0;
      calls += chunks.size();
    }
    lt.stealManyNs = static_cast<double>(spent) / static_cast<double>(calls);
  }

  // ShardedPriorityPool push + pop: the Ordered skeleton's pool, one shard
  // per worker, pushes and pops spread over the workers' shards.
  {
    rt::ShardedPriorityPool<Task> pool(std::max(workers, 1));
    std::vector<Task> batch;
    std::vector<std::optional<Task>> popped;
    std::vector<double> perTask;
    for (int rep = 0; rep < 9; ++rep) {
      batch = tasks;
      popped.clear();
      popped.reserve(batch.size());
      const std::uint64_t t0 = nowNs();
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const int depth = batch[i].depth;
        pool.push(std::move(batch[i]), depth,
                  static_cast<int>(i % static_cast<std::size_t>(workers)));
      }
      for (std::size_t i = 0; i < batch.size(); ++i) {
        popped.push_back(
            pool.pop(static_cast<int>(i % static_cast<std::size_t>(workers))));
      }
      perTask.push_back(static_cast<double>(nowNs() - t0) /
                        static_cast<double>(batch.size()));
    }
    lt.shardedPushPopNs = median(perTask);
  }

  // Archive encode/decode and the steal round trip at three reply sizes.
  const std::size_t base = std::max<std::size_t>(k, 16);
  lt.replyTasks = {1, base, 4 * base};
  rt::InProcTransport net(2);
  for (const std::size_t size : lt.replyTasks) {
    ReplyMsg<Node> reply;
    reply.token = 42;
    for (std::size_t i = 0; i < size; ++i) reply.tasks.push_back(tasks[i % n]);
    const auto bytes = toBytes(reply);
    lt.replyBytes.push_back(bytes.size());

    lt.encodeNs.push_back(nsPerCall(kMinNs, [&] {
      auto b = toBytes(reply);
      if (b.size() != bytes.size()) throw std::runtime_error("encode size");
    }));

    // fromBytes consumes its buffer: copy the inputs outside the clock.
    std::vector<std::vector<std::uint8_t>> copies;
    std::uint64_t spent = 0, calls = 0;
    while (spent < kMinNs || calls == 0) {
      copies.assign(64, bytes);
      const std::uint64_t t0 = nowNs();
      for (auto& c : copies) {
        auto r = fromBytes<ReplyMsg<Node>>(std::move(c));
        if (r.tasks.size() != size) throw std::runtime_error("decode size");
      }
      spent += nowNs() - t0;
      calls += copies.size();
    }
    lt.decodeNs.push_back(static_cast<double>(spent) /
                          static_cast<double>(calls));

    // One steal round trip on the simulated transport, single-threaded so
    // no wake-up latency is timed: the victim encodes and sends the reply,
    // the thief receives and decodes it and acknowledges with its token.
    lt.roundtripNs.push_back(nsPerCall(kMinNs, [&] {
      net.send(rt::Message{0, 1, rt::tag::kUser, toBytes(reply)});
      auto m = net.recvWait(1, std::chrono::seconds(1));
      if (!m) throw std::runtime_error("transport: reply lost");
      auto r = fromBytes<ReplyMsg<Node>>(std::move(m->payload));
      net.send(rt::Message{1, 0, rt::tag::kUser + 1, toBytes(r.token)});
      if (!net.recvWait(0, std::chrono::seconds(1))) {
        throw std::runtime_error("transport: ack lost");
      }
    }));
  }
  net.shutdown();

  for (std::size_t i = 1; i < lt.replyTasks.size(); ++i) {
    if (!(lt.encodeNs[i] > lt.encodeNs[i - 1] &&
          lt.decodeNs[i] > lt.decodeNs[i - 1] &&
          lt.roundtripNs[i] > lt.roundtripNs[i - 1])) {
      lt.growsWithSize = false;
    }
  }
  // Report at the workload's own reply size (index 1).
  const double kb = static_cast<double>(lt.replyBytes[1]) / 1024.0;
  lt.encodeNsPerKb = lt.encodeNs[1] / kb;
  lt.decodeNsPerKb = lt.decodeNs[1] / kb;
  lt.roundtripUs = lt.roundtripNs[1] / 1000.0;
  lt.recordDisabledNs = probeRecordDisabledNs();
}

}  // namespace perfbench
