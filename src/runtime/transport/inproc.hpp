#pragma once

// In-process transport backend connecting simulated localities.
//
// This is the distributed-memory substitution described in
// docs/ARCHITECTURE.md ("Transport layer"): the paper runs YewPar over HPX
// on a Beowulf cluster; this backend runs N localities inside one process,
// but all inter-locality communication goes through the Transport interface
// as serialized byte messages.
//
// Since the shaping layers moved to transport/shaping.hpp (so the TCP
// backend shares them), this file holds two pieces:
//
//   * InProcFabric - the bare simulated wire. One bounded-FIFO in-flight
//     queue per directed (src, dst) link, with a per-message delivery delay
//     sampled from NetConfig::delay (seeded per link, so runs are
//     reproducible). Delivery per link stays FIFO, like a TCP stream: each
//     message's delivery time is clamped to be no earlier than its link
//     predecessor's. The fabric does no batching and no back-pressure and
//     keeps no traffic counters - that is all ShapedTransport's job.
//   * InProcTransport - the facade the engine and tests construct: an
//     InProcFabric wrapped in a ShapedTransport, preserving the historical
//     behaviour (send-buffer batch flush, bounded in-flight queues with
//     shed-to-spill, per-link counters) with the shaping logic now backend-
//     generic.
//
// Self-sends (src == dst, e.g. the manager shutdown nudge) are loopback:
// they bypass the delay model here and bypass batching/caps in the shaper.
//
// Receivers drive the clock: the shaper's tryRecv/recvWait flush overdue
// batches and promote spilled messages, then poll the fabric, whose own
// receive path pops messages whose modelled delay has matured.

#include <array>
#include <atomic>
#include <condition_variable>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/message.hpp"
#include "runtime/metrics.hpp"
#include "runtime/transport/shaping.hpp"
#include "runtime/transport/transport.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"

namespace yewpar::rt {

// The bare simulated wire: per-link delivery delay + FIFO, nothing else.
// Constructed inside InProcTransport; tests wanting batching/back-pressure
// semantics go through the facade (or wrap a fabric themselves).
class InProcFabric : public Transport {
 public:
  explicit InProcFabric(int nLocalities, NetConfig cfg = NetConfig{});

  int size() const override { return n_; }

  // Stamp a delivery time and queue on the (src, dst) link. Thread-safe,
  // never blocks. Loopback messages skip the delay model entirely.
  void send(Message m) override;

  // A flushed batch enters the link under one lock acquisition, each
  // message with its own sampled delay (the FIFO floor keeps the batch in
  // order). The fabric has real per-message delivery machinery, so the
  // batched-frame container the default implementation would build is
  // pointless indirection here.
  void sendFrame(std::vector<Message> frame) override;

  // Non-blocking receive; nothing if no message's delay has matured.
  std::optional<Message> tryRecv(int loc) override;

  // Blocking receive with timeout. Wakes for new sends and for the next
  // queued delivery maturing.
  std::optional<Message> recvWait(int loc,
                                  std::chrono::microseconds timeout) override;

  // Traffic accounting lives in the ShapedTransport wrapper; the bare
  // fabric reports nothing.
  std::uint64_t messagesSent() const override { return 0; }
  std::uint64_t bytesSent() const override { return 0; }
  std::uint64_t framesSent() const override { return 0; }

  // Instantaneous depths for the sampler and for the shaper's queue cap:
  // messages whose delay has not yet matured (plus undelivered matured
  // ones) count as in flight on their link.
  std::uint64_t queuedMessagesNow() const override;
  std::uint64_t maxLinkQueueNow() const override;
  std::uint64_t linkBacklogNow(int src, int dst) const override;

  // Modelled-delay histogram summed over links: bucket i counts messages
  // whose sampled delay plus FIFO clamp fell in [2^(i-1), 2^i)
  // microseconds, bucket 0 being < 1us (rt::netLatencyBucketFor). The
  // shaper adds its congestion-wait samples on top.
  std::array<std::uint64_t, kNetLatencyBuckets> latencyHistogram()
      const override;

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    Clock::time_point deliverAt;
    Message msg;
  };

  // One directed (src, dst) link: delay-stamped in-flight queue.
  struct Link {
    mutable Mutex mtx;
    std::deque<Pending> queue GUARDED_BY(mtx);
    // Monotone delivery floor keeping the link FIFO under random
    // per-message delays.
    Clock::time_point fifoFloor GUARDED_BY(mtx){};
    Rng delayRng GUARDED_BY(mtx);
    std::array<std::uint64_t, kNetLatencyBuckets> latency GUARDED_BY(mtx){};
  };

  // Receivers block here; senders bump `version` under mtx on every send
  // so a delivery between a poll and the wait cannot be missed.
  struct Inbox {
    Mutex mtx;
    std::condition_variable cv;
    std::uint64_t version GUARDED_BY(mtx) = 0;
    // Round-robin scan start so one chatty link cannot starve the others.
    int nextSrc GUARDED_BY(mtx) = 0;
  };

  Link& link(int src, int dst) {
    return *links_[static_cast<std::size_t>(src) *
                       static_cast<std::size_t>(n_) +
                   static_cast<std::size_t>(dst)];
  }
  const Link& link(int src, int dst) const {
    return *links_[static_cast<std::size_t>(src) *
                       static_cast<std::size_t>(n_) +
                   static_cast<std::size_t>(dst)];
  }

  // Stamp a delivery time and append to the in-flight queue; caller holds
  // l.mtx.
  void enqueueLocked(Link& l, Message m, Clock::time_point now)
      REQUIRES(l.mtx);

  // Pop the first deliverable message in round-robin link order.
  std::optional<Message> pollNow(int loc, Clock::time_point now);

  // Earliest future delivery on the links into `loc`;
  // Clock::time_point::max() when idle.
  Clock::time_point nextEventTime(int loc);

  void notifyInbox(int dst);

  int n_;
  NetConfig cfg_;
  std::vector<std::unique_ptr<Link>> links_;    // n_ * n_, row-major by src
  std::vector<std::unique_ptr<Inbox>> inboxes_;
};

// The simulated backend as the rest of the runtime sees it: a shaped
// fabric. Everything forwards to the ShapedTransport member, which owns the
// batching/back-pressure/counter behaviour documented in shaping.hpp.
class InProcTransport : public Transport {
 public:
  explicit InProcTransport(int nLocalities, NetConfig cfg = NetConfig{})
      : fabric_(nLocalities, cfg), shaper_(fabric_, cfg) {}

  // Convenience: a fixed one-way latency on every link and no
  // batching/back-pressure.
  InProcTransport(int nLocalities, double delayMicros)
      : InProcTransport(nLocalities, [&] {
          NetConfig c;
          if (delayMicros > 0) {
            c.delay = DelayModel{DelayModel::Kind::Fixed, delayMicros, 0.0};
          }
          return c;
        }()) {}

  int size() const override { return shaper_.size(); }
  const NetConfig& config() const { return shaper_.config(); }

  void send(Message m) override { shaper_.send(std::move(m)); }
  void broadcast(int src, int tagId,
                 const std::vector<std::uint8_t>& payload) override {
    shaper_.broadcast(src, tagId, payload);
  }
  void sendFrame(std::vector<Message> frame) override {
    shaper_.sendFrame(std::move(frame));
  }
  void flushAll() override { shaper_.flushAll(); }
  void shutdown() override { shaper_.shutdown(); }

  std::optional<Message> tryRecv(int loc) override {
    return shaper_.tryRecv(loc);
  }
  std::optional<Message> recvWait(
      int loc, std::chrono::microseconds timeout) override {
    return shaper_.recvWait(loc, timeout);
  }

  std::uint64_t messagesSent() const override {
    return shaper_.messagesSent();
  }
  std::uint64_t bytesSent() const override { return shaper_.bytesSent(); }
  std::uint64_t framesSent() const override { return shaper_.framesSent(); }
  std::uint64_t batchedMessages() const override {
    return shaper_.batchedMessages();
  }
  std::uint64_t immediateMessages() const override {
    return shaper_.immediateMessages();
  }
  std::uint64_t spilledMessages() const override {
    return shaper_.spilledMessages();
  }
  std::size_t queueHighWater() const override {
    return shaper_.queueHighWater();
  }
  std::uint64_t queuedMessagesNow() const override {
    return shaper_.queuedMessagesNow();
  }
  std::uint64_t maxLinkQueueNow() const override {
    return shaper_.maxLinkQueueNow();
  }
  std::uint64_t linkBacklogNow(int src, int dst) const override {
    return shaper_.linkBacklogNow(src, dst);
  }
  std::array<std::uint64_t, kNetLatencyBuckets> latencyHistogram()
      const override {
    return shaper_.latencyHistogram();
  }

  // Per-link view for tests and the network ablation.
  using LinkStats = ShapedTransport::LinkStats;
  LinkStats linkStats(int src, int dst) const {
    return shaper_.linkStats(src, dst);
  }

 private:
  // Declaration order matters: the shaper wraps the fabric, so the fabric
  // must outlive it (constructed first, destroyed last).
  InProcFabric fabric_;
  ShapedTransport shaper_;
};

}  // namespace yewpar::rt
