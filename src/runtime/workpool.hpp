#pragma once

// Workpools holding spawned search tasks within a locality.
//
// DepthPool is the bespoke *order-preserving* workpool of Section 4.3: tasks
// are bucketed by the search-tree depth at which they were spawned, FIFO
// within a bucket, handed out (a) heuristic-first within a depth
// (left-to-right order is preserved) and (b) big-subtree-first across depths
// (tasks near the root are expected to be the largest).
//
// DequePool is the conventional Cilk-style pool (LIFO local pop, FIFO steal)
// that the paper argues *breaks* heuristic search order; it is provided for
// the ablation benchmark.
//
// Steal-end semantics (intentional, per policy - steals are NOT pop
// aliases):
//
//   pool          local pop                  steal / stealMany
//   ------------  -------------------------  --------------------------------
//   DepthPool     shallowest bucket, FRONT;  shallowest bucket holding a
//                 at equal depth pinned      stealable task, BACK: thieves
//                 tasks go first             receive same-depth (hence large)
//                                            subtrees while the heuristic-
//                                            best tasks stay with the local
//                                            workers; a stolen chunk keeps
//                                            its relative FIFO order
//   DequePool     pinned tasks first, then   FRONT: the oldest tasks, closest
//                 back (LIFO) or front       to the root
//                 (FIFO) per constructor
//   PriorityPool  lowest sequence number,    lowest stealable sequence
//                 pinned or not              number; a stolen chunk is
//                                            handed out in ascending order
//   Sharded-      own shard's lowest, if     lowest stealable sequence number
//   PriorityPool  within the sequence        across all shards (always within
//                 window; else the lowest    the window); a chunk is handed
//                 across all shards, the     out in ascending sequence order
//                 pinned one included
//
// Two rules hold for every pool, so a remote steal can never ping-pong:
//
//   - The victim keeps half. stealChunk(policy) takes chunkSize(policy,
//     stealable) tasks under the same lock that takes them: one under `one`,
//     half the stealable tasks (at least one) under `all`.
//   - A received task is pinned. Tasks arriving in a remote steal reply go
//     in with pushPinned(): local pops hand them out like any other task,
//     but no steal ever does, so each task crosses the network at most once
//     and tasks moved <= tasks spawned holds by construction.
//
// Who calls what: local workers pop(); the engine's manager thread answers a
// remote kPoolStealRequest with stealChunk(Params::chunk) and pushes the
// thief's reply with pushPinned(). No policy may change a search result
// (tests/test_chunking.cpp).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/trace.hpp"
#include "util/thread_annotations.hpp"

namespace yewpar::rt {

enum class PoolPolicy {
  Depth,      // order-preserving depth pool (YewPar default)
  DequeLifo,  // LIFO local pop (standard work-stealing deque)
  DequeFifo,  // FIFO local pop (centralised queue behaviour)
  Priority,   // strict sequential-order priority pool (single global heap)
  PrioritySharded,  // per-worker heaps + sequence window (Ordered default)
};

// Sequence window value meaning "no window": any task may be handed out
// regardless of how far its sequence number runs ahead of the lowest
// outstanding one. This is the ShardedPriorityPool default.
inline constexpr std::uint64_t kNoSeqWindow = ~std::uint64_t{0};

// How many tasks a single steal reply carries (paper Section 4.2's chunking
// ablation). The same policy drives both steal protocols: pool steals
// (Depth-Bounded / Budget / Ordered victims hand out workpool tasks) and
// stack steals (Stack-Stealing victims split their generator stack).
enum class ChunkPolicy : std::uint8_t {
  One,  // one task per reply (the unchunked baseline)
  All,  // everything the victim can spare: half its stealable pool tasks,
        // or every unexplored sibling at the lowest generator-stack depth
};

// Tasks a pool steal takes from a victim holding `stealable` stealable
// tasks: the victim-keeps-half rule, decided here for every pool.
inline std::size_t chunkSize(ChunkPolicy p, std::size_t stealable) {
  if (stealable == 0) return 0;
  return p == ChunkPolicy::One ? 1 : std::max<std::size_t>(1, stealable / 2);
}

// Parse "one" | "all" (the `--chunk-policy` flag syntax). Throws
// std::invalid_argument on anything else.
inline ChunkPolicy parseChunkPolicy(const std::string& spec) {
  if (spec == "one") return ChunkPolicy::One;
  if (spec == "all") return ChunkPolicy::All;
  throw std::invalid_argument("unknown chunk policy: " + spec +
                              " (expected one|all)");
}

// LockGuard that counts contended acquisitions: a failed try_lock before
// the blocking lock means another thread held the mutex at that instant.
// The pools use it to expose lockContentions(), the mutex-hold pressure
// metric that bench/ablation_workpool compares across pool designs. The
// counter is relaxed - it is a diagnostic tally, not a synchronisation.
class SCOPED_CAPABILITY CountingLockGuard {
 public:
  CountingLockGuard(Mutex& m, std::atomic<std::uint64_t>& contentions)
      ACQUIRE(m)
      : m_(m) {
    if (!m_.try_lock()) {
      contentions.fetch_add(1, std::memory_order_relaxed);
      m_.lock();
    }
  }
  ~CountingLockGuard() RELEASE() { m_.unlock(); }

  CountingLockGuard(const CountingLockGuard&) = delete;
  CountingLockGuard& operator=(const CountingLockGuard&) = delete;

 private:
  Mutex& m_;
};

template <typename T>
class Workpool {
 public:
  virtual ~Workpool() = default;

  virtual void push(T task, int depth) = 0;
  virtual std::optional<T> pop() = 0;

  // Worker-attributed entry points. Sharding pools route on the worker id
  // (a task pushed by worker w lands in w's shard; w's pops hit only w's
  // shard lock); every other pool ignores the id and uses its single
  // structure. Pass -1 for unattributed callers (the manager thread pushing
  // a steal reply, the root task).
  virtual void push(T task, int depth, int /*worker*/) {
    push(std::move(task), depth);
  }
  virtual std::optional<T> pop(int /*worker*/) { return pop(); }

  // Contended lock acquisitions observed by this pool since construction
  // (0 for pools that do not track it). Monotone; read at any time.
  virtual std::uint64_t lockContentions() const { return 0; }

  // A task received in a remote steal reply: popped like any other task,
  // never handed out by a steal (see "a received task is pinned" above).
  virtual void pushPinned(T task, int depth) = 0;

  // Chunked steal: up to `k` stealable tasks in one hand-out, taken from the
  // policy's steal end (see the table above) and preserving the policy's
  // order among the returned tasks. Returns fewer (possibly zero) tasks when
  // the pool runs out of stealable tasks.
  virtual std::vector<T> stealMany(std::size_t k) = 0;

  // Policy-sized steal for a remote thief: chunkSize(policy, stealable
  // tasks) and the task grab happen under one lock.
  virtual std::vector<T> stealChunk(ChunkPolicy policy) = 0;

  // All tasks held, pinned ones included.
  virtual std::size_t size() const = 0;

  // Single-task steal: the k == 1 chunk.
  std::optional<T> steal() {
    auto chunk = stealMany(1);
    if (chunk.empty()) return std::nullopt;
    return std::move(chunk.front());
  }

  // Blocking pop with timeout, shared implementation. Lock order: waitMtx_
  // is held across the (internally locked) pop() calls, so waitMtx_ always
  // nests OUTSIDE the concrete pool's mtx_; push paths release mtx_ before
  // notifyWaiters() takes waitMtx_, so the two never invert.
  std::optional<T> popWait(std::chrono::microseconds timeout, int worker = -1)
      EXCLUDES(waitMtx_) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    UniqueLock lock(waitMtx_);
    while (true) {
      if (auto t = pop(worker)) return t;
      if (waitCv_.wait_until(lock.native(), deadline) ==
          std::cv_status::timeout) {
        return pop(worker);
      }
    }
  }

 protected:
  // Wake popWait sleepers after a push. The empty waitMtx_ critical section
  // is load-bearing: a consumer that found the pool empty still holds
  // waitMtx_ until its cv wait releases it, so acquiring the mutex here
  // guarantees the sleeper is actually inside the wait before the
  // notification fires. Notifying without it could land in the window
  // between the consumer's empty pop() and its sleep, costing a stall of up
  // to the full popWait timeout (the missed-wakeup defect found by the
  // annotation pass; regression-tested in test_runtime).
  void notifyWaiters() EXCLUDES(waitMtx_) {
    { LockGuard lock(waitMtx_); }
    waitCv_.notify_all();
  }

 private:
  Mutex waitMtx_;
  std::condition_variable waitCv_;
};

template <typename T>
class DepthPool final : public Workpool<T> {
 public:
  // Overriding the 2-arg signatures keeps the base's worker-attributed
  // overloads (which delegate to these) visible.
  using Workpool<T>::push;
  using Workpool<T>::pop;

  void push(T task, int depth) override { add(std::move(task), depth, false); }
  void pushPinned(T task, int depth) override {
    add(std::move(task), depth, true);
  }

  // Local pop: front of the shallowest bucket (heuristic-best first).
  std::optional<T> pop() override EXCLUDES(mtx_) {
    LockGuard lock(mtx_);
    for (auto it = buckets_.begin(); it != buckets_.end();) {
      Bucket& b = it->second;
      if (!b.pinned.empty()) return takeFront(b.pinned);
      if (!b.free.empty()) {
        --stealable_;
        return takeFront(b.free);
      }
      it = buckets_.erase(it);
    }
    return std::nullopt;
  }

  std::vector<T> stealMany(std::size_t k) override EXCLUDES(mtx_) {
    LockGuard lock(mtx_);
    return stealLocked(k);
  }

  std::vector<T> stealChunk(ChunkPolicy policy) override EXCLUDES(mtx_) {
    LockGuard lock(mtx_);
    return stealLocked(chunkSize(policy, stealable_));
  }

  std::size_t size() const override EXCLUDES(mtx_) {
    LockGuard lock(mtx_);
    return count_;
  }

 private:
  // One depth's tasks, FIFO each: received (pinned) and stealable ones.
  struct Bucket {
    std::deque<T> pinned;
    std::deque<T> free;
  };

  void add(T task, int depth, bool pinned) EXCLUDES(mtx_) {
    {
      LockGuard lock(mtx_);
      Bucket& b = buckets_[depth];
      (pinned ? b.pinned : b.free).push_back(std::move(task));
      ++count_;
      if (!pinned) ++stealable_;
    }
    this->notifyWaiters();
  }

  T takeFront(std::deque<T>& dq) REQUIRES(mtx_) {
    T t = std::move(dq.front());
    dq.pop_front();
    --count_;
    return t;
  }

  // Steal under mtx_: back of the shallowest stealable tasks - same depth
  // (hence comparably large subtrees) as a local pop would get, but the
  // heuristic-best front stays local. A chunk keeps its relative FIFO
  // order; when the shallowest bucket cannot fill it, the remainder comes
  // from the next deeper bucket.
  std::vector<T> stealLocked(std::size_t k) REQUIRES(mtx_) {
    std::vector<T> out;
    for (auto it = buckets_.begin(); it != buckets_.end() && out.size() < k;) {
      Bucket& b = it->second;
      const std::size_t take = std::min(k - out.size(), b.free.size());
      const auto first = b.free.end() - static_cast<std::ptrdiff_t>(take);
      out.insert(out.end(), std::make_move_iterator(first),
                 std::make_move_iterator(b.free.end()));
      b.free.erase(first, b.free.end());
      count_ -= take;
      stealable_ -= take;
      it = b.pinned.empty() && b.free.empty() ? buckets_.erase(it)
                                              : std::next(it);
    }
    return out;
  }

  mutable Mutex mtx_;
  // Ordered by depth, shallow first.
  std::map<int, Bucket> buckets_ GUARDED_BY(mtx_);
  std::size_t count_ GUARDED_BY(mtx_) = 0;
  std::size_t stealable_ GUARDED_BY(mtx_) = 0;
};

template <typename T>
class DequePool final : public Workpool<T> {
 public:
  using Workpool<T>::push;
  using Workpool<T>::pop;

  explicit DequePool(bool lifoLocal) : lifoLocal_(lifoLocal) {}

  void push(T task, int /*depth*/) override { add(std::move(task), false); }
  void pushPinned(T task, int /*depth*/) override {
    add(std::move(task), true);
  }

  std::optional<T> pop() override EXCLUDES(mtx_) {
    LockGuard lock(mtx_);
    std::deque<T>& dq = pinned_.empty() ? q_ : pinned_;
    if (dq.empty()) return std::nullopt;
    T t;
    if (lifoLocal_) {
      t = std::move(dq.back());
      dq.pop_back();
    } else {
      t = std::move(dq.front());
      dq.pop_front();
    }
    return t;
  }

  std::vector<T> stealMany(std::size_t k) override EXCLUDES(mtx_) {
    LockGuard lock(mtx_);
    return stealLocked(k);
  }

  std::vector<T> stealChunk(ChunkPolicy policy) override EXCLUDES(mtx_) {
    LockGuard lock(mtx_);
    return stealLocked(chunkSize(policy, q_.size()));
  }

  std::size_t size() const override EXCLUDES(mtx_) {
    LockGuard lock(mtx_);
    return q_.size() + pinned_.size();
  }

 private:
  void add(T task, bool pinned) EXCLUDES(mtx_) {
    {
      LockGuard lock(mtx_);
      (pinned ? pinned_ : q_).push_back(std::move(task));
    }
    this->notifyWaiters();
  }

  // Steal under mtx_: the oldest stealable tasks (closest to the root),
  // oldest first.
  std::vector<T> stealLocked(std::size_t k) REQUIRES(mtx_) {
    std::vector<T> out;
    const std::size_t take = std::min(k, q_.size());
    out.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      out.push_back(std::move(q_.front()));
      q_.pop_front();
    }
    return out;
  }

  mutable Mutex mtx_;
  std::deque<T> q_ GUARDED_BY(mtx_);
  std::deque<T> pinned_ GUARDED_BY(mtx_);
  bool lifoLocal_;
};

// Priority pool used by the Ordered skeleton: tasks carry a sequence number
// (their position in the Sequential skeleton's traversal order) and are
// always handed out lowest-sequence-first, by local pops and steals alike.
// This is the strongest form of heuristic-order preservation: the task
// execution order is a prefix-parallelisation of the sequential order, the
// key ingredient of replicable branch-and-bound (paper Section 2.1's
// anomaly discussion and ref [4]). A chunked steal hands out the k lowest
// sequence numbers in ascending order, so a thief replaying the chunk
// through its own priority pool preserves the global order.
template <typename T>
  requires requires(T t) { t.seq; }
class PriorityPool final : public Workpool<T> {
 public:
  using Workpool<T>::push;
  using Workpool<T>::pop;

  void push(T task, int /*depth*/) override { add(std::move(task), false); }
  void pushPinned(T task, int /*depth*/) override {
    add(std::move(task), true);
  }

  // The lower of the two heap tops, pinned or not.
  std::optional<T> pop() override EXCLUDES(mtx_) {
    CountingLockGuard lock(mtx_, contentions_);
    if (heap_.empty() && pinned_.empty()) return std::nullopt;
    const bool pinnedFirst =
        heap_.empty() ||
        (!pinned_.empty() && pinned_.front().seq < heap_.front().seq);
    return takeTop(pinnedFirst ? pinned_ : heap_);
  }

  std::vector<T> stealMany(std::size_t k) override EXCLUDES(mtx_) {
    CountingLockGuard lock(mtx_, contentions_);
    return stealLocked(k);
  }

  std::vector<T> stealChunk(ChunkPolicy policy) override EXCLUDES(mtx_) {
    CountingLockGuard lock(mtx_, contentions_);
    return stealLocked(chunkSize(policy, heap_.size()));
  }

  std::size_t size() const override EXCLUDES(mtx_) {
    LockGuard lock(mtx_);
    return heap_.size() + pinned_.size();
  }

  // Contended acquisitions on the one global mutex, across every task
  // operation (size() telemetry reads are excluded so both priority pools
  // count the same thing: task-path pressure).
  std::uint64_t lockContentions() const override {
    return contentions_.load(std::memory_order_relaxed);
  }

 private:
  static bool cmp(const T& a, const T& b) { return a.seq > b.seq; }

  void add(T task, bool pinned) EXCLUDES(mtx_) {
    {
      CountingLockGuard lock(mtx_, contentions_);
      std::vector<T>& heap = pinned ? pinned_ : heap_;
      heap.push_back(std::move(task));
      std::push_heap(heap.begin(), heap.end(), cmp);
    }
    this->notifyWaiters();
  }

  std::vector<T> stealLocked(std::size_t k) REQUIRES(mtx_) {
    std::vector<T> out;
    const std::size_t take = std::min(k, heap_.size());
    out.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      out.push_back(takeTop(heap_));
    }
    return out;
  }

  // Caller holds mtx_ and guarantees the heap is non-empty.
  T takeTop(std::vector<T>& heap) REQUIRES(mtx_) {
    std::pop_heap(heap.begin(), heap.end(), cmp);
    T t = std::move(heap.back());
    heap.pop_back();
    return t;
  }

  mutable Mutex mtx_;
  std::vector<T> heap_ GUARDED_BY(mtx_);
  std::vector<T> pinned_ GUARDED_BY(mtx_);
  mutable std::atomic<std::uint64_t> contentions_{0};
};

// Sharded ordered pool: the scaling fix for the PriorityPool's single global
// mutex (the Ordered skeleton's wall beyond ~8 workers) that keeps the
// prefix-parallelisation property the paper's replicability argument rests
// on. Structure:
//
//   - one min-heap *shard* per engine worker, each under its own mutex. A
//     task pushed by worker w lands in shard w % nShards, so w's local pops
//     normally touch only w's shard lock. Unattributed pushes (worker < 0:
//     the root task and the Ordered skeleton's bulk prefix expansion - all
//     spawned by one thread) round-robin across shards to spread the
//     initial frontier. Pinned tasks (remote steal replies) live in one
//     extra shard that pops see and steals skip.
//   - each shard *publishes* its current minimum sequence number in an
//     atomic (kNoSeqWindow when empty), written under the shard lock on
//     every heap change. The *low-water mark* - the lowest outstanding seq
//     across the pool - is the min over these published values, computed by
//     an O(shards) scan of relaxed-cost atomic loads, no locks.
//   - the *sequence window* bounds run-ahead: a local pop may take its own
//     shard's top only if top.seq <= lowWater + window (saturating).
//     Otherwise - and for every steal - the pool hands out the globally
//     lowest published task (lock one shard, re-verify, bounded retries;
//     steals skip the pinned shard).
//     The global minimum is by definition within any window, so a pop on a
//     non-empty pool always yields a task: the window shapes WHICH task
//     runs next, never whether one runs (no starvation, window=0 included).
//
// Degenerate configurations are the test oracles (tests/test_ordered.cpp):
// window=kNoSeqWindow never rejects a local top, so the pool behaves like
// per-worker heaps with min-seeking steals and search results must be
// byte-identical to the global PriorityPool; window=0 forces every pop to
// the global minimum, i.e. near-sequential order.
//
// Concurrency caveat (documented, benign): the low-water scan is not
// atomic with the subsequent take, so under concurrent pushes of *lower*
// sequence numbers (remote steal replies) a task can be handed out that a
// later scan would have called ineligible. The window is a run-ahead bound
// against the state observed at pop time - exact in any quiescent or
// single-consumer interval - not a serialized global invariant; replicable
// search needs only the hand-out *preference* for low sequence numbers,
// which every path here preserves.
template <typename T>
  requires requires(T t) { t.seq; }
class ShardedPriorityPool final : public Workpool<T> {
 public:
  explicit ShardedPriorityPool(int shards = 1,
                               std::uint64_t window = kNoSeqWindow,
                               int traceRank = 0)
      : nShards_(shards > 0 ? shards : 1),
        window_(window),
        traceRank_(traceRank) {
    // One more shard than routing uses: the last holds the pinned tasks.
    for (int i = 0; i <= nShards_; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  int shardCount() const { return nShards_; }
  std::uint64_t window() const { return window_; }

  // Lowest outstanding sequence number across all shards (kNoSeqWindow when
  // the pool is empty). Lock-free scan of the published per-shard minima;
  // the cached copy is refreshed as a side effect so telemetry can read
  // lastLowWaterMark() without rescanning.
  std::uint64_t lowWaterMark() const {
    std::uint64_t lw = kNoSeqWindow;
    for (const auto& s : shards_) {
      lw = std::min(lw, s->minSeq.load(std::memory_order_acquire));
    }
    lowWater_.store(lw, std::memory_order_relaxed);
    return lw;
  }
  std::uint64_t lastLowWaterMark() const {
    return lowWater_.load(std::memory_order_relaxed);
  }

  void push(T task, int depth, int worker) override {
    const int shard = worker >= 0
                          ? worker % shardCount()
                          : static_cast<int>(
                                rr_.fetch_add(1, std::memory_order_relaxed) %
                                static_cast<std::uint64_t>(shardCount()));
    (void)depth;
    pushTo(shard, std::move(task));
  }
  void push(T task, int depth) override { push(std::move(task), depth, -1); }
  void pushPinned(T task, int /*depth*/) override {
    pushTo(nShards_, std::move(task));
  }

  std::optional<T> pop(int worker) override {
    if (worker >= 0) {
      Shard& own = *shards_[static_cast<std::size_t>(worker % shardCount())];
      // Fast path: the owner's shard top, if within the window. One lock.
      std::optional<T> t = popOwn(own);
      if (t) {
        trace::record(trace::Ev::kShardPop, traceRank_,
                      static_cast<std::uint64_t>(worker % shardCount()),
                      t->seq);
        return t;
      }
    }
    std::optional<T> t = popMin(/*withPinned=*/true);
    if (t) {
      trace::record(trace::Ev::kShardPop, traceRank_,
                    static_cast<std::uint64_t>(lastTakenShard_.load(
                        std::memory_order_relaxed)),
                    t->seq);
    }
    return t;
  }
  std::optional<T> pop() override { return pop(-1); }

  // Steals always take the globally lowest published stealable task, one
  // shard lock per task; a chunk is sorted ascending before hand-out so a thief
  // replaying it through its own pool preserves the global order even when
  // concurrent pushes interleave lower sequence numbers mid-grab.
  std::vector<T> stealMany(std::size_t k) override {
    std::vector<T> out;
    out.reserve(std::min(k, size()));
    while (out.size() < k) {
      auto t = popMin(/*withPinned=*/false);
      if (!t) break;
      trace::record(trace::Ev::kShardSteal, traceRank_,
                    static_cast<std::uint64_t>(
                        lastTakenShard_.load(std::memory_order_relaxed)),
                    t->seq);
      out.push_back(std::move(*t));
    }
    std::sort(out.begin(), out.end(),
              [](const T& a, const T& b) { return a.seq < b.seq; });
    return out;
  }

  std::vector<T> stealChunk(ChunkPolicy policy) override {
    // Unlike the single-mutex pools there is no one lock to size under;
    // the atomic counts are the occupancy snapshot, so the half is
    // approximate while other threads push and pop.
    const std::size_t all = size();
    const std::size_t pinned = pinned_.load(std::memory_order_acquire);
    return stealMany(chunkSize(policy, all > pinned ? all - pinned : 0));
  }

  std::size_t size() const override {
    return count_.load(std::memory_order_acquire);
  }

  // Contended shard-lock acquisitions, summed over all shards.
  std::uint64_t lockContentions() const override {
    return contentions_.load(std::memory_order_relaxed);
  }

 private:
  struct Shard {
    mutable Mutex mtx;
    std::vector<T> heap GUARDED_BY(mtx);
    // Published copy of heap.front().seq (kNoSeqWindow when empty), stored
    // under mtx on every heap change, read lock-free by the low-water scan.
    std::atomic<std::uint64_t> minSeq{kNoSeqWindow};
  };

  static bool cmp(const T& a, const T& b) { return a.seq > b.seq; }

  // seq is eligible against low-water mark lw under this pool's window.
  bool eligible(std::uint64_t seq, std::uint64_t lw) const {
    if (window_ == kNoSeqWindow) return true;
    if (lw == kNoSeqWindow) return true;  // nothing else outstanding
    const std::uint64_t limit =
        lw + window_ >= lw ? lw + window_ : kNoSeqWindow;  // saturate
    return seq <= limit;
  }

  void pushTo(int shard, T task) {
    Shard& s = *shards_[static_cast<std::size_t>(shard)];
    const std::uint64_t seq = task.seq;
    {
      CountingLockGuard lock(s.mtx, contentions_);
      s.heap.push_back(std::move(task));
      std::push_heap(s.heap.begin(), s.heap.end(), cmp);
      s.minSeq.store(s.heap.front().seq, std::memory_order_release);
    }
    if (shard == nShards_) pinned_.fetch_add(1, std::memory_order_release);
    count_.fetch_add(1, std::memory_order_release);
    trace::record(trace::Ev::kShardPush, traceRank_,
                  static_cast<std::uint64_t>(shard), seq);
    this->notifyWaiters();
  }

  // Owner fast path: take own's top if eligible. Scans the published minima
  // only when the window is finite (window=kNoSeqWindow skips straight to
  // the take); takes own's lock exactly once either way.
  std::optional<T> popOwn(Shard& own) {
    const std::uint64_t lw =
        window_ == kNoSeqWindow ? kNoSeqWindow : lowWaterMark();
    CountingLockGuard lock(own.mtx, contentions_);
    if (own.heap.empty()) return std::nullopt;
    if (!eligible(own.heap.front().seq, lw)) return std::nullopt;
    return takeTopLocked(own);
  }

  // Global-minimum pop: scan the published minima, lock the argmin shard,
  // re-verify, retry if it drained between scan and lock. The retry loop
  // terminates: each retry means another consumer took a task, and a pass
  // over all shards finding every published minimum empty means the pool
  // was observably empty at that instant. Steals leave out the pinned shard.
  std::optional<T> popMin(bool withPinned) {
    const int scan = withPinned ? nShards_ + 1 : nShards_;
    while (true) {
      int best = -1;
      std::uint64_t bestSeq = kNoSeqWindow;
      for (int i = 0; i < scan; ++i) {
        const std::uint64_t m =
            shards_[static_cast<std::size_t>(i)]->minSeq.load(
                std::memory_order_acquire);
        if (m < bestSeq) {
          bestSeq = m;
          best = i;
        }
      }
      if (best < 0) return std::nullopt;  // every shard published empty
      Shard& s = *shards_[static_cast<std::size_t>(best)];
      CountingLockGuard lock(s.mtx, contentions_);
      if (s.heap.empty()) continue;  // drained between scan and lock
      lastTakenShard_.store(best, std::memory_order_relaxed);
      return takeTopLocked(s);
    }
  }

  // Caller holds s.mtx and guarantees the heap is non-empty.
  T takeTopLocked(Shard& s) REQUIRES(s.mtx) {
    std::pop_heap(s.heap.begin(), s.heap.end(), cmp);
    T t = std::move(s.heap.back());
    s.heap.pop_back();
    s.minSeq.store(s.heap.empty() ? kNoSeqWindow : s.heap.front().seq,
                   std::memory_order_release);
    if (&s == shards_.back().get()) {
      pinned_.fetch_sub(1, std::memory_order_release);
    }
    count_.fetch_sub(1, std::memory_order_release);
    return t;
  }

  const int nShards_;  // routing shards; shards_[nShards_] is the pinned one
  std::vector<std::unique_ptr<Shard>> shards_;  // set in ctor, then const
  const std::uint64_t window_;
  const int traceRank_;
  std::atomic<std::uint64_t> rr_{0};       // round-robin for worker < 0
  std::atomic<std::size_t> count_{0};      // total tasks across shards
  std::atomic<std::size_t> pinned_{0};     // tasks in the pinned shard
  mutable std::atomic<std::uint64_t> lowWater_{kNoSeqWindow};
  mutable std::atomic<std::uint64_t> contentions_{0};
  // Shard index of the last popMin take, for trace attribution only (racy
  // between concurrent consumers; a trace label, not a protocol input).
  std::atomic<int> lastTakenShard_{0};
};

// Construction-time pool configuration beyond the policy choice. Only the
// sharded priority pool reads it today; other pools ignore it.
struct PoolConfig {
  int shards = 1;                          // ShardedPriorityPool shard count
  std::uint64_t seqWindow = kNoSeqWindow;  // sequence window (default: off)
  int traceRank = 0;  // locality id stamped on pool trace events
};

template <typename T>
std::unique_ptr<Workpool<T>> makeWorkpool(PoolPolicy p,
                                          const PoolConfig& cfg = {}) {
  switch (p) {
    case PoolPolicy::DequeLifo: return std::make_unique<DequePool<T>>(true);
    case PoolPolicy::DequeFifo: return std::make_unique<DequePool<T>>(false);
    case PoolPolicy::Priority:
      if constexpr (requires(T t) { t.seq; }) {
        return std::make_unique<PriorityPool<T>>();
      } else {
        // Deliberately a runtime error, not a static_assert: the policy is
        // a runtime switch, so every branch is instantiated for every task
        // type. Silently substituting a DepthPool here (the old behaviour)
        // hid misconfigurations that voided the ordering guarantee.
        throw std::invalid_argument(
            "PoolPolicy::Priority requires a task type with a .seq member");
      }
    case PoolPolicy::PrioritySharded:
      if constexpr (requires(T t) { t.seq; }) {
        return std::make_unique<ShardedPriorityPool<T>>(
            cfg.shards, cfg.seqWindow, cfg.traceRank);
      } else {
        throw std::invalid_argument(
            "PoolPolicy::PrioritySharded requires a task type with a .seq "
            "member");
      }
    case PoolPolicy::Depth: default: return std::make_unique<DepthPool<T>>();
  }
}

}  // namespace yewpar::rt
