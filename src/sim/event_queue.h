// Discrete-event scheduler core.
//
// Allocation-free in steady state: callbacks live in InlineCallback slots
// (fixed inline capture storage, no heap fallback), slots are recycled
// through an intrusive free list, and pending events live in one of two
// structures keyed on (time, sequence):
//
//  * a hierarchical timer wheel (sim/timer_wheel.h) for everything within
//    ~68 ms of the wheel cursor — O(1) per event, which is nearly every
//    event a simulation schedules (serializations, propagations, DCQCN
//    timers, retransmission timeouts);
//  * a 4-ary min-heap of 32-byte entries for the sparse far-future
//    remainder. Heap entries never migrate to the wheel.
//
// The two tops are merged with the same comparison the heap alone used, so
// the global fire order — and with it every golden trace — is unchanged:
// two events scheduled for the same picosecond fire in the order they were
// scheduled, keeping whole simulations reproducible across runs and
// platforms.
//
// Ordering is really (time, key, sequence). In the default mode every key
// is 0, which degenerates to the historical (time, sequence) FIFO — bit
// for bit. The sharded engine (net/shard.h) opts into *canonical keys*
// instead: each event gets a 64-bit key derived from the key of the event
// whose callback scheduled it (hash of the parent key, plus a per-parent
// spawn counter). A key is therefore a pure function of the causal chain
// that produced the event — independent of which shard's queue it sits in
// and of how many shards exist — so same-timestamp ties resolve
// identically at shards=1 and shards=N. Keys from outside any callback
// (topology setup, the coordinator between windows) come from a
// SpawnContext shared across all of a network's queues.
//
// Cancellation is O(1) and hash-free: an EventHandle carries its slot index
// and the 64-bit sequence number stamped on the slot when the event was
// armed. Cancel() frees the slot (clearing the stamp); a wheel-chained
// entry is unlinked in place, while heap/ready entries become tombstones
// skipped when they reach the front. Sequence numbers are never reused, so
// a stale handle — fired or cancelled long ago — can never alias a newer
// event no matter how often its slot is recycled.
#pragma once

#include <cstdint>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "sim/inline_callback.h"
#include "sim/timer_wheel.h"

namespace dcqcn {

class EventQueue;

// splitmix64 finalizer: the key-derivation hash for canonical event keys.
inline constexpr uint64_t MixEventKey(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Key source for events scheduled outside any event callback (topology
// setup, the window coordinator). A sharded Network shares ONE SpawnContext
// across all of its queues, so setup-time keys do not depend on which shard
// a call lands in. Only ever touched single-threaded (setup and the
// inter-window phases run on the orchestrating thread).
struct SpawnContext {
  uint64_t hash = MixEventKey(0);
  uint64_t spawn = 0;
};

// Opaque handle to a scheduled event; obtained from EventQueue::Schedule and
// usable with Cancel(). A default-constructed handle refers to nothing.
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return seq_ != 0; }

 private:
  friend class EventQueue;
  EventHandle(uint32_t slot, uint64_t seq) : slot_(slot), seq_(seq) {}
  uint32_t slot_ = 0;
  uint64_t seq_ = 0;  // 0 = refers to nothing
};

class EventQueue {
 public:
  using Callback = InlineCallback;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Current simulated time. Advances monotonically as events run.
  Time Now() const { return now_; }

  // Switches this queue to canonical event keys (see file comment). Must be
  // called before anything is scheduled; `root` must outlive the queue and
  // be shared with every sibling queue of the same network.
  void EnableCanonicalKeys(SpawnContext* root) {
    DCQCN_CHECK(root != nullptr && next_seq_ == 1);
    root_ctx_ = root;
  }

  // The key the next child scheduled from the current context would get,
  // consuming one spawn index. Used by boundary links to stamp a delivery's
  // key on the egress shard before the event is injected on the ingress
  // shard — identical key accounting to a locally delivered frame. Always 0
  // when canonical keys are off.
  uint64_t AllocChildKey() {
    if (root_ctx_ == nullptr) return 0;
    if (in_event_) return ctx_hash_ + ctx_spawn_++;
    return root_ctx_->hash + root_ctx_->spawn++;
  }

  // Schedules `cb` to run at absolute time `at` (must be >= Now()). The
  // callable's capture must fit InlineCallback::kCapacity (compile-time
  // checked).
  template <typename F>
  EventHandle ScheduleAt(Time at, F&& cb) {
    return ScheduleAtWithKey(at, AllocChildKey(), std::forward<F>(cb));
  }

  // ScheduleAt with an explicit canonical key (one previously allocated via
  // AllocChildKey on the scheduling context's queue). The plain overload is
  // the common case; this one exists for cross-shard injection, where the
  // key was fixed on the egress side.
  template <typename F>
  EventHandle ScheduleAtWithKey(Time at, uint64_t key, F&& cb) {
    DCQCN_CHECK(at >= now_);
    DCQCN_DCHECK(DebugAffinityOk());
    const uint32_t slot = AllocSlot();
    const uint64_t seq = next_seq_++;
    Slot& s = slots_[slot];
    s.cb.Emplace(std::forward<F>(cb));
    s.armed_seq = seq;
    wheel_.SyncIfIdle(now_);
    if (wheel_.Accepts(at)) {
      wheel_.Insert(slot, at, key, seq);
    } else {
      HeapPush(HeapEntry{at, key, seq, slot});
    }
    ++live_;
    return EventHandle{slot, seq};
  }

  // Schedules `cb` to run `delay` from now.
  template <typename F>
  EventHandle ScheduleIn(Time delay, F&& cb) {
    DCQCN_CHECK(delay >= 0);
    return ScheduleAt(now_ + delay, std::forward<F>(cb));
  }

  // Cancels a pending event. Returns true if the event had not yet fired and
  // was cancelled; false for stale, fired, or default handles. O(1): the
  // slot is freed immediately and the heap entry dies in place, to be
  // skipped (and popped lazily) when it reaches the top.
  bool Cancel(EventHandle h) {
    DCQCN_DCHECK(DebugAffinityOk());
    if (!h.valid()) return false;
    Slot& s = slots_[h.slot_];
    if (s.armed_seq != h.seq_) return false;
    wheel_.OnCancel(h.slot_);  // unlink if chained; tombstone otherwise
    s.cb.Reset();
    FreeSlot(h.slot_);
    --live_;
    return true;
  }

  // True if no runnable (non-cancelled) events remain.
  bool Empty() const { return live_ == 0; }

  size_t PendingEvents() const { return live_; }

  // Returned by NextEventTime() when no live events remain.
  static constexpr Time kNoEventTime = std::numeric_limits<Time>::max();

  // Timestamp of the earliest live event without firing it, or kNoEventTime
  // when the queue is drained. Prunes cancelled fronts (same path RunOne
  // takes), so the answer is exact. The hybrid fast-forward controller uses
  // this to bound analytic epochs by the next scheduled packet-level event
  // (workload arrival timers, fault transitions, probes).
  Time NextEventTime() {
    switch (PrepareTop()) {
      case TopSrc::kNone:
        return kNoEventTime;
      case TopSrc::kHeap:
        return heap_[0].at;
      case TopSrc::kReady:
        return wheel_.ReadyFront().at;
    }
    return kNoEventTime;
  }

  // Runs the next event; returns false if the queue had no live events.
  bool RunOne() {
    DCQCN_DCHECK(DebugAffinityOk());
    switch (PrepareTop()) {
      case TopSrc::kNone:
        return false;
      case TopSrc::kHeap:
        FireTop();
        return true;
      case TopSrc::kReady:
        FireReady();
        return true;
    }
    return false;
  }

  // Runs events until the queue drains or the next live event lies beyond
  // `deadline`. Events at exactly `deadline` do run. Returns the number of
  // events executed; afterwards Now() >= deadline unless the queue drained
  // earlier (then Now() is advanced to `deadline` as well).
  uint64_t RunUntil(Time deadline) {
    DCQCN_DCHECK(DebugAffinityOk());
    uint64_t n = 0;
    for (;;) {
      const TopSrc src = PrepareTop();
      if (src == TopSrc::kNone) break;
      if (src == TopSrc::kHeap) {
        if (heap_[0].at > deadline) break;
        FireTop();
      } else {
        if (wheel_.ReadyFront().at > deadline) break;
        FireReady();
      }
      ++n;
    }
    if (now_ < deadline) now_ = deadline;
    return n;
  }

  // Runs until the queue is drained. Returns events executed.
  uint64_t RunAll() {
    uint64_t n = 0;
    while (RunOne()) ++n;
    return n;
  }

  // Pre-sizes slot and heap storage for `events` concurrent events, so even
  // the first simulated moments allocate nothing. Growth past the
  // reservation is amortized as usual.
  void Reserve(size_t events) {
    heap_.reserve(events);
    wheel_.Reserve(events);
    if (slots_.size() < events) {
      const auto first = static_cast<uint32_t>(slots_.size());
      slots_.resize(events);
      wheel_.EnsureSlots(slots_.size());
      for (uint32_t i = first; i < slots_.size(); ++i) FreeSlot(i);
    }
  }

  // --- debug thread affinity ---
  // A sharded Network binds each shard's queue to its executing thread for
  // the duration of a window; Schedule/Cancel/Run from any other thread then
  // trip a DCHECK. Unbound (the default, and between windows) means any
  // thread may touch the queue — which is safe, because the barrier protocol
  // guarantees exclusive access outside windows. No-ops in release builds.
  void DebugBindToCurrentThread() {
#ifndef NDEBUG
    debug_owner_ = std::this_thread::get_id();
    debug_bound_ = true;
#endif
  }
  void DebugUnbind() {
#ifndef NDEBUG
    debug_bound_ = false;
#endif
  }
  bool DebugAffinityOk() const {
#ifndef NDEBUG
    return !debug_bound_ || debug_owner_ == std::this_thread::get_id();
#else
    return true;
#endif
  }

 private:
  struct Slot {
    InlineCallback cb;
    uint64_t armed_seq = 0;  // 0 = free; else the armed event's sequence
    uint32_t next_free = 0;  // intrusive free list link
  };
  struct HeapEntry {
    Time at;
    uint64_t key;  // canonical tie-break key; 0 outside canonical mode
    uint64_t seq;
    uint32_t slot;
  };
  static_assert(sizeof(HeapEntry) == 32, "docs above quote the entry size");

  static constexpr uint32_t kNoFreeSlot = ~0u;
  static constexpr Time kTimeMax = std::numeric_limits<Time>::max();

  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.key != b.key) return a.key < b.key;
    return a.seq < b.seq;
  }

  uint32_t AllocSlot() {
    if (free_head_ != kNoFreeSlot) {
      const uint32_t slot = free_head_;
      free_head_ = slots_[slot].next_free;
      return slot;
    }
    slots_.emplace_back();  // amortized growth; steady state hits free list
    wheel_.EnsureSlots(slots_.size());
    return static_cast<uint32_t>(slots_.size() - 1);
  }

  void FreeSlot(uint32_t slot) {
    Slot& s = slots_[slot];
    s.armed_seq = 0;
    s.next_free = free_head_;
    free_head_ = slot;
  }

  // 4-ary min-heap: shallower than a binary heap, and the four 32-byte
  // children of a node span two cache lines.
  void HeapPush(HeapEntry e) {
    heap_.push_back(e);
    size_t i = heap_.size() - 1;
    while (i > 0) {
      const size_t parent = (i - 1) >> 2;
      if (!Earlier(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void HeapPopMin() {
    const HeapEntry e = heap_.back();
    heap_.pop_back();
    const size_t n = heap_.size();
    if (n == 0) return;
    size_t i = 0;
    for (;;) {
      const size_t first = (i << 2) + 1;
      if (first >= n) break;
      size_t best = first;
      const size_t last = first + 4 < n ? first + 4 : n;
      for (size_t c = first + 1; c < last; ++c) {
        if (Earlier(heap_[c], heap_[best])) best = c;
      }
      if (!Earlier(heap_[best], e)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  enum class TopSrc : uint8_t { kNone, kHeap, kReady };

  // The single pruning + merge point: drops cancelled entries off both
  // fronts, drains wheel buckets that could hold the next event, and says
  // where the earliest live event sits. RunOne/RunUntil/RunAll all drain
  // through here exactly once per pop.
  TopSrc PrepareTop() {
    for (;;) {
      while (!heap_.empty() &&
             slots_[heap_[0].slot].armed_seq != heap_[0].seq) {
        HeapPopMin();
      }
      wheel_.SkipDeadReady([this](const TimerWheel::Entry& e) {
        return slots_[e.slot].armed_seq != e.seq;
      });
      const bool have_heap = !heap_.empty();
      const bool have_ready = !wheel_.ReadyEmpty();
      if (wheel_.HasChained()) {
        Time known = kTimeMax;
        if (have_heap) known = heap_[0].at;
        if (have_ready) {
          const Time r = wheel_.ReadyFront().at;
          if (r < known) known = r;
        }
        // A chained bucket starting at or before the best known candidate
        // may hold the true earliest event: advance the wheel and re-check.
        if (wheel_.NextChainedStart() <= known) {
          wheel_.DrainOneStep();
          continue;
        }
      }
      if (!have_ready) return have_heap ? TopSrc::kHeap : TopSrc::kNone;
      if (!have_heap) return TopSrc::kReady;
      const TimerWheel::Entry& r = wheel_.ReadyFront();
      const HeapEntry& h = heap_[0];
      const bool ready_first =
          r.at != h.at ? r.at < h.at
                       : (r.key != h.key ? r.key < h.key : r.seq < h.seq);
      return ready_first ? TopSrc::kReady : TopSrc::kHeap;
    }
  }

  // Invokes an event's callback. In canonical-key mode the firing event's
  // key seeds the context its callback schedules children from: child key =
  // MixEventKey(parent key) + spawn index. Both sides of that sum are pure
  // functions of the causal chain, so the derived keys are too.
  void Invoke(uint64_t key, InlineCallback& cb) {
    if (root_ctx_ != nullptr) {
      ctx_hash_ = MixEventKey(key);
      ctx_spawn_ = 0;
      in_event_ = true;
      cb();
      in_event_ = false;
    } else {
      cb();
    }
  }

  // Pre: heap top is live. Frees the slot before invoking so the callback
  // may immediately schedule (possibly into the same slot) or cancel.
  void FireTop() {
    const HeapEntry e = heap_[0];
    HeapPopMin();
    DCQCN_DCHECK(e.at >= now_);
    now_ = e.at;
    Slot& s = slots_[e.slot];
    InlineCallback cb = std::move(s.cb);
    FreeSlot(e.slot);
    --live_;
    Invoke(e.key, cb);
  }

  // Pre: ready front is live. Same contract as FireTop.
  void FireReady() {
    const TimerWheel::Entry e = wheel_.PopReady();
    if (!wheel_.ReadyEmpty()) {
      // Overlap the next event's slot fetch with this callback's execution
      // (dead entries prefetch harmlessly; most ready entries are live).
      __builtin_prefetch(&slots_[wheel_.ReadyFront().slot]);
    }
    DCQCN_DCHECK(e.at >= now_);
    now_ = e.at;
    Slot& s = slots_[e.slot];
    InlineCallback cb = std::move(s.cb);
    FreeSlot(e.slot);
    --live_;
    Invoke(e.key, cb);
  }

  Time now_ = 0;
  uint64_t next_seq_ = 1;
  size_t live_ = 0;
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNoFreeSlot;
  TimerWheel wheel_;
  // Canonical-key state (see file comment). root_ctx_ == nullptr is the
  // default (time, sequence) mode.
  SpawnContext* root_ctx_ = nullptr;
  uint64_t ctx_hash_ = 0;   // MixEventKey(key of the firing event)
  uint64_t ctx_spawn_ = 0;  // children scheduled by the firing event so far
  bool in_event_ = false;   // inside a callback (vs. setup / coordinator)
#ifndef NDEBUG
  std::thread::id debug_owner_;
  bool debug_bound_ = false;
#endif
};

}  // namespace dcqcn
