// Discrete-event simulation core.
//
// Everything in the reproduction — radio state machine timers, HTTP
// transfers, browser CPU tasks, user think times, N-UE cell runs — runs as
// events on one Simulator.  Events at equal timestamps fire in scheduling
// order, which keeps runs deterministic; events can be cancelled (RRC
// inactivity timers are rescheduled constantly).
//
// Hot-path layout (million-event regime):
//  - The pending queue is a flat 4-ary min-heap of 16-byte `{at, key}` nodes;
//    sift operations move trivially copyable keys only, never callables.
//    `key` packs the event's monotonically increasing order stamp (high bits,
//    the tie-breaker that preserves scheduling order at equal timestamps)
//    with its slot index (low bits).
//  - Callables live in a recycled slot pool: small captures are placement-
//    constructed into the slot's inline buffer (no heap allocation), larger
//    ones go through a per-simulator free-list pool (see action.hpp).  Fired
//    and cancelled slots return to a free list immediately, so a long cell
//    run holds constant memory instead of one state byte per event ever
//    scheduled; the order stamp doubles as a generation counter that makes a
//    stale heap node or EventId referring to a recycled slot detectable.
//  - Cancellation leaves a tombstone node in the heap.  Tombstones are
//    discarded when they surface, and compacted in place when they exceed
//    half of a sufficiently large heap — an RRC timer reschedule storm no
//    longer buries dead entries until their timestamps pass.
//  - There is exactly one heap, for single loads, sessions, cells and
//    metros alike: (time, order stamp) fixes the fire order, so a second
//    queue could only change speed, and measured it did not (DESIGN §6c).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/action.hpp"
#include "util/units.hpp"

namespace eab::sim {

/// Thrown when the simulator fires more events than its configured budget
/// allows — a liveness tripwire turning a would-be infinite event loop into
/// a diagnosable failure.  `what()` includes a dump of the pending heap.
class BudgetExhaustedError : public std::runtime_error {
 public:
  explicit BudgetExhaustedError(const std::string& message)
      : std::runtime_error(message) {}
};

/// Outcome of a budgeted run (Simulator::run(max_events)).
enum class RunStatus {
  kDrained,          ///< the queue emptied normally
  kBudgetExhausted,  ///< max_events fired with work still pending
};

struct RunResult {
  RunStatus status = RunStatus::kDrained;
  std::size_t events = 0;  ///< events fired by this call

  bool drained() const { return status == RunStatus::kDrained; }
};

/// Handle to a scheduled event; obtained from Simulator::schedule_*.
class EventId {
 public:
  EventId() = default;

  bool valid() const { return handle_ != 0; }

 private:
  friend class Simulator;
  explicit EventId(std::uint64_t handle) : handle_(handle) {}
  std::uint64_t handle_ = 0;  ///< (order stamp << slot bits) | slot; 0 invalid
};

/// A single-threaded discrete-event simulator.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  /// Current simulated time.
  Seconds now() const { return now_; }

  /// Schedules `action` to run at absolute time `at` (>= now()).
  template <typename F>
  EventId schedule_at(Seconds at, F&& action);

  /// Schedules `action` to run `delay` seconds from now (delay >= 0).
  template <typename F>
  EventId schedule_in(Seconds delay, F&& action) {
    if (delay < 0) throw_negative_delay(delay, now_);
    return schedule_at(now_ + delay, std::forward<F>(action));
  }

  /// Cancels a pending event. Cancelling an already-fired, already-cancelled
  /// or default-constructed id is a harmless no-op; returns whether a pending
  /// event was actually cancelled.  The cancelled callable is destroyed
  /// immediately (its captures are released now, not when the tombstone
  /// surfaces).
  bool cancel(EventId id);

  /// True if the event has been scheduled, not cancelled, and not yet fired.
  bool pending(EventId id) const {
    if (id.handle_ == 0) return false;
    const std::uint32_t slot_idx = slot_of(id.handle_);
    if (slot_idx >= slot_count_) return false;
    return slot_at(slot_idx).order == order_of(id.handle_);
  }

  /// Runs events until the queue is empty. Returns the number of events run.
  /// Throws BudgetExhaustedError when the lifetime event budget (see
  /// set_event_budget) runs out first.
  std::size_t run();

  /// Runs at most `max_events` events; reports whether the queue drained or
  /// the cap was hit with work still pending (never throws for the cap —
  /// callers inspect the status and pending_dump()).  The lifetime budget
  /// still applies underneath.
  RunResult run(std::size_t max_events);

  /// Runs events with timestamp <= until, then advances the clock to exactly
  /// `until` (even if the queue still holds later events).
  std::size_t run_until(Seconds until);

  /// Runs exactly one event if available; returns whether one ran.  Throws
  /// BudgetExhaustedError if firing it would exceed the lifetime budget.
  bool step();

  /// Caps the total number of events this simulator may fire over its
  /// lifetime.  Exceeding the cap makes step()/run()/run_until() throw
  /// BudgetExhaustedError carrying pending_dump() — a wedged simulation
  /// (events endlessly rescheduling each other) surfaces as a diagnosable
  /// error instead of a hang.  Default: effectively unlimited.
  void set_event_budget(std::uint64_t max_total_fired) {
    event_budget_ = max_total_fired;
  }
  std::uint64_t event_budget() const { return event_budget_; }

  /// Human-readable snapshot of the pending heap (earliest events first, up
  /// to `max_entries`), for liveness diagnostics.
  std::string pending_dump(std::size_t max_entries = 12) const;

  /// Number of events currently pending (excludes cancelled ones).
  std::size_t pending_count() const { return live_; }

  /// Total number of events that have fired over the simulator's lifetime.
  std::uint64_t fired_count() const { return fired_count_; }

  /// Total number of events cancelled before firing.
  std::uint64_t cancelled_count() const { return cancelled_count_; }

  /// Tombstoned heap entries removed without firing — surfaced at the top of
  /// a heap or swept by in-place compaction.  Over a drained run this equals
  /// cancelled_count().
  std::uint64_t tombstones_popped() const { return tombstones_popped_; }

  /// Largest pending-queue size observed (live nodes plus not-yet-collected
  /// tombstones).
  std::size_t peak_heap_size() const { return peak_heap_size_; }

  /// Blocks parked on the oversized-capture free list (diagnostics/tests).
  std::size_t overflow_free_blocks() const { return overflow_.free_blocks(); }

 private:
  // Heap nodes are 16-byte trivially copyable keys; `key` packs the order
  // stamp above the slot index so comparing keys compares order stamps.
  struct Node {
    Seconds at;
    std::uint64_t key;
  };
  static_assert(sizeof(Node) == 16);

  static constexpr int kSlotBits = 24;
  static constexpr std::uint32_t kMaxSlots = 1u << kSlotBits;
  static constexpr std::uint64_t kSlotMask = kMaxSlots - 1;
  static constexpr std::uint64_t kMaxOrder =
      (std::uint64_t{1} << (64 - kSlotBits)) - 1;  // ~1.1e12 lifetime events
  static constexpr std::uint32_t kNilSlot = 0xFFFF'FFFFu;
  static constexpr int kPageBits = 9;
  static constexpr std::uint32_t kPageSize = 1u << kPageBits;
  /// Compaction floor: heaps smaller than this are never compacted, so the
  /// counters of modest runs (every single page load) are bit-identical to
  /// the pre-compaction engine.
  static constexpr std::size_t kCompactMinNodes = 1024;

  struct Slot {
    alignas(alignof(std::max_align_t))
        unsigned char inline_buf[kInlineActionBytes];
    const ActionOps* ops = nullptr;
    void* ext = nullptr;          ///< external object when ops->size != 0
    std::uint64_t order = 0;      ///< occupant's order stamp; 0 = not pending
    std::uint32_t next_free = kNilSlot;
  };
  struct Page {
    Slot slots[kPageSize];
  };

  static std::uint32_t slot_of(std::uint64_t key) {
    return static_cast<std::uint32_t>(key & kSlotMask);
  }
  static std::uint64_t order_of(std::uint64_t key) { return key >> kSlotBits; }

  static bool node_less(const Node& a, const Node& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.key < b.key;  // key order == order-stamp order (stamps unique)
  }

  static void sift_up(std::vector<Node>& heap, std::size_t hole, Node node) {
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 4;
      if (!node_less(node, heap[parent])) break;
      heap[hole] = heap[parent];
      hole = parent;
    }
    heap[hole] = node;
  }

  static void sift_down(std::vector<Node>& heap, std::size_t hole, Node node) {
    const std::size_t n = heap.size();
    while (true) {
      const std::size_t first = hole * 4 + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = first + 4 < n ? first + 4 : n;
      for (std::size_t child = first + 1; child < end; ++child) {
        if (node_less(heap[child], heap[best])) best = child;
      }
      if (!node_less(heap[best], node)) break;
      heap[hole] = heap[best];
      hole = best;
    }
    heap[hole] = node;
  }

  void pop_root() {
    const Node last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(heap_, 0, last);
  }

  Slot& slot_at(std::uint32_t idx) {
    return pages_[idx >> kPageBits]->slots[idx & (kPageSize - 1)];
  }
  const Slot& slot_at(std::uint32_t idx) const {
    return pages_[idx >> kPageBits]->slots[idx & (kPageSize - 1)];
  }

  std::uint32_t acquire_slot() {
    if (free_head_ != kNilSlot) {
      const std::uint32_t idx = free_head_;
      free_head_ = slot_at(idx).next_free;
      return idx;
    }
    if (slot_count_ >= kMaxSlots) throw_slot_limit();
    if ((slot_count_ >> kPageBits) == pages_.size()) {
      pages_.push_back(std::make_unique<Page>());
    }
    return slot_count_++;
  }

  /// Destroys the slot's callable, returns any external buffer to the
  /// overflow pool, and parks the slot on the free list.
  void release_slot(std::uint32_t idx) {
    Slot& slot = slot_at(idx);
    void* obj = slot.ops->size ? slot.ext : slot.inline_buf;
    slot.ops->destroy(obj);
    if (slot.ops->size) overflow_.deallocate(slot.ext, slot.ops->size);
    slot.order = 0;
    slot.next_free = free_head_;
    free_head_ = idx;
  }

  /// Discards the tombstone at the top of the heap.
  void drop_tombstone() {
    pop_root();
    ++tombstones_popped_;
    --dead_;
  }

  void compact();

  [[noreturn]] void throw_budget_exhausted() const;
  [[noreturn]] static void throw_past_schedule(Seconds at, Seconds now);
  [[noreturn]] static void throw_negative_delay(Seconds delay, Seconds now);
  [[noreturn]] static void throw_empty_action();
  [[noreturn]] static void throw_slot_limit();
  [[noreturn]] static void throw_order_overflow();

  /// Recycles the fired slot on both the normal and the exceptional path.
  struct FireCleanup {
    Simulator* sim;
    std::uint32_t slot;
    ~FireCleanup() { sim->release_slot(slot); }
  };

  Seconds now_ = 0;
  std::uint64_t next_order_ = 1;
  std::uint64_t event_budget_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t fired_count_ = 0;
  std::uint64_t cancelled_count_ = 0;
  std::uint64_t tombstones_popped_ = 0;
  std::size_t peak_heap_size_ = 0;
  std::size_t live_ = 0;  ///< pending (scheduled, not cancelled/fired)
  std::size_t dead_ = 0;  ///< tombstone nodes currently buried in heap_
  std::vector<Node> heap_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = kNilSlot;
  std::vector<std::unique_ptr<Page>> pages_;
  OverflowPool overflow_;
};

template <typename F>
EventId Simulator::schedule_at(Seconds at, F&& action) {
  if (at < now_) throw_past_schedule(at, now_);
  using Fn = std::decay_t<F>;
  static_assert(alignof(Fn) <= alignof(std::max_align_t),
                "Simulator actions with extended alignment are unsupported");
  if constexpr (requires(const Fn& f) { static_cast<bool>(f); }) {
    if (!static_cast<bool>(action)) throw_empty_action();
  }
  if (next_order_ > kMaxOrder) throw_order_overflow();

  const std::uint32_t slot_idx = acquire_slot();
  Slot& slot = slot_at(slot_idx);
  constexpr bool kInline = sizeof(Fn) <= kInlineActionBytes;
  void* obj;
  if constexpr (kInline) {
    obj = slot.inline_buf;
  } else {
    obj = overflow_.allocate(sizeof(Fn));
    slot.ext = obj;
  }
  try {
    ::new (obj) Fn(std::forward<F>(action));
  } catch (...) {
    if constexpr (!kInline) overflow_.deallocate(obj, sizeof(Fn));
    slot.next_free = free_head_;  // the slot never became pending
    free_head_ = slot_idx;
    throw;
  }
  slot.ops = &detail::kActionOps<Fn, kInline>;

  const std::uint64_t order = next_order_++;
  slot.order = order;
  ++live_;
  const Node node{at, (order << kSlotBits) | slot_idx};
  heap_.push_back(node);
  sift_up(heap_, heap_.size() - 1, node);
  if (heap_.size() > peak_heap_size_) peak_heap_size_ = heap_.size();
  return EventId(node.key);
}

inline bool Simulator::cancel(EventId id) {
  if (id.handle_ == 0) return false;
  const std::uint32_t slot_idx = slot_of(id.handle_);
  if (slot_idx >= slot_count_) return false;
  Slot& slot = slot_at(slot_idx);
  if (slot.order != order_of(id.handle_)) return false;
  release_slot(slot_idx);  // the heap node is now a tombstone
  --live_;
  ++cancelled_count_;
  ++dead_;
  if (heap_.size() >= kCompactMinNodes && dead_ * 2 > heap_.size()) compact();
  return true;
}

inline bool Simulator::step() {
  while (!heap_.empty()) {
    if (fired_count_ >= event_budget_) throw_budget_exhausted();
    const Node top = heap_.front();
    const std::uint32_t slot_idx = slot_of(top.key);
    Slot& slot = slot_at(slot_idx);
    if (slot.order != order_of(top.key)) {  // tombstone
      drop_tombstone();
      continue;
    }
    pop_root();
    slot.order = 0;  // cancel()/pending() during our own execution see fired
    --live_;
    ++fired_count_;
    now_ = top.at;
    FireCleanup cleanup{this, slot_idx};
    void* obj = slot.ops->size ? slot.ext : slot.inline_buf;
    slot.ops->invoke(obj);
    return true;
  }
  return false;
}

}  // namespace eab::sim
