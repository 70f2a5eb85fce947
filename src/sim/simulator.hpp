#pragma once
// Discrete-event simulation engine.
//
// A Simulator owns a 4-ary min-heap of timestamped event entries. Components
// schedule work with schedule_after()/schedule_at() and read the clock with
// now(). Events at equal timestamps fire in scheduling order (stable), which
// keeps runs deterministic.
//
// Hot-path design: the engine allocates nothing per event in steady state,
// its footprint is O(pending), and the heap holds (almost) only live events.
//
//  * Callbacks live in a flat pool of 256-byte nodes (sim::Callback with a
//    240-byte inline buffer, so even Packet-owning closures stay inline),
//    allocated in fixed chunks of 64 and indexed by slot >> 6, slot & 63:
//    address-stable, so a callback runs in place while it schedules more.
//    Freed slots are recycled through a LIFO free list, so the pool grows
//    to the peak concurrent-pending count and then stops.
//  * Per-slot bookkeeping sits in a separate dense array: the event's key
//    (deadline, serial), the key of the one heap entry it owns (its
//    "anchor"), the generation that validates EventIds and the free link.
//  * The heap holds 16-byte POD entries {time, seq|slot} ordered by
//    (time, seq). seq is a monotone per-event serial: it breaks same-time
//    ties FIFO, and an entry is stale iff its slot's anchor no longer
//    carries that serial.
//  * reschedule() re-arms a pending timer in place. It takes a fresh
//    serial, exactly as cancel() + schedule_at() would, but a later
//    deadline only updates the slot: when the (earlier) anchor pops it is
//    re-pushed at the current key instead of firing. Because an anchor is
//    never later than its event's key, events fire in exactly the order
//    cancel + schedule_at gives (DESIGN.md §10). TCP RTOs and the
//    AckScheduler re-arm this way, so they leave no stale entries behind.
//  * Replace-top firing: the firing entry stays at the root while its
//    callback runs, and the callback's first push overwrites it with one
//    sift_down instead of a pop plus a push. Anything that reshapes the
//    heap from inside a callback (compaction, a nested step/run_until)
//    retires that held root first.
//  * Cancel just kills the slot (O(1)); its entry is discarded lazily on
//    pop and compacted wholesale when stale entries outnumber live ones
//    4:1, so cancel churn cannot grow the queue without bound.
//  * Slot generations validate EventIds, so a fired, cancelled or
//    recycled handle is rejected without a per-event-ever table.

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace zhuge::sim {

/// Handle for a scheduled event; used to cancel or re-arm it. Id 0 is never
/// issued. Encodes (node generation << 32 | slot + 1); a stale handle —
/// fired, cancelled, or from a recycled slot — is recognized and rejected.
using EventId = std::uint64_t;

/// Deterministic discrete-event executor.
///
/// Not thread-safe by design: a simulation is a single logical timeline.
/// (Independent Simulators on separate threads are fine — see app/sweep.)
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time. Monotonically non-decreasing across callbacks.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedule `fn` to run at absolute time `t` (clamped to now()).
  /// Returns an id usable with cancel() and reschedule(). Accepts any
  /// void() callable; captures up to Callback::kInlineSize bytes stay
  /// allocation-free, and the callable is constructed directly in its
  /// pool node — no intermediate type-erased moves on the hot path.
  template <typename F>
  EventId schedule_at(TimePoint t, F&& fn) {
    const std::uint32_t slot = acquire_slot();
    node(slot).emplace(std::forward<F>(fn));
    return enqueue(t, slot);
  }

  /// Schedule `fn` to run `d` after now(). Negative delays are clamped to 0.
  template <typename F>
  EventId schedule_after(Duration d, F&& fn) {
    if (d < Duration::zero()) d = Duration::zero();
    return schedule_at(now_ + d, std::forward<F>(fn));
  }

  /// Cancel a pending event. Cancelling an already-fired, already-cancelled
  /// or unknown id is a harmless no-op. Returns true if the event was
  /// pending (i.e. this call actually cancelled it).
  bool cancel(EventId id);

  /// Move a pending event to absolute time `t` (clamped to now()), keeping
  /// its callable and its EventId. Orders, counts and clamps exactly like
  /// cancel(id) followed by schedule_at(t, same callable): the event takes
  /// a fresh serial (so it fires after events already due at `t`), and it
  /// counts as one cancel plus one schedule. Returns false, changing
  /// nothing, for a fired, cancelled, stale or currently-firing id.
  bool reschedule(EventId id, TimePoint t);

  /// Run until the event queue is empty or `stop()` is called.
  void run();

  /// Run events with timestamp <= `end`, then set the clock to `end`.
  void run_until(TimePoint end);

  /// Fire the single earliest event. Returns false if the queue was empty.
  bool step();

  /// Stop a run()/run_until() loop after the current callback returns.
  void stop() { stopped_ = true; }

  /// Number of events executed so far (for tests and perf reporting).
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  /// Number of events ever scheduled (each reschedule() counts as one).
  [[nodiscard]] std::uint64_t events_scheduled() const { return scheduled_; }
  /// Number of events successfully cancelled (each reschedule() counts
  /// as one).
  [[nodiscard]] std::uint64_t events_cancelled() const { return cancelled_count_; }

  /// Number of events currently pending. Exact: cancelled events are
  /// excluded even while their heap entries await lazy discard.
  [[nodiscard]] std::size_t pending() const { return pending_count_; }

  /// Footprint introspection for the bounded-memory regression tests:
  /// slot count (== peak concurrent pending, never events-ever) and heap
  /// length including not-yet-discarded stale entries (compaction keeps
  /// this within 4x pending + a small floor; in-place re-arms add none).
  [[nodiscard]] std::size_t pool_slots() const { return slots_.size(); }
  [[nodiscard]] std::size_t queue_size() const { return heap_.size(); }

  /// Test hook: overwrite a *free* slot's generation counter so the
  /// EventId generation-wraparound path can be exercised without 2^32
  /// real schedule/release cycles. Not for production use.
  void set_slot_generation_for_test(std::uint32_t slot, std::uint32_t gen) {
    slots_[slot].generation = gen;
  }

 private:
  /// Heap entry: POD, 16 bytes (4 per cache line), trivially movable —
  /// sift operations touch no callback. `seqslot` packs the entry's
  /// monotone serial (high 40 bits) over its pool slot (low 24 bits):
  /// the serial both orders same-time events FIFO and doubles as the
  /// liveness token (matched against the slot's anchor). 40/24 bounds:
  /// ~1.1e12 serials per run, ~16.7M concurrently pending.
  struct QEntry {
    std::uint64_t seqslot;
    std::int64_t t_ns;
  };
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  /// Min-ordering on (t, seq). The heap is 4-ary rather than binary:
  /// event pop cost is dominated by data-dependent sift branches, and a
  /// 4-ary layout halves the number of levels (log4 vs log2 of pending).
  static bool earlier(const QEntry& a, const QEntry& b) {
    if (a.t_ns != b.t_ns) return a.t_ns < b.t_ns;
    return a.seqslot < b.seqslot;  // serial is in the high bits
  }

  /// Per-slot bookkeeping. (t_ns, seq) is the event's key, the one a
  /// cancel + schedule_at would have given it; (anchor_t, anchor_seq) is
  /// the key of the heap entry the slot owns, never later than the event's
  /// key. They differ only after an in-place re-arm to a later deadline.
  /// `seq == 0` marks the slot dead (free, firing/fired, or cancelled) and
  /// `anchor_seq == 0` leaves it no live entry; `generation` increments on
  /// each reuse so stale EventIds referencing the slot are rejected.
  struct Slot {
    std::int64_t t_ns = 0;
    std::uint64_t seq = 0;
    std::int64_t anchor_t = 0;
    std::uint64_t anchor_seq = 0;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNilSlot;
  };
  static constexpr std::uint32_t kNilSlot = 0xFFFFFFFFu;

  /// Callbacks in fixed chunks of 64 nodes: one pointer hop per lookup, no
  /// block map, and a chunk never moves once allocated.
  static constexpr unsigned kChunkBits = 6;
  static constexpr std::uint32_t kChunkMask = (1u << kChunkBits) - 1;
  struct alignas(64) Chunk {
    Callback nodes[1u << kChunkBits];
  };
  static_assert(sizeof(Callback) == 256, "pool nodes are four cache lines");

  Callback& node(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits]->nodes[slot & kChunkMask];
  }

  static constexpr EventId make_id(std::uint32_t generation, std::uint32_t slot) {
    return (static_cast<EventId>(generation) << 32) | (slot + 1);
  }

  std::uint32_t acquire_slot();
  EventId enqueue(TimePoint t, std::uint32_t slot);
  /// Slot of a pending event's id, or kNilSlot if the id is not pending.
  [[nodiscard]] std::uint32_t pending_slot(EventId id) const;
  void release_slot(std::uint32_t slot);
  void heap_push(const QEntry& e);
  void heap_pop_front();
  void sift_down(std::size_t i);
  void rebuild_heap();
  void maybe_compact();
  void retire_held_root();
  bool settle_front();
  void fire_front();

  [[nodiscard]] bool live(const QEntry& e) const {
    return slots_[e.seqslot & kSlotMask].anchor_seq == (e.seqslot >> kSlotBits);
  }

  TimePoint now_;
  std::uint64_t next_seq_ = 1;  // 0 reserved as the dead marker
  std::uint64_t scheduled_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_count_ = 0;
  std::size_t pending_count_ = 0;
  bool stopped_ = false;
  /// The root is the firing event's (stale) entry, left for the callback's
  /// first push to overwrite.
  bool held_root_ = false;
  std::vector<QEntry> heap_;    // 4-ary min-heap on (t, seq)
  std::vector<Slot> slots_;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::uint32_t free_head_ = kNilSlot;
};

}  // namespace zhuge::sim
