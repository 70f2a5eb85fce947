#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

namespace zhuge::sim {

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(slots_.size());
  if ((slot & kChunkMask) == 0) chunks_.push_back(std::make_unique<Chunk>());
  slots_.emplace_back();
  return slot;
}

void Simulator::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.generation;  // invalidate any EventId still pointing at this slot
  if (s.generation == 0) {
    // Generation wrapped: every id this slot ever issued is about to
    // become mintable again, so an id held since generation g would
    // validate against an unrelated future event once the counter walks
    // back around to g. Retire the slot instead of recycling it — one
    // node leaked per 2^32 reuses of a single slot, in exchange for
    // cancel() never accepting a stale handle.
    return;
  }
  s.next_free = free_head_;
  free_head_ = slot;
}

// ---- 4-ary heap ------------------------------------------------------------
// Children of i are 4i+1..4i+4. Scheduling patterns make the two sides
// asymmetric: a freshly pushed event usually has a *later* time than most
// of the heap (timers re-arm into the future), so sift-up almost always
// terminates after one comparison, while pop pays the full descent — which
// the wider fan-out halves relative to a binary heap.

void Simulator::heap_push(const QEntry& e) {
  if (held_root_) {
    // Replace-top: the root is the firing event's dead entry and no
    // earlier than anything below it, so overwriting it and sifting down
    // yields a valid heap — one descent instead of a pop plus a push.
    held_root_ = false;
    heap_.front() = e;
    sift_down(0);
    return;
  }
  heap_.push_back(e);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Simulator::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const QEntry* const h = heap_.data();
  const QEntry e = h[i];
  for (;;) {
    const std::size_t first = (i << 2) + 1;
    if (first >= n) break;
    std::size_t best = first;
    // Straight-line min-of-4 for full sibling groups; the generic loop
    // below is only the boundary case. (Kept explicit: a variable-trip
    // inner loop here gets unrolled into slower code at -O3.)
    if (n - first >= 4) {
      if (earlier(h[first + 1], h[best])) best = first + 1;
      if (earlier(h[first + 2], h[best])) best = first + 2;
      if (earlier(h[first + 3], h[best])) best = first + 3;
    } else {
      for (std::size_t c = first + 1; c < n; ++c) {
        if (earlier(h[c], h[best])) best = c;
      }
    }
    if (!earlier(h[best], e)) break;
    heap_[i] = h[best];
    i = best;
  }
  heap_[i] = e;
}

void Simulator::heap_pop_front() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (heap_.size() > 1) sift_down(0);
}

void Simulator::rebuild_heap() {
  if (heap_.size() < 2) return;
  for (std::size_t i = (heap_.size() - 2) >> 2; i != static_cast<std::size_t>(-1); --i) {
    sift_down(i);
  }
}

void Simulator::retire_held_root() {
  if (!held_root_) return;
  held_root_ = false;
  heap_pop_front();
}

// ---- scheduling ------------------------------------------------------------

EventId Simulator::enqueue(TimePoint t, std::uint32_t slot) {
  if (t < now_) t = now_;
  Slot& s = slots_[slot];
  s.seq = next_seq_++;
  s.t_ns = t.count_ns();
  s.anchor_seq = s.seq;
  s.anchor_t = s.t_ns;
  ++scheduled_;
  ++pending_count_;
  heap_push(QEntry{(s.seq << kSlotBits) | slot, s.t_ns});
  return make_id(s.generation, slot);
}

std::uint32_t Simulator::pending_slot(EventId id) const {
  const auto low = static_cast<std::uint32_t>(id);
  if (low == 0) return kNilSlot;
  const std::uint32_t slot = low - 1;
  if (slot >= slots_.size()) return kNilSlot;
  const Slot& s = slots_[slot];
  if (s.seq == 0 || s.generation != static_cast<std::uint32_t>(id >> 32)) {
    return kNilSlot;  // already fired or firing, cancelled, or recycled slot
  }
  return slot;
}

bool Simulator::cancel(EventId id) {
  const std::uint32_t slot = pending_slot(id);
  if (slot == kNilSlot) return false;
  Slot& s = slots_[slot];
  s.seq = 0;
  s.anchor_seq = 0;     // the heap entry is now stale; discarded lazily
  node(slot).reset();   // drop the payload (e.g. a held Packet) eagerly
  release_slot(slot);
  ++cancelled_count_;
  --pending_count_;
  maybe_compact();
  return true;
}

bool Simulator::reschedule(EventId id, TimePoint t) {
  const std::uint32_t slot = pending_slot(id);
  if (slot == kNilSlot) return false;
  if (t < now_) t = now_;
  Slot& s = slots_[slot];
  s.seq = next_seq_++;  // the serial cancel + schedule_at would take
  s.t_ns = t.count_ns();
  ++cancelled_count_;
  ++scheduled_;
  // A serial only grows, so the new key is no earlier than the anchor
  // unless the deadline is: then the old entry would pop too late, and
  // the event needs a fresh one (the old goes stale). Otherwise the
  // anchor pops first and settle_front() re-pushes it at the new key.
  if (s.t_ns < s.anchor_t) {
    s.anchor_seq = s.seq;
    s.anchor_t = s.t_ns;
    heap_push(QEntry{(s.seq << kSlotBits) | slot, s.t_ns});
    maybe_compact();
  }
  return true;
}

void Simulator::maybe_compact() {
  // Cancel-heavy churn leaves stale entries behind. Sweep them out when
  // they outnumber live ones 4:1 so the heap stays O(pending) even over
  // billion-event runs; the floor of 64 keeps tiny queues from compacting
  // constantly. A held root is popped first: the sweep would remove it
  // (its event is firing), and the next push must not overwrite a live
  // entry that the rebuild moved to the root.
  if (heap_.size() <= 64 || heap_.size() <= 4 * pending_count_) return;
  retire_held_root();
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const QEntry& e) { return !live(e); }),
              heap_.end());
  rebuild_heap();
}

// ---- firing ----------------------------------------------------------------

bool Simulator::settle_front() {
  // Bring a firing-ready entry to the root: discard stale entries, and
  // re-push an anchor whose event was re-armed later at the event's
  // current key (a replace-top, one descent). Nothing fires here, so
  // run_until() can peek at the true next deadline.
  while (!heap_.empty()) {
    QEntry& top = heap_.front();
    const auto slot = static_cast<std::uint32_t>(top.seqslot & kSlotMask);
    const std::uint64_t seq = top.seqslot >> kSlotBits;
    Slot& s = slots_[slot];
    if (s.anchor_seq != seq) {
      heap_pop_front();  // cancelled or superseded; stale
      continue;
    }
    if (s.seq == seq) return true;
    s.anchor_seq = s.seq;
    s.anchor_t = s.t_ns;
    top = QEntry{(s.seq << kSlotBits) | slot, s.t_ns};
    sift_down(0);
  }
  return false;
}

void Simulator::fire_front() {
  const QEntry e = heap_.front();
  const auto slot = static_cast<std::uint32_t>(e.seqslot & kSlotMask);
  Slot& s = slots_[slot];
  s.seq = 0;
  s.anchor_seq = 0;
  --pending_count_;
  now_ = TimePoint{e.t_ns};
  ++executed_;
  // Run the callback in place: chunks never move, so nested schedule_at()
  // growing the pool cannot move this node, and the slot is only released
  // (and thus reusable) after the callback returns. operator() consumes
  // the callable (invoke + destroy, one dispatch). The dead entry stays at
  // the root for the callback's first push to overwrite.
  held_root_ = true;
  node(slot)();
  retire_held_root();
  release_slot(slot);  // re-indexed: slots_ may have grown meanwhile
}

bool Simulator::step() {
  retire_held_root();  // nested inside a callback: that event is done
  if (!settle_front()) return false;
  fire_front();
  return true;
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void Simulator::run_until(TimePoint end) {
  stopped_ = false;
  retire_held_root();
  while (!stopped_) {
    if (!settle_front() || heap_.front().t_ns > end.count_ns()) break;
    fire_front();
  }
  if (now_ < end) now_ = end;
}

}  // namespace zhuge::sim
