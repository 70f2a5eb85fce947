#pragma once
// Drop-tail FIFO — the paper's baseline queue discipline.
//
// Packets and their enqueue instants share one sim::SoaRing, which grows
// to the queue's peak depth; after that, enqueue and dequeue allocate
// nothing.

#include "queue/qdisc.hpp"
#include "sim/ring.hpp"

namespace zhuge::queue {

/// Byte-bounded drop-tail FIFO.
class DropTailFifo : public Qdisc {
 public:
  /// `limit_bytes` < 0 means unbounded (useful in unit tests).
  explicit DropTailFifo(std::int64_t limit_bytes)
      : Qdisc("queue.fifo"), limit_bytes_(limit_bytes) {}

  bool enqueue(Packet&& p, TimePoint now) override {
    if (limit_bytes_ >= 0 && bytes_ + p.size_bytes > limit_bytes_) {
      ++drops_;
      obs_dropped(p, now, "tail_drop");
      return false;
    }
    bytes_ += p.size_bytes;
    if (queue_.empty()) head_since_ = now;
    queue_.push_back(now.count_ns(), std::move(p));
    obs_enqueued(queue_.back_v(), now);
    return true;
  }

  std::optional<Packet> dequeue(TimePoint now) override {
    std::optional<Packet> p;  // the one return value: built in place
    if (queue_.empty()) return p;
    p.emplace(std::move(queue_.front_v()));
    const TimePoint enq{queue_.front_t()};
    queue_.pop_front();
    bytes_ -= p->size_bytes;
    head_since_ = queue_.empty() ? std::optional<TimePoint>{} : now;
    obs_dequeued(*p, now, now - enq);
    return p;
  }

  [[nodiscard]] const Packet* peek() const override {
    return queue_.empty() ? nullptr : &queue_.front_v();
  }
  [[nodiscard]] std::int64_t byte_count() const override { return bytes_; }
  [[nodiscard]] std::size_t packet_count() const override { return queue_.size(); }
  [[nodiscard]] std::optional<TimePoint> head_since() const override { return head_since_; }

 private:
  std::int64_t limit_bytes_;
  std::int64_t bytes_ = 0;
  sim::SoaRing<Packet> queue_;  ///< keyed by enqueue time (ns), for sojourn
  std::optional<TimePoint> head_since_;
};

}  // namespace zhuge::queue
