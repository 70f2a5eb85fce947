#pragma once
// Flat power-of-two ring of (int64 key, V value) pairs.
//
// The one ring type for state that is appended at the back and retired
// from the front in order: the windowed estimators (stats/windowed.hpp)
// key it by timestamp, the drop-tail FIFO by enqueue time, and the
// transport senders by monotone sequence numbers (RTP/TWCC send history,
// TCP segments in flight). A node container (std::map, std::deque) costs
// an allocator call per element or per small block; the ring grows to
// the peak occupancy by doubling and then runs allocation-free.
//
// Structure of arrays: keys and values sit in two parallel arrays, so a
// scan over one of them (eviction walks keys, resummation walks values)
// does not drag the other through cache. Indexing is a mask, not a
// modulo. Values are moved, never copied, so V may own heap memory (a
// queued Packet). A popped slot keeps its old value until a push
// overwrites it, so such a V is moved out before the pop.
//
// Not thread-safe, like everything else in sim/.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace zhuge::sim {

template <typename V>
class SoaRing {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  void push_back(std::int64_t t, const V& v) { append(t) = v; }
  void push_back(std::int64_t t, V&& v) { append(t) = std::move(v); }

  void pop_front() {
    head_ = (head_ + 1) & mask_;
    --size_;
  }
  void pop_back() { --size_; }

  [[nodiscard]] std::int64_t front_t() const { return t_[head_]; }
  [[nodiscard]] V& front_v() { return v_[head_]; }
  [[nodiscard]] const V& front_v() const { return v_[head_]; }
  [[nodiscard]] std::int64_t back_t() const {
    return t_[(head_ + size_ - 1) & mask_];
  }
  [[nodiscard]] const V& back_v() const { return v_[(head_ + size_ - 1) & mask_]; }

  /// Ring order: i = 0 is the oldest retained entry.
  [[nodiscard]] std::int64_t t_at(std::size_t i) const {
    return t_[(head_ + i) & mask_];
  }
  [[nodiscard]] const V& v_at(std::size_t i) const { return v_[(head_ + i) & mask_]; }

 private:
  [[nodiscard]] std::size_t capacity() const { return t_.size(); }

  /// Claim the back slot under key `t`; the caller assigns its value.
  V& append(std::int64_t t) {
    if (size_ == capacity()) grow();
    const std::size_t i = (head_ + size_) & mask_;
    t_[i] = t;
    ++size_;
    return v_[i];
  }

  void grow() {
    const std::size_t cap = capacity() == 0 ? 16 : capacity() * 2;
    std::vector<std::int64_t> nt(cap);
    std::vector<V> nv(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      nt[i] = t_[(head_ + i) & mask_];
      nv[i] = std::move(v_[(head_ + i) & mask_]);
    }
    t_ = std::move(nt);
    v_ = std::move(nv);
    head_ = 0;
    mask_ = cap - 1;
  }

  std::vector<std::int64_t> t_;
  std::vector<V> v_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;  // capacity - 1 (0 while empty: never indexed)
};

}  // namespace zhuge::sim
