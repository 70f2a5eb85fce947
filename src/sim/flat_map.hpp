#pragma once
// Sorted-vector map for small, lookup-heavy tables.
//
// The AP's per-flow and per-station tables and the multi-station
// engine's flow demux are read on every packet and written only when a
// flow or station comes or goes. A std::map pays a pointer chase per
// tree level on each read; here the entries sit in one contiguous array
// kept sorted by key, so a lookup is a binary search over adjacent
// memory and a walk is a linear scan.
//
// Iteration is in key order, exactly as std::map's: the tables that
// emit packets while walked (flow teardown, flush, restart) emit in the
// same order as before. Only the operations those tables use exist:
// find, try_emplace, erase and in-order iteration. Insertion and
// erasure shift the tail, and invalidate iterators and references to
// entries (not the objects a unique_ptr value owns); callers must not
// mutate the map while walking it.
//
// Not thread-safe, like everything else in sim/.

#include <algorithm>
#include <cstddef>
#include <tuple>
#include <utility>
#include <vector>

namespace zhuge::sim {

template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  [[nodiscard]] iterator begin() { return entries_.begin(); }
  [[nodiscard]] iterator end() { return entries_.end(); }
  [[nodiscard]] const_iterator begin() const { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const { return entries_.end(); }

  [[nodiscard]] iterator find(const K& key) {
    const iterator it = lower_bound(key);
    return it != entries_.end() && it->first == key ? it : entries_.end();
  }

  /// Insert (key, V(args...)) unless `key` is present; as std::map's,
  /// the arguments are left untouched when nothing is inserted.
  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const K& key, Args&&... args) {
    const iterator it = lower_bound(key);
    if (it != entries_.end() && it->first == key) return {it, false};
    return {entries_.emplace(it, std::piecewise_construct, std::forward_as_tuple(key),
                             std::forward_as_tuple(std::forward<Args>(args)...)),
            true};
  }

  iterator erase(const_iterator it) { return entries_.erase(it); }
  std::size_t erase(const K& key) {
    const iterator it = find(key);
    if (it == entries_.end()) return 0;
    entries_.erase(it);
    return 1;
  }

  void clear() { entries_.clear(); }

 private:
  [[nodiscard]] iterator lower_bound(const K& key) {
    return std::lower_bound(entries_.begin(), entries_.end(), key,
                            [](const value_type& e, const K& k) { return e.first < k; });
  }

  std::vector<value_type> entries_;  ///< sorted by key, keys unique
};

}  // namespace zhuge::sim
