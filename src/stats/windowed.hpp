#pragma once
// Sliding-window estimators over timestamped samples.
//
// These are the measurement primitives from §4 of the paper: avg(txRate)
// and avg(dequeueIntvl) are computed over a sliding window (40 ms by
// default), while cur(...) values are read directly from the queue.
//
// Layout (PR 8): every estimator stores its window in a structure-of-arrays
// ring buffer (sim::SoaRing in sim/ring.hpp) — one contiguous power-of-two
// array of int64 timestamps and a parallel array of values — instead of a
// std::deque of {t, value} structs. The Fortune Teller records a departure
// and asks for a prediction on *every* downlink packet, so the record/
// evict/query cycle is the per-packet hot path at the AP (the paper's CPU
// budget, Fig. 21). The ring wins three ways over the deque:
//   * eviction walks a dense timestamp array (8 bytes/sample, no chunk
//     map indirection), so the common "nothing to evict" probe is one
//     load+compare and a multi-sample evict streams linearly;
//   * push_back is an index increment in steady state — the deque's
//     chunk-boundary branch and allocator touch are gone (the ring grows
//     to the window's peak occupancy and then never allocates again);
//   * timestamps and values are split, so queries that only scan one of
//     the two (eviction: timestamps; resummation: values) don't drag the
//     other through cache.
// The arithmetic — accumulation order, eviction condition, resummation
// cadence — is unchanged bit-for-bit from the deque implementation; the
// golden fingerprint suites and the SoA-equivalence tests in
// tests/stats_test.cpp and tests/fortune_teller_test.cpp pin that.

#include <cstdint>
#include <cstddef>
#include <optional>

#include "sim/random.hpp"
#include "sim/ring.hpp"
#include "sim/time.hpp"

namespace zhuge::stats {

using sim::Duration;
using sim::TimePoint;

/// Rate of a byte-counted event stream over a trailing time window.
///
/// record(t, bytes) on every departure; rate_bps(t) returns the average
/// bits/second over the last `window`. Returns nullopt until at least two
/// samples span a non-zero interval.
///
/// Accumulator exactness: `total_bytes_` is a signed 64-bit integer, so
/// the running add/subtract pairs of record()/evict() are exact — unlike
/// a floating-point accumulator there is no drift to bound, even after
/// billions of record/evict cycles (a long-run test pins this). Byte
/// counts would need to exceed 2^63 before this breaks.
class WindowedRate {
 public:
  explicit WindowedRate(Duration window)
      : window_(window), window_secs_(window.to_seconds()) {}

  void record(TimePoint t, std::int64_t bytes) {
    samples_.push_back(t.count_ns(), bytes);
    total_bytes_ += bytes;
    evict(t);
  }

  /// Average rate in bits per second over the trailing window, or nullopt
  /// if the window holds no data.
  [[nodiscard]] std::optional<double> rate_bps(TimePoint now) {
    evict(now);
    if (samples_.empty()) return std::nullopt;
    // Measure over the full window so quiet periods drag the rate down —
    // a stalled channel must read as a *low* rate, not as "no data".
    // window_secs_ caches the (loop-invariant) division done here; the
    // quotient below is the same operation on the same operands as ever.
    if (window_secs_ <= 0.0) return std::nullopt;
    return static_cast<double>(total_bytes_) * 8.0 / window_secs_;
  }

  /// Branch-light variant for the per-packet hot path: the empty-window /
  /// non-positive-rate cases collapse into `fallback` without an optional
  /// round-trip. Bit-identical to rate_bps() when that returns a value.
  [[nodiscard]] double rate_bps_or(TimePoint now, double fallback) {
    evict(now);
    if (samples_.empty()) return fallback;
    if (window_secs_ <= 0.0) return fallback;
    const double r = static_cast<double>(total_bytes_) * 8.0 / window_secs_;
    return r <= 0.0 ? fallback : r;
  }

  [[nodiscard]] Duration window() const { return window_; }
  [[nodiscard]] std::size_t sample_count() const { return samples_.size(); }

 private:
  void evict(TimePoint now) {
    const std::int64_t cutoff = (now - window_).count_ns();
    while (!samples_.empty() && samples_.front_t() < cutoff) {
      total_bytes_ -= samples_.front_v();
      samples_.pop_front();
    }
  }

  Duration window_;
  double window_secs_;  ///< window_.to_seconds(), hoisted out of queries
  sim::SoaRing<std::int64_t> samples_;
  std::int64_t total_bytes_ = 0;
};

/// Mean of real-valued samples over a trailing time window.
///
/// Hot-path properties (PR 3, re-laid-out as SoA rings in PR 8):
///  * max() is O(1) via a parallel monotonic ring (the same structure
///    WindowedMax uses) instead of rescanning every sample — BBR's
///    bandwidth filter calls max() on every delivery-rate sample. The
///    ring is lazy: callers that never ask for max() (the Fortune
///    Teller's dequeue-interval mean) pay one predicted branch per
///    record, not ring maintenance; the first max() call rebuilds the
///    ring from the live window and flips it on for good.
///  * The running `sum_` is a double, and the add-on-record /
///    subtract-on-evict pairs leave a residue of roughly one ulp per
///    cycle. Left alone for millions of cycles the residue is unbounded;
///    we re-add the window exactly every kResumPeriod records, which
///    bounds the relative error near machine epsilon at all times (the
///    long-run drift test pins recorded-vs-brute-force to 1e-9, and the
///    boundary test in tests/stats_test.cpp straddles the exact
///    resummation record with interleaved evictions).
///
/// Timestamps must be non-decreasing across record() calls — true for
/// every caller (they pass simulation "now"), asserted nowhere for speed.
class WindowedMean {
 public:
  explicit WindowedMean(Duration window) : window_(window) {}

  void record(TimePoint t, double value) {
    samples_.push_back(t.count_ns(), value);
    sum_ += value;
    if (max_live_) push_max(t.count_ns(), value);
    evict(t);
    if (++records_since_resum_ >= kResumPeriod) resum();
  }

  [[nodiscard]] std::optional<double> mean(TimePoint now) {
    evict(now);
    if (samples_.empty()) return std::nullopt;
    return sum_ / static_cast<double>(samples_.size());
  }

  /// Branch-light hot-path variant: `fallback` instead of an optional
  /// round-trip when the window is empty. Bit-identical to mean() when
  /// that returns a value (same quotient, same operands).
  [[nodiscard]] double mean_or(TimePoint now, double fallback) {
    evict(now);
    if (samples_.empty()) return fallback;
    return sum_ / static_cast<double>(samples_.size());
  }

  [[nodiscard]] std::optional<double> max(TimePoint now) {
    if (!max_live_) {
      max_live_ = true;
      for (std::size_t i = 0; i < samples_.size(); ++i) {
        push_max(samples_.t_at(i), samples_.v_at(i));
      }
    }
    evict(now);
    if (samples_.empty()) return std::nullopt;
    return max_ring_.front_v();
  }

  [[nodiscard]] std::size_t sample_count() const { return samples_.size(); }

 private:
  /// Exact-resummation cadence. Resumming a 40 ms window (a few dozen
  /// samples) every 4096 records costs well under 1% of record() time.
  static constexpr std::uint32_t kResumPeriod = 4096;

  void push_max(std::int64_t t, double value) {
    while (!max_ring_.empty() && max_ring_.back_v() <= value) {
      max_ring_.pop_back();
    }
    max_ring_.push_back(t, value);
  }

  void evict(TimePoint now) {
    const std::int64_t cutoff = (now - window_).count_ns();
    while (!samples_.empty() && samples_.front_t() < cutoff) {
      sum_ -= samples_.front_v();
      samples_.pop_front();
    }
    while (!max_ring_.empty() && max_ring_.front_t() < cutoff) {
      max_ring_.pop_front();
    }
  }

  void resum() {
    records_since_resum_ = 0;
    double s = 0.0;
    for (std::size_t i = 0; i < samples_.size(); ++i) s += samples_.v_at(i);
    sum_ = s;
  }

  Duration window_;
  sim::SoaRing<double> samples_;
  sim::SoaRing<double> max_ring_;  // monotonic non-increasing by value
  double sum_ = 0.0;
  std::uint32_t records_since_resum_ = 0;
  bool max_live_ = false;  // ring maintained only once max() is used
};

/// Maximum over a trailing time window (monotonic-ring implementation).
/// Used for maxBurstSize in the Fortune Teller's Eq. 1 adjustment.
class WindowedMax {
 public:
  explicit WindowedMax(Duration window) : window_(window) {}

  void record(TimePoint t, double value) {
    while (!ring_.empty() && ring_.back_v() <= value) ring_.pop_back();
    ring_.push_back(t.count_ns(), value);
    evict(t);
  }

  [[nodiscard]] double max(TimePoint now, double fallback = 0.0) {
    evict(now);
    return ring_.empty() ? fallback : ring_.front_v();
  }

 private:
  void evict(TimePoint now) {
    const std::int64_t cutoff = (now - window_).count_ns();
    while (!ring_.empty() && ring_.front_t() < cutoff) ring_.pop_front();
  }

  Duration window_;
  sim::SoaRing<double> ring_;
};

/// Minimum over a trailing time window (e.g. min-RTT filters in CCAs).
class WindowedMin {
 public:
  explicit WindowedMin(Duration window) : window_(window) {}

  void record(TimePoint t, double value) {
    while (!ring_.empty() && ring_.back_v() >= value) ring_.pop_back();
    ring_.push_back(t.count_ns(), value);
    evict(t);
  }

  [[nodiscard]] std::optional<double> min(TimePoint now) {
    evict(now);
    if (ring_.empty()) return std::nullopt;
    return ring_.front_v();
  }

 private:
  void evict(TimePoint now) {
    const std::int64_t cutoff = (now - window_).count_ns();
    while (!ring_.empty() && ring_.front_t() < cutoff) ring_.pop_front();
  }

  Duration window_;
  sim::SoaRing<double> ring_;
};

/// A trailing-window bag of samples supporting uniform random draws.
/// This backs the paper's delta-distribution sampling (§5.2): feedback
/// packets are delayed by a value drawn from the recent delay-delta
/// distribution, giving distributional rather than per-packet equivalence.
class WindowedSampler {
 public:
  explicit WindowedSampler(Duration window) : window_(window) {}

  void record(TimePoint t, double value) {
    samples_.push_back(t.count_ns(), value);
    evict(t);
  }

  /// Uniformly draw one of the samples currently inside the window.
  [[nodiscard]] std::optional<double> sample(TimePoint now, sim::Rng& rng) {
    evict(now);
    if (samples_.empty()) return std::nullopt;
    const auto idx = rng.uniform_int(static_cast<std::uint32_t>(samples_.size()));
    return samples_.v_at(idx);
  }

  [[nodiscard]] std::optional<double> mean(TimePoint now) {
    evict(now);
    if (samples_.empty()) return std::nullopt;
    double s = 0.0;
    for (std::size_t i = 0; i < samples_.size(); ++i) s += samples_.v_at(i);
    return s / static_cast<double>(samples_.size());
  }

  [[nodiscard]] std::size_t sample_count() const { return samples_.size(); }

 private:
  void evict(TimePoint now) {
    const std::int64_t cutoff = (now - window_).count_ns();
    while (!samples_.empty() && samples_.front_t() < cutoff) samples_.pop_front();
  }

  Duration window_;
  sim::SoaRing<double> samples_;
};

/// Classic exponentially-weighted moving average.
class Ewma {
 public:
  explicit Ewma(double alpha) : alpha_(alpha) {}

  void record(double value) {
    if (!has_value_) {
      value_ = value;
      has_value_ = true;
    } else {
      value_ = alpha_ * value + (1.0 - alpha_) * value_;
    }
  }

  [[nodiscard]] bool has_value() const { return has_value_; }
  [[nodiscard]] double value() const { return value_; }
  void reset() { has_value_ = false; value_ = 0.0; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool has_value_ = false;
};

}  // namespace zhuge::stats
