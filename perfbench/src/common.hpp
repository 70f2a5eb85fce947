#pragma once
// Shared types of the end-to-end benchmark program: command-line arguments,
// the metric report every workload fills in, and small statistics helpers.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spec_dir = "perfbench/specs";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload invocation reports: every attempted run or cell, the
/// failed ones with a reason, and the metrics of the requested mode.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first failures, for stderr
  std::vector<Metric> metrics;
  /// Printed for people, left out of the JSON result (not gated).
  std::vector<Metric> notes;

  void fail(const std::string& what);
  void add(const std::string& name, double value, const std::string& unit);
  void note(const std::string& name, double value, const std::string& unit);
};

/// Median / linear-interpolated quantile of a copy of `v` (0 when empty).
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// `n` simulation seeds derived from the benchmark seed; the same benchmark
/// seed always yields the same list.
[[nodiscard]] std::vector<std::uint64_t> derive_seeds(std::uint64_t seed, int n);

/// Max resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mib();

/// Host seconds of one fixed reference workload: a miniature discrete-event
/// simulation shaped like the engine's hot path (60k events of closures on
/// a heap, heap-allocated packets in 64 per-flow queues, a hash table of
/// per-packet delays). Benchmark code only, so no change to the simulator
/// moves it; other tenants of a shared host slow it in step with the
/// simulator.
[[nodiscard]] double reference_kernel_s();

/// Host seconds of one reference kernel on a quiet core of a shared 4-vCPU
/// Xeon host: converts set-up time in reference units back to seconds.
constexpr double kNominalReferenceS = 0.015;

/// Converts timed sections to reference units. Each section is divided by
/// the mean of the reference kernels run just before and just after it, so
/// the result follows the program's speed, not the host's, when the host
/// slows down or speeds up between sections or between benchmark runs.
class RefClock {
 public:
  RefClock() : last_s_(reference_kernel_s()) { probes_s_.push_back(last_s_); }

  /// Call right after a section of `wall_s`: probes again and returns the
  /// section's length in reference units.
  [[nodiscard]] double to_refs(double wall_s);

  /// Median reference kernel time so far.
  [[nodiscard]] double median_probe_s() const { return median(probes_s_); }

  /// The latest reference kernel time.
  [[nodiscard]] double last_probe_s() const { return last_s_; }

 private:
  double last_s_;
  std::vector<double> probes_s_;
};

/// Worker threads for pooled phases: half the host's cores, at most 4, so
/// that one busy tenant on a shared host does not stall the pool's tail.
[[nodiscard]] unsigned pool_threads();

}  // namespace perfbench
