// Tests for the parallel sweep runner: serial vs multi-thread
// bit-identity of per-run results (the PR 3 acceptance criterion), grid
// construction, fingerprint sensitivity, and metric aggregation.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "app/sweep.hpp"
#include "obs/metrics.hpp"
#include "trace/synthetic.hpp"

namespace zhuge::app {
namespace {

using sim::Duration;
using namespace sim::literals;

/// 4 scenarios x 4 seeds = the 16-point grid from the acceptance
/// criterion. Duration comfortably exceeds the warmup so post-warmup
/// distributions are populated and fingerprints reflect real traffic.
std::vector<SweepPoint> sixteen_point_grid(const trace::Trace& tr) {
  std::vector<SweepPoint> scenarios;
  const auto add = [&](std::string name, ApMode mode, Protocol proto) {
    SweepPoint p;
    p.name = std::move(name);
    p.config.protocol = proto;
    p.config.ap.mode = mode;
    p.config.channel_trace = &tr;
    p.config.duration = 8_s;
    p.config.warmup = 2_s;
    scenarios.push_back(std::move(p));
  };
  add("rtp-none", ApMode::kNone, Protocol::kRtp);
  add("rtp-zhuge", ApMode::kZhuge, Protocol::kRtp);
  add("rtp-fastack", ApMode::kFastAck, Protocol::kRtp);
  add("tcp-zhuge", ApMode::kZhuge, Protocol::kTcp);
  return cross_seeds(scenarios, {1, 2, 3, 4});
}

TEST(Sweep, CrossSeedsBuildsNamedGrid) {
  std::vector<SweepPoint> scenarios(2);
  scenarios[0].name = "a";
  scenarios[1].name = "b";
  const auto grid = cross_seeds(scenarios, {7, 9});
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_EQ(grid[0].name, "a/s7");
  EXPECT_EQ(grid[0].seed, 7u);
  EXPECT_EQ(grid[1].name, "a/s9");
  EXPECT_EQ(grid[2].name, "b/s7");
  EXPECT_EQ(grid[3].name, "b/s9");
  EXPECT_EQ(grid[3].seed, 9u);
}

TEST(Sweep, EightThreadsBitIdenticalToSerial) {
  // The acceptance criterion: every per-run fingerprint from an 8-thread
  // sweep of the 16-point grid must equal the serial run's, bit for bit.
  const trace::Trace tr =
      trace::make_trace(trace::TraceKind::kRestaurantWifi, 7, 8_s);
  const auto grid = sixteen_point_grid(tr);
  ASSERT_EQ(grid.size(), 16u);

  const auto serial = run_sweep(grid, {.threads = 1});
  const auto parallel = run_sweep(grid, {.threads = 8});
  ASSERT_EQ(serial.size(), 16u);
  ASSERT_EQ(parallel.size(), 16u);

  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(parallel[i].name, serial[i].name);
    EXPECT_EQ(parallel[i].fingerprint, serial[i].fingerprint)
        << grid[i].name << ": parallel run diverged from serial";
    // Fingerprints compare hashed state; spot-check raw fields too so a
    // fingerprint bug cannot mask a real divergence.
    EXPECT_EQ(parallel[i].result.events_executed,
              serial[i].result.events_executed);
    EXPECT_EQ(parallel[i].result.primary().goodput_bps,
              serial[i].result.primary().goodput_bps);
    EXPECT_EQ(parallel[i].result.primary().frames_decoded,
              serial[i].result.primary().frames_decoded);
  }

  // Sanity: the grid is not degenerate — seeds and scenarios genuinely
  // change the outcome (FastAck matches None on RTP by design: it only
  // touches TCP ACK handling).
  std::set<std::uint64_t> distinct;
  for (const auto& run : serial) distinct.insert(run.fingerprint);
  EXPECT_GE(distinct.size(), 12u);
}

TEST(Sweep, RepeatedRunsAreReproducible) {
  const trace::Trace tr =
      trace::make_trace(trace::TraceKind::kRestaurantWifi, 3, 6_s);
  std::vector<SweepPoint> scenarios(1);
  scenarios[0].name = "rtp-zhuge";
  scenarios[0].config.ap.mode = ApMode::kZhuge;
  scenarios[0].config.channel_trace = &tr;
  scenarios[0].config.duration = 6_s;
  scenarios[0].config.warmup = 2_s;
  const auto grid = cross_seeds(scenarios, {1, 2});

  const auto first = run_sweep(grid, {.threads = 2});
  const auto second = run_sweep(grid, {.threads = 2});
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].fingerprint, second[i].fingerprint);
  }
  EXPECT_NE(first[0].fingerprint, first[1].fingerprint);  // seeds matter
}

TEST(Sweep, FingerprintIgnoresQuantileReads) {
  // Quantile queries sort a cached copy, never the samples the
  // fingerprint hashes in insertion order.
  const trace::Trace tr =
      trace::make_trace(trace::TraceKind::kRestaurantWifi, 3, 6_s);
  std::vector<SweepPoint> scenarios(1);
  scenarios[0].name = "rtp-zhuge";
  scenarios[0].config.ap.mode = ApMode::kZhuge;
  scenarios[0].config.channel_trace = &tr;
  scenarios[0].config.duration = 6_s;
  scenarios[0].config.warmup = 2_s;
  const auto runs = run_sweep(cross_seeds(scenarios, {1}), {.threads = 1});
  ASSERT_EQ(runs.size(), 1u);
  const ScenarioResult& r = runs[0].result;
  const std::uint64_t before = result_fingerprint(r);
  EXPECT_EQ(before, runs[0].fingerprint);
  ASSERT_GT(r.primary().frame_delay_ms.count(), 1u);
  for (const auto& flow : r.flows) {
    (void)flow.network_rtt_ms.quantile(0.95);
    (void)flow.downlink_owd_ms.quantile(0.5);
    (void)flow.frame_delay_ms.quantile(0.99);
    (void)flow.frame_rate_fps.min();
  }
  (void)r.sender_rtt_ms.max();
  (void)r.prediction_error_ms.ratio_above(1.0);
  EXPECT_EQ(result_fingerprint(r), before);
}

TEST(Sweep, RunSweepRestoresObsSwitches) {
  const bool metrics_was = obs::metrics_enabled();
  const bool tracing_was = obs::tracing_enabled();
  const bool invariants_was = obs::invariants_enabled();

  const trace::Trace tr = trace::constant_trace(20e6, 1_s);
  std::vector<SweepPoint> scenarios(1);
  scenarios[0].name = "tiny";
  scenarios[0].config.channel_trace = &tr;
  scenarios[0].config.duration = 1_s;
  scenarios[0].config.warmup = Duration::zero();
  (void)run_sweep(cross_seeds(scenarios, {1}), {.threads = 2});

  EXPECT_EQ(obs::metrics_enabled(), metrics_was);
  EXPECT_EQ(obs::tracing_enabled(), tracing_was);
  EXPECT_EQ(obs::invariants_enabled(), invariants_was);
}

TEST(Sweep, ExportAggregatesPerRunMetrics) {
  const trace::Trace tr = trace::constant_trace(20e6, 6_s);
  std::vector<SweepPoint> scenarios(1);
  scenarios[0].name = "steady";
  scenarios[0].config.channel_trace = &tr;
  scenarios[0].config.duration = 6_s;
  scenarios[0].config.warmup = 2_s;
  const auto runs = run_sweep(cross_seeds(scenarios, {1, 2}), {.threads = 2});

  obs::Registry registry;
  export_sweep_metrics(runs, registry);
  EXPECT_EQ(registry.counter("sweep.total.runs").value(), 2u);
  EXPECT_GT(registry.counter("sweep.total.events").value(), 0u);
  EXPECT_GT(registry.gauge("sweep.steady/s1.goodput_bps").value(), 1e6);
  EXPECT_GT(registry.gauge("sweep.steady/s2.rtt_p50_ms").value(), 0.0);
  EXPECT_EQ(registry.counter("sweep.steady/s1.events").value(),
            runs[0].result.events_executed);
}

}  // namespace
}  // namespace zhuge::app
