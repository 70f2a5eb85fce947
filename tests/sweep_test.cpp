// Tests for the parallel spec-sweep runner: serial vs multi-thread
// bit-identity of per-run results, grid construction, fingerprint
// sensitivity, and metric aggregation.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "app/sweep.hpp"
#include "obs/metrics.hpp"
#include "trace/synthetic.hpp"

namespace zhuge::app {
namespace {

using sim::Duration;
using namespace sim::literals;

/// One station following `tr`, one 1080p24 RTC flow of `kind` on an AP
/// running `mode`.
ScenarioSpec single_flow_spec(std::string name, ApMode mode, SpecFlowKind kind,
                              std::shared_ptr<const trace::Trace> tr,
                              double duration_s) {
  ScenarioSpec spec;
  spec.name = std::move(name);
  spec.duration_s = duration_s;
  spec.warmup_s = 2.0;
  spec.ap_mode = mode;
  StationGroupSpec station;
  station.trace = std::move(tr);
  spec.stations.push_back(station);
  spec.flows.push_back(SpecFlow{.kind = kind, .zhuge = true, .fps = 24.0});
  return spec;
}

std::shared_ptr<const trace::Trace> shared(trace::Trace tr) {
  return std::make_shared<const trace::Trace>(std::move(tr));
}

/// 4 scenarios x 4 seeds = the 16-point grid from the acceptance
/// criterion. Duration comfortably exceeds the warmup so post-warmup
/// distributions are populated and fingerprints reflect real traffic.
std::vector<SpecSweepPoint> sixteen_point_grid(
    const std::shared_ptr<const trace::Trace>& tr) {
  std::vector<SpecSweepPoint> grid;
  const auto add = [&](std::string name, ApMode mode, SpecFlowKind kind) {
    const ScenarioSpec spec = single_flow_spec(std::move(name), mode, kind, tr, 8.0);
    for (const auto& p : cross_spec_seeds(spec, {1, 2, 3, 4})) grid.push_back(p);
  };
  add("rtp-none", ApMode::kNone, SpecFlowKind::kRtpGcc);
  add("rtp-zhuge", ApMode::kZhuge, SpecFlowKind::kRtpGcc);
  add("rtp-fastack", ApMode::kFastAck, SpecFlowKind::kRtpGcc);
  add("tcp-zhuge", ApMode::kZhuge, SpecFlowKind::kTcpCopa);
  return grid;
}

TEST(Sweep, CrossSeedsBuildsNamedGrid) {
  ScenarioSpec spec;
  spec.name = "a";
  const auto grid = cross_spec_seeds(spec, {7, 9});
  ASSERT_EQ(grid.size(), 2u);
  EXPECT_EQ(grid[0].name, "a/s7");
  EXPECT_EQ(grid[0].seed, 7u);
  EXPECT_EQ(grid[1].name, "a/s9");
  EXPECT_EQ(grid[1].seed, 9u);
  EXPECT_EQ(grid[1].spec.name, "a");
}

TEST(Sweep, EightThreadsBitIdenticalToSerial) {
  // The acceptance criterion: every per-run fingerprint from an 8-thread
  // sweep of the 16-point grid must equal the serial run's, bit for bit.
  const auto grid = sixteen_point_grid(
      shared(trace::make_trace(trace::TraceKind::kRestaurantWifi, 7, 8_s)));
  ASSERT_EQ(grid.size(), 16u);

  const auto serial = run_spec_sweep(grid, {.threads = 1});
  const auto parallel = run_spec_sweep(grid, {.threads = 8});
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
    EXPECT_EQ(parallel[i].result.flows[0].goodput_bps,
              serial[i].result.flows[0].goodput_bps);
    EXPECT_EQ(parallel[i].result.flows[0].frames_decoded,
              serial[i].result.flows[0].frames_decoded);
  }

  // Sanity: the grid is not degenerate — seeds and scenarios genuinely
  // change the outcome (FastAck matches None on RTP by design: it only
  // touches TCP ACK handling).
  std::set<std::uint64_t> distinct;
  for (const auto& run : serial) distinct.insert(run.fingerprint);
  EXPECT_GE(distinct.size(), 12u);
}

TEST(Sweep, RepeatedRunsAreReproducible) {
  const ScenarioSpec spec = single_flow_spec(
      "rtp-zhuge", ApMode::kZhuge, SpecFlowKind::kRtpGcc,
      shared(trace::make_trace(trace::TraceKind::kRestaurantWifi, 3, 6_s)), 6.0);
  const auto grid = cross_spec_seeds(spec, {1, 2});

  const auto first = run_spec_sweep(grid, {.threads = 2});
  const auto second = run_spec_sweep(grid, {.threads = 2});
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].fingerprint, second[i].fingerprint);
  }
  EXPECT_NE(first[0].fingerprint, first[1].fingerprint);  // seeds matter
}

TEST(Sweep, FingerprintIgnoresQuantileReads) {
  // Quantile queries sort a cached copy, never the samples the
  // fingerprint hashes in insertion order.
  ScenarioSpec spec = single_flow_spec(
      "rtp-zhuge", ApMode::kZhuge, SpecFlowKind::kRtpGcc,
      shared(trace::make_trace(trace::TraceKind::kRestaurantWifi, 3, 6_s)), 6.0);
  spec.series_flow = 0;
  const auto runs = run_spec_sweep(cross_spec_seeds(spec, {1}), {.threads = 1});
  ASSERT_EQ(runs.size(), 1u);
  const MultiStationResult& r = runs[0].result;
  const std::uint64_t before = multi_result_fingerprint(r);
  EXPECT_EQ(before, runs[0].fingerprint);
  ASSERT_GT(r.flows[0].frame_delay_ms.count(), 1u);
  for (const auto& flow : r.flows) {
    (void)flow.network_rtt_ms.quantile(0.95);
    (void)flow.downlink_owd_ms.quantile(0.5);
    (void)flow.frame_delay_ms.quantile(0.99);
  }
  (void)r.series->frame_rate_fps.min();
  (void)r.agg_network_rtt_ms.max();
  (void)r.prediction_error_ms.ratio_above(1.0);
  EXPECT_EQ(multi_result_fingerprint(r), before);
}

TEST(Sweep, FingerprintCoversTheSeries) {
  // The series flow's record is hashed when present: perturbing one
  // recorded sample changes the fingerprint.
  ScenarioSpec spec = single_flow_spec(
      "rtp-zhuge", ApMode::kZhuge, SpecFlowKind::kRtpGcc,
      shared(trace::constant_trace(20e6, 6_s)), 6.0);
  spec.series_flow = 0;
  MultiStationResult r = run_multi_station(spec);
  const std::uint64_t before = multi_result_fingerprint(r);
  ASSERT_FALSE(r.series->goodput_bps.points().empty());
  r.series->predicted_vs_real_ms.emplace_back(1.0, 2.0);
  EXPECT_NE(multi_result_fingerprint(r), before);
}

TEST(Sweep, RunSweepRestoresObsSwitches) {
  const bool metrics_was = obs::metrics_enabled();
  const bool tracing_was = obs::tracing_enabled();
  const bool invariants_was = obs::invariants_enabled();

  ScenarioSpec spec = single_flow_spec("tiny", ApMode::kZhuge,
                                       SpecFlowKind::kRtpGcc,
                                       shared(trace::constant_trace(20e6, 1_s)), 1.0);
  spec.warmup_s = 0.0;
  (void)run_spec_sweep(cross_spec_seeds(spec, {1}), {.threads = 2});

  EXPECT_EQ(obs::metrics_enabled(), metrics_was);
  EXPECT_EQ(obs::tracing_enabled(), tracing_was);
  EXPECT_EQ(obs::invariants_enabled(), invariants_was);
}

TEST(Sweep, ExportAggregatesPerRunMetrics) {
  const ScenarioSpec spec = single_flow_spec(
      "steady", ApMode::kZhuge, SpecFlowKind::kRtpGcc,
      shared(trace::constant_trace(20e6, 6_s)), 6.0);
  const auto runs =
      run_spec_sweep(cross_spec_seeds(spec, {1, 2}), {.threads = 2});

  obs::Registry registry;
  export_spec_sweep_metrics(runs, registry);
  EXPECT_EQ(registry.counter("mssweep.total.runs").value(), 2u);
  EXPECT_GT(registry.counter("mssweep.total.events").value(), 0u);
  EXPECT_GT(registry.gauge("mssweep.steady/s1.rtt_p50_ms").value(), 0.0);
  EXPECT_GT(registry.gauge("mssweep.steady/s2.frame_delay_p99_ms").value(), 0.0);
  EXPECT_EQ(registry.counter("mssweep.steady/s1.events").value(),
            runs[0].result.events_executed);
  EXPECT_EQ(registry.counter("mssweep.steady/s1.arrivals").value(), 1u);
}

}  // namespace
}  // namespace zhuge::app
