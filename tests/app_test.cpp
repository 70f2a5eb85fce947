// End-to-end integration tests for the scenario engine: smoke coverage
// of every flow kind x AP-mode x qdisc combination, determinism, the
// headline Zhuge behaviour on a controlled bandwidth drop, and the spec
// features the figure benches use (bulk competitors, interferers, MCS
// re-rolls, the series flow); plus the AccessPoint's per-flow table across
// registration, unregistration and optimiser restart.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "app/access_point.hpp"
#include "app/scenario.hpp"
#include "app/sweep.hpp"
#include "trace/synthetic.hpp"

namespace zhuge::app {
namespace {

using sim::Duration;
using sim::TimePoint;
using namespace sim::literals;

std::shared_ptr<const trace::Trace> shared(trace::Trace tr) {
  return std::make_shared<const trace::Trace>(std::move(tr));
}

std::shared_ptr<const trace::Trace> steady_trace() {
  return shared(trace::constant_trace(20e6, 30_s));
}

/// One station whose downlink follows `tr`, one 1080p24 RTC flow of `kind`
/// (flow 0, recorded as the series flow), 20 s with a 3 s warm-up.
ScenarioSpec base_spec(std::shared_ptr<const trace::Trace> tr,
                       SpecFlowKind kind = SpecFlowKind::kRtpGcc) {
  ScenarioSpec spec;
  spec.duration_s = 20.0;
  spec.warmup_s = 3.0;
  spec.seed = 5;
  spec.ap_mode = ApMode::kNone;
  StationGroupSpec station;
  station.trace = std::move(tr);
  spec.stations.push_back(station);
  spec.flows.push_back(SpecFlow{.kind = kind, .zhuge = true, .fps = 24.0});
  spec.series_flow = 0;
  return spec;
}

struct Combo {
  SpecFlowKind kind;
  ApMode mode;
  QdiscKind qdisc;
};

class ScenarioSmokeTest : public ::testing::TestWithParam<Combo> {};

TEST_P(ScenarioSmokeTest, RunsAndDeliversVideo) {
  ScenarioSpec spec = base_spec(steady_trace(), GetParam().kind);
  spec.ap_mode = GetParam().mode;
  spec.stations.front().qdisc = GetParam().qdisc;
  const auto r = run_multi_station(spec);
  const auto& f = r.flows.front();
  // A clean 20 Mbps channel must deliver nearly all frames with low delay.
  EXPECT_GT(f.frames_decoded, 300u);
  EXPECT_LT(f.network_rtt_ms.quantile(0.5), 150.0);
  EXPECT_GT(f.goodput_bps, 1e6);
  EXPECT_GT(r.series->frame_rate_fps.quantile(0.5), 20.0);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, ScenarioSmokeTest,
    ::testing::Values(
        Combo{SpecFlowKind::kRtpGcc, ApMode::kNone, QdiscKind::kFifo},
        Combo{SpecFlowKind::kRtpGcc, ApMode::kNone, QdiscKind::kCoDel},
        Combo{SpecFlowKind::kRtpGcc, ApMode::kNone, QdiscKind::kFqCoDel},
        Combo{SpecFlowKind::kRtpGcc, ApMode::kZhuge, QdiscKind::kFifo},
        Combo{SpecFlowKind::kRtpGcc, ApMode::kZhuge, QdiscKind::kCoDel},
        Combo{SpecFlowKind::kTcpCopa, ApMode::kNone, QdiscKind::kFifo},
        Combo{SpecFlowKind::kTcpCopa, ApMode::kZhuge, QdiscKind::kFifo},
        Combo{SpecFlowKind::kTcpCopa, ApMode::kFastAck, QdiscKind::kFifo},
        Combo{SpecFlowKind::kTcpAbc, ApMode::kAbc, QdiscKind::kFifo}));

TEST(Scenario, DeterministicForSameSeed) {
  ScenarioSpec spec =
      base_spec(shared(trace::make_trace(trace::TraceKind::kOfficeWifi, 3, 20_s)));
  spec.ap_mode = ApMode::kZhuge;
  const auto a = run_multi_station(spec);
  const auto b = run_multi_station(spec);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(multi_result_fingerprint(a), multi_result_fingerprint(b));
  EXPECT_DOUBLE_EQ(a.flows[0].goodput_bps, b.flows[0].goodput_bps);
  EXPECT_DOUBLE_EQ(a.flows[0].network_rtt_ms.quantile(0.99),
                   b.flows[0].network_rtt_ms.quantile(0.99));
  EXPECT_EQ(a.flows[0].frames_decoded, b.flows[0].frames_decoded);
}

TEST(Scenario, SeedChangesOutcome) {
  ScenarioSpec spec =
      base_spec(shared(trace::make_trace(trace::TraceKind::kOfficeWifi, 3, 20_s)));
  const auto a = run_multi_station(spec);
  const auto b = run_multi_station(spec, 6);
  EXPECT_NE(a.events_executed, b.events_executed);
}

TEST(Scenario, TcpCcaVariantsAllRun) {
  for (SpecFlowKind kind :
       {SpecFlowKind::kTcpCopa, SpecFlowKind::kTcpBbr, SpecFlowKind::kTcpCubic}) {
    const auto r = run_multi_station(base_spec(steady_trace(), kind));
    EXPECT_GT(r.flows[0].frames_decoded, 250u) << to_string(kind);
  }
}

TEST(Scenario, CellularLinkRuns) {
  ScenarioSpec spec =
      base_spec(shared(trace::make_trace(trace::TraceKind::kCity4G, 3, 20_s)));
  spec.stations.front().link = LinkKind::kCellular;
  for (ApMode mode : {ApMode::kNone, ApMode::kZhuge}) {
    spec.ap_mode = mode;
    const auto r = run_multi_station(spec);
    EXPECT_GT(r.flows[0].frames_decoded, 300u);
  }
}

TEST(Scenario, CompetingFlowsDegradeRtc) {
  ScenarioSpec spec = base_spec(steady_trace());
  const auto clean = run_multi_station(spec);
  for (int i = 0; i < 8; ++i) {
    spec.flows.push_back(SpecFlow{.kind = SpecFlowKind::kTcpBulk});
  }
  const auto contended = run_multi_station(spec);
  // Bulk CUBIC flows through the same FIFO must hurt the RTC flow's RTT.
  EXPECT_GT(contended.flows[0].network_rtt_ms.quantile(0.9),
            clean.flows[0].network_rtt_ms.quantile(0.9));
  // The bulk flows are backlogged: together they take most of the link.
  double bulk_bps = 0.0;
  for (std::size_t i = 1; i < contended.flows.size(); ++i) {
    bulk_bps += contended.flows[i].goodput_bps;
  }
  EXPECT_GT(bulk_bps, 10e6);
}

TEST(Scenario, InterferersReduceThroughput) {
  ScenarioSpec spec = base_spec(nullptr);  // PHY mode
  spec.seed = 1;
  spec.stations.front().mcs = 3;  // 26 Mbps
  spec.interferers = 30;
  const auto noisy = run_multi_station(spec);
  spec.interferers = 0;
  const auto clean = run_multi_station(spec);
  EXPECT_LT(noisy.flows[0].goodput_bps, clean.flows[0].goodput_bps);
  EXPECT_GT(noisy.flows[0].network_rtt_ms.quantile(0.9),
            clean.flows[0].network_rtt_ms.quantile(0.9));
}

TEST(Scenario, ZhugeCutsDegradationAfterAbwDrop) {
  // The paper's headline microbenchmark (Fig. 14): 30 Mbps -> 3 Mbps.
  ScenarioSpec spec = base_spec(shared(trace::step_trace(30e6, 3e6, 20_s, 40_s)));
  spec.duration_s = 40.0;
  spec.seed = 3;
  spec.flows.front().max_bitrate_mbps = 40.0;  // let the CCA fill the link
  spec.stations.front().queue_limit_bytes = 100 * 1500;  // NS-3-style buffer

  auto degradation = [&](ApMode mode) {
    spec.ap_mode = mode;
    const auto r = run_multi_station(spec);
    return r.series->rtt_ms
        .time_above(200.0, TimePoint::zero() + 20_s, TimePoint::zero() + 40_s)
        .to_seconds();
  };
  const double rtp_base = degradation(ApMode::kNone);
  const double rtp_zhuge = degradation(ApMode::kZhuge);
  EXPECT_LT(rtp_zhuge, rtp_base);  // the shorter control loop must pay off
  EXPECT_GT(rtp_base, 0.5);        // the drop visibly hurts the baseline
}

TEST(Scenario, ZhugePredictionErrorIsBounded) {
  ScenarioSpec spec = base_spec(
      shared(trace::make_trace(trace::TraceKind::kRestaurantWifi, 3, 30_s)));
  spec.duration_s = 30.0;
  spec.ap_mode = ApMode::kZhuge;
  const auto r = run_multi_station(spec);
  ASSERT_GT(r.prediction_error_ms.count(), 1000u);
  // Paper Fig. 19: most predictions err well below the 50 ms RTT.
  EXPECT_LT(r.prediction_error_ms.quantile(0.5), 25.0);
  // The series flow is the only flow: it carries every prediction.
  EXPECT_EQ(r.series->predicted_vs_real_ms.size(), r.prediction_error_ms.count());
}

TEST(Scenario, FairnessBetweenTwoOptimisedFlows) {
  ScenarioSpec spec = base_spec(steady_trace());
  spec.ap_mode = ApMode::kZhuge;
  spec.flows.push_back(spec.flows.front());
  const auto r = run_multi_station(spec);
  ASSERT_EQ(r.flows.size(), 2u);
  const double a = r.flows[0].goodput_bps;
  const double b = r.flows[1].goodput_bps;
  EXPECT_GT(std::min(a, b) / std::max(a, b), 0.8);
}

TEST(Scenario, MixedOptimisationDoesNotStarveTheOther) {
  ScenarioSpec spec = base_spec(steady_trace());
  spec.ap_mode = ApMode::kZhuge;
  spec.flows.push_back(spec.flows.front());
  spec.flows[1].zhuge = false;  // paper Fig. 20 bar (b)
  const auto r = run_multi_station(spec);
  const double a = r.flows[0].goodput_bps;
  const double b = r.flows[1].goodput_bps;
  EXPECT_GT(std::min(a, b) / std::max(a, b), 0.75);
}

TEST(Scenario, ScpAndMcsScenariosRun) {
  ScenarioSpec spec = base_spec(nullptr);
  spec.seed = 1;
  spec.stations.front().mcs = 5;
  spec.stations.front().mcs_reroll_s = 30.0;
  // Fig. 18 "scp": a bulk transfer that toggles every 30 s.
  spec.flows.push_back(SpecFlow{.kind = SpecFlowKind::kTcpBulk, .start_s = 5.0,
                                .stop_s = 12.0});
  const auto r = run_multi_station(spec);
  EXPECT_GT(r.flows[0].frames_decoded, 250u);
  EXPECT_GT(r.flows[1].packets_delivered, 0u);
  EXPECT_EQ(r.departures, 1u);
}

TEST(Scenario, McsRerollRedrawsTheChannel) {
  // Every re-roll draws a fresh MCS from the auxiliary substream: a
  // rich video over MCS 7 must see a different run once re-rolls start.
  ScenarioSpec spec = base_spec(nullptr);
  spec.flows.front().max_bitrate_mbps = 12.0;
  const auto fixed = run_multi_station(spec);
  spec.stations.front().mcs_reroll_s = 4.0;
  const auto rerolled = run_multi_station(spec);
  EXPECT_NE(multi_result_fingerprint(fixed), multi_result_fingerprint(rerolled));
}

TEST(Scenario, RunNoLongerThanWarmupReportsZeroGoodput) {
  // Nothing is measured before the warm-up ends: goodput over an empty
  // window is 0, not 0/0.
  ScenarioSpec spec = base_spec(steady_trace());
  spec.duration_s = 3.0;  // == warmup_s
  const auto r = run_multi_station(spec);
  EXPECT_EQ(r.flows[0].goodput_bps, 0.0);
  EXPECT_EQ(r.flows[0].network_rtt_ms.count(), 0u);
}

TEST(Scenario, SeriesOffAddsNoSeriesAndKeepsFingerprint) {
  // series_flow only adds recording: switching it off drops the record
  // and leaves every other output bit-identical, events included.
  ScenarioSpec with = base_spec(steady_trace());
  ScenarioSpec without = with;
  without.series_flow = -1;
  const auto a = run_multi_station(with);
  const auto b = run_multi_station(without);
  ASSERT_TRUE(a.series.has_value());
  EXPECT_FALSE(b.series.has_value());
  EXPECT_EQ(a.flows[0].goodput_bps, b.flows[0].goodput_bps);
  EXPECT_EQ(a.agg_network_rtt_ms.samples(), b.agg_network_rtt_ms.samples());
  // The 50 ms sampler is the only extra event source.
  EXPECT_EQ(a.events_executed - b.events_executed,
            static_cast<std::uint64_t>(20.0 / 0.05));
}

/// An AccessPoint in Zhuge mode with three stations, driven by hand (the
/// simulator never runs, so every held ACK stays held until flushed).
struct ApTableFixture {
  sim::Simulator sim;
  sim::Rng rng{3, 11};
  wireless::Channel station_channel{7};
  wireless::Medium medium{sim, rng, wireless::Medium::Config{}};
  std::vector<Packet> to_server;
  AccessPoint ap;
  std::uint64_t next_uid = 1;

  ApTableFixture()
      : ap(sim, rng, medium, zhuge_config(), [](Packet&&) {},
           [this](Packet&& p) { to_server.push_back(std::move(p)); }) {
    for (std::uint32_t ip : {100u, 101u, 102u}) {
      ap.register_station(ip, station_channel, AccessPoint::StationConfig{});
    }
  }

  static AccessPoint::Config zhuge_config() {
    AccessPoint::Config cfg;
    cfg.mode = ApMode::kZhuge;
    return cfg;
  }

  /// One downlink TCP segment (creates the flow's OOB updater), then
  /// `acks` client ACKs, which the flow holds.
  void data_then_acks(const net::FlowId& flow, int acks) {
    Packet data;
    data.uid = next_uid++;
    data.flow = flow;
    data.size_bytes = 1200;
    net::TcpHeader h;
    h.seq = 0;
    h.end_seq = 1148;
    data.header = h;
    ap.from_wan(std::move(data));
    for (int i = 0; i < acks; ++i) {
      Packet ack;
      ack.uid = next_uid++;
      ack.flow = flow.reversed();
      ack.size_bytes = 60;
      net::TcpHeader a;
      a.is_ack = true;
      a.ack = 1148;
      ack.header = a;
      ap.from_client(std::move(ack));
    }
  }
};

net::FlowId tcp_flow(std::uint32_t station_ip, std::uint16_t dst_port) {
  return net::FlowId{1, station_ip, 5000, dst_port, 6};
}

TEST(AccessPoint, FlowTableKeepsLookupsAndOrderAcrossUnregisterAndRestart) {
  ApTableFixture fx;
  AccessPoint& ap = fx.ap;
  // Registered out of 5-tuple order across three stations.
  const std::vector<net::FlowId> flows = {
      tcp_flow(102, 6003), tcp_flow(100, 6007), tcp_flow(101, 6001),
      tcp_flow(100, 6002), tcp_flow(102, 6000), tcp_flow(101, 6005)};
  const std::vector<net::FlowId> never = {
      tcp_flow(100, 6000), tcp_flow(101, 6003), tcp_flow(103, 6001),
      tcp_flow(102, 6003).reversed(), tcp_flow(100, 6007).reversed()};
  const auto expect_table = [&](const std::vector<net::FlowId>& live,
                                const std::vector<net::FlowId>& gone) {
    for (const auto& f : live) EXPECT_NE(ap.zhuge_flow(f), nullptr);
    for (const auto& f : gone) EXPECT_EQ(ap.zhuge_flow(f), nullptr);
    for (const auto& f : never) EXPECT_EQ(ap.zhuge_flow(f), nullptr);
  };

  std::vector<net::FlowId> live;
  for (const auto& f : flows) {
    ap.register_rtc_flow(f);
    live.push_back(f);
    expect_table(live, {});
    EXPECT_EQ(ap.pending_feedback(), 0u);
  }

  for (std::size_t i = 0; i < flows.size(); ++i) {
    fx.data_then_acks(flows[i], 2);
    EXPECT_EQ(ap.zhuge_flow(flows[i])->pending_feedback(), 2u);
    EXPECT_EQ(ap.pending_feedback(), 2 * (i + 1));
  }
  EXPECT_TRUE(fx.to_server.empty());

  // Unregister the flow in the middle of the 5-tuple order: its two ACKs
  // are flushed, every other flow keeps its state and its holds.
  std::vector<net::FlowId> sorted = flows;
  std::sort(sorted.begin(), sorted.end());
  const net::FlowId victim = sorted[sorted.size() / 2];
  EXPECT_EQ(ap.unregister_rtc_flow(victim), 2u);
  live.erase(std::find(live.begin(), live.end(), victim));
  expect_table(live, {victim});
  EXPECT_EQ(ap.pending_feedback(), 2 * live.size());
  ASSERT_EQ(fx.to_server.size(), 2u);
  for (const Packet& p : fx.to_server) EXPECT_EQ(p.flow, victim.reversed());
  EXPECT_EQ(ap.unregister_rtc_flow(victim), 0u);  // unknown now: a no-op

  // Restart: every remaining flow is flushed in 5-tuple order, then
  // rebuilt fresh for the still-registered flows.
  fx.to_server.clear();
  ap.restart_optimizer();
  expect_table(live, {victim});
  EXPECT_EQ(ap.pending_feedback(), 0u);
  for (const auto& f : live) EXPECT_EQ(ap.zhuge_flow(f)->pending_feedback(), 0u);
  std::vector<net::FlowId> released;
  for (const Packet& p : fx.to_server) released.push_back(p.flow.reversed());
  std::vector<net::FlowId> want;
  for (const auto& f : sorted) {
    if (f != victim) want.insert(want.end(), 2, f);
  }
  EXPECT_EQ(released, want);
  EXPECT_EQ(ap.robustness().optimizer_restarts, 1u);
  EXPECT_EQ(ap.robustness().flushed_acks, 2 * flows.size());
}

}  // namespace
}  // namespace zhuge::app
