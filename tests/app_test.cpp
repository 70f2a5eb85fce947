// End-to-end integration tests for the scenario harness: smoke coverage
// of every protocol x AP-mode x qdisc combination, determinism, and the
// headline Zhuge behaviour on a controlled bandwidth drop; plus the
// AccessPoint's per-flow table across registration, unregistration and
// optimiser restart.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "app/access_point.hpp"
#include "app/scenario.hpp"
#include "trace/synthetic.hpp"

namespace zhuge::app {
namespace {

using sim::Duration;
using sim::TimePoint;
using namespace sim::literals;

trace::Trace steady_trace() { return trace::constant_trace(20e6, 30_s); }

ScenarioConfig base_config(const trace::Trace& tr) {
  ScenarioConfig cfg;
  cfg.channel_trace = &tr;
  cfg.duration = 20_s;
  cfg.warmup = 3_s;
  cfg.seed = 5;
  return cfg;
}

struct Combo {
  Protocol protocol;
  ApMode mode;
  QdiscKind qdisc;
};

class ScenarioSmokeTest : public ::testing::TestWithParam<Combo> {};

TEST_P(ScenarioSmokeTest, RunsAndDeliversVideo) {
  const auto tr = steady_trace();
  ScenarioConfig cfg = base_config(tr);
  cfg.protocol = GetParam().protocol;
  cfg.ap.mode = GetParam().mode;
  cfg.ap.qdisc = GetParam().qdisc;
  if (cfg.protocol == Protocol::kTcp && cfg.ap.mode == ApMode::kAbc) {
    cfg.tcp_cca = TcpCcaKind::kAbc;
  }
  const auto r = run_scenario(cfg);
  const auto& f = r.primary();
  // A clean 20 Mbps channel must deliver nearly all frames with low delay.
  EXPECT_GT(f.frames_decoded, 300u);
  EXPECT_LT(f.network_rtt_ms.quantile(0.5), 150.0);
  EXPECT_GT(f.goodput_bps, 1e6);
  EXPECT_GT(f.frame_rate_fps.quantile(0.5), 20.0);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, ScenarioSmokeTest,
    ::testing::Values(
        Combo{Protocol::kRtp, ApMode::kNone, QdiscKind::kFifo},
        Combo{Protocol::kRtp, ApMode::kNone, QdiscKind::kCoDel},
        Combo{Protocol::kRtp, ApMode::kNone, QdiscKind::kFqCoDel},
        Combo{Protocol::kRtp, ApMode::kZhuge, QdiscKind::kFifo},
        Combo{Protocol::kRtp, ApMode::kZhuge, QdiscKind::kCoDel},
        Combo{Protocol::kTcp, ApMode::kNone, QdiscKind::kFifo},
        Combo{Protocol::kTcp, ApMode::kZhuge, QdiscKind::kFifo},
        Combo{Protocol::kTcp, ApMode::kFastAck, QdiscKind::kFifo},
        Combo{Protocol::kTcp, ApMode::kAbc, QdiscKind::kFifo}));

TEST(Scenario, DeterministicForSameSeed) {
  const auto tr = trace::make_trace(trace::TraceKind::kOfficeWifi, 3, 20_s);
  ScenarioConfig cfg = base_config(tr);
  cfg.protocol = Protocol::kRtp;
  cfg.ap.mode = ApMode::kZhuge;
  const auto a = run_scenario(cfg);
  const auto b = run_scenario(cfg);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_DOUBLE_EQ(a.primary().goodput_bps, b.primary().goodput_bps);
  EXPECT_DOUBLE_EQ(a.primary().network_rtt_ms.quantile(0.99),
                   b.primary().network_rtt_ms.quantile(0.99));
  EXPECT_EQ(a.primary().frames_decoded, b.primary().frames_decoded);
}

TEST(Scenario, SeedChangesOutcome) {
  const auto tr = trace::make_trace(trace::TraceKind::kOfficeWifi, 3, 20_s);
  ScenarioConfig cfg = base_config(tr);
  const auto a = run_scenario(cfg);
  cfg.seed = 6;
  const auto b = run_scenario(cfg);
  EXPECT_NE(a.events_executed, b.events_executed);
}

TEST(Scenario, TcpCcaVariantsAllRun) {
  const auto tr = steady_trace();
  for (TcpCcaKind cca : {TcpCcaKind::kCopa, TcpCcaKind::kBbr, TcpCcaKind::kCubic}) {
    ScenarioConfig cfg = base_config(tr);
    cfg.protocol = Protocol::kTcp;
    cfg.tcp_cca = cca;
    const auto r = run_scenario(cfg);
    EXPECT_GT(r.primary().frames_decoded, 250u) << static_cast<int>(cca);
  }
}

TEST(Scenario, NadaAndScreamVariantsRun) {
  const auto tr = steady_trace();
  for (const auto cca : {transport::RtpCca::kNada, transport::RtpCca::kScream}) {
    ScenarioConfig cfg = base_config(tr);
    cfg.protocol = Protocol::kRtp;
    cfg.rtp_cca = cca;
    const auto r = run_scenario(cfg);
    EXPECT_GT(r.primary().frames_decoded, 300u) << static_cast<int>(cca);
    EXPECT_GT(r.primary().goodput_bps, 1e6) << static_cast<int>(cca);
  }
}

TEST(Scenario, CellularLinkRuns) {
  const auto tr = trace::make_trace(trace::TraceKind::kCity4G, 3, 20_s);
  ScenarioConfig cfg = base_config(tr);
  cfg.ap.link = LinkKind::kCellular;
  for (ApMode mode : {ApMode::kNone, ApMode::kZhuge}) {
    cfg.ap.mode = mode;
    const auto r = run_scenario(cfg);
    EXPECT_GT(r.primary().frames_decoded, 300u);
  }
}

TEST(Scenario, CompetingFlowsDegradeRtc) {
  const auto tr = steady_trace();
  ScenarioConfig cfg = base_config(tr);
  cfg.protocol = Protocol::kRtp;
  const auto clean = run_scenario(cfg);
  cfg.competing_bulk_flows = 8;
  const auto contended = run_scenario(cfg);
  // Bulk CUBIC flows through the same FIFO must hurt the RTC flow's RTT.
  EXPECT_GT(contended.primary().network_rtt_ms.quantile(0.9),
            clean.primary().network_rtt_ms.quantile(0.9));
}

TEST(Scenario, InterferersReduceThroughput) {
  ScenarioConfig cfg;
  cfg.channel_trace = nullptr;  // PHY mode
  cfg.mcs_index = 3;            // 26 Mbps
  cfg.duration = 20_s;
  cfg.warmup = 3_s;
  cfg.interferers = 30;
  const auto noisy = run_scenario(cfg);
  cfg.interferers = 0;
  const auto clean = run_scenario(cfg);
  EXPECT_LT(noisy.primary().goodput_bps, clean.primary().goodput_bps);
  EXPECT_GT(noisy.primary().network_rtt_ms.quantile(0.9),
            clean.primary().network_rtt_ms.quantile(0.9));
}

TEST(Scenario, ZhugeCutsDegradationAfterAbwDrop) {
  // The paper's headline microbenchmark (Fig. 14): 30 Mbps -> 3 Mbps.
  const auto tr = trace::step_trace(30e6, 3e6, 20_s, 40_s);
  ScenarioConfig cfg;
  cfg.channel_trace = &tr;
  cfg.duration = 40_s;
  cfg.warmup = 3_s;
  cfg.seed = 3;
  cfg.video.max_bitrate_bps = 40e6;        // let the CCA fill the link
  cfg.ap.queue_limit_bytes = 100 * 1500;   // NS-3-style bottleneck buffer

  auto degradation = [&](ApMode mode, Protocol proto) {
    cfg.ap.mode = mode;
    cfg.protocol = proto;
    const auto r = run_scenario(cfg);
    return r.rtt_series_ms
        .time_above(200.0, TimePoint::zero() + 20_s, TimePoint::zero() + 40_s)
        .to_seconds();
  };
  const double rtp_base = degradation(ApMode::kNone, Protocol::kRtp);
  const double rtp_zhuge = degradation(ApMode::kZhuge, Protocol::kRtp);
  EXPECT_LT(rtp_zhuge, rtp_base);  // the shorter control loop must pay off
  EXPECT_GT(rtp_base, 0.5);        // the drop visibly hurts the baseline
}

TEST(Scenario, ZhugePredictionErrorIsBounded) {
  const auto tr = trace::make_trace(trace::TraceKind::kRestaurantWifi, 3, 30_s);
  ScenarioConfig cfg = base_config(tr);
  cfg.duration = 30_s;
  cfg.ap.mode = ApMode::kZhuge;
  const auto r = run_scenario(cfg);
  ASSERT_GT(r.prediction_error_ms.count(), 1000u);
  // Paper Fig. 19: most predictions err well below the 50 ms RTT.
  EXPECT_LT(r.prediction_error_ms.quantile(0.5), 25.0);
}

TEST(Scenario, FairnessBetweenTwoOptimisedFlows) {
  const auto tr = steady_trace();
  ScenarioConfig cfg = base_config(tr);
  cfg.protocol = Protocol::kRtp;
  cfg.rtc_flows = 2;
  cfg.ap.mode = ApMode::kZhuge;
  const auto r = run_scenario(cfg);
  ASSERT_EQ(r.flows.size(), 2u);
  const double a = r.flows[0].goodput_bps;
  const double b = r.flows[1].goodput_bps;
  EXPECT_GT(std::min(a, b) / std::max(a, b), 0.8);
}

TEST(Scenario, MixedOptimisationDoesNotStarveTheOther) {
  const auto tr = steady_trace();
  ScenarioConfig cfg = base_config(tr);
  cfg.protocol = Protocol::kRtp;
  cfg.rtc_flows = 2;
  cfg.ap.mode = ApMode::kZhuge;
  cfg.optimize_flow = {true, false};  // paper Fig. 20 bar (b)
  const auto r = run_scenario(cfg);
  const double a = r.flows[0].goodput_bps;
  const double b = r.flows[1].goodput_bps;
  EXPECT_GT(std::min(a, b) / std::max(a, b), 0.75);
}

TEST(Scenario, ScpAndMcsScenariosRun) {
  ScenarioConfig cfg;
  cfg.mcs_index = 5;
  cfg.duration = 20_s;
  cfg.warmup = 3_s;
  cfg.scp_periodic_competitor = true;
  cfg.mcs_random_switch = true;
  const auto r = run_scenario(cfg);
  EXPECT_GT(r.primary().frames_decoded, 250u);
}

TEST(Scenario, RunNoLongerThanWarmupReportsZeroGoodput) {
  // Nothing is measured before the warm-up ends: goodput over an empty
  // window is 0, not 0/0.
  const auto tr = steady_trace();
  ScenarioConfig cfg = base_config(tr);
  cfg.duration = 3_s;
  const auto r = run_scenario(cfg);
  EXPECT_EQ(r.primary().goodput_bps, 0.0);
  EXPECT_EQ(r.primary().network_rtt_ms.count(), 0u);
}

/// An AccessPoint in Zhuge mode with three stations, driven by hand (the
/// simulator never runs, so every held ACK stays held until flushed).
struct ApTableFixture {
  sim::Simulator sim;
  sim::Rng rng{3, 11};
  wireless::Channel channel{7};
  wireless::Channel station_channel{7};
  wireless::Medium medium{sim, rng, wireless::Medium::Config{}};
  std::vector<Packet> to_server;
  AccessPoint ap;
  std::uint64_t next_uid = 1;

  ApTableFixture()
      : ap(sim, rng, channel, medium, zhuge_config(), [](Packet&&) {},
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
