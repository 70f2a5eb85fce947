// Focused tests for the GCC mechanisms that the reproduction exposed as
// load-bearing: packet grouping, the windowed receive-rate estimator, the
// avg_max link-estimate regime switch, loss-cap anchoring, and AIMD-style
// loss recovery. Also covers Zhuge's opaque-transport (QUIC-like) path.

#include <gtest/gtest.h>

#include "cca/gcc.hpp"
#include "core/zhuge.hpp"
#include "queue/fifo.hpp"
#include "sim/simulator.hpp"

namespace zhuge {
namespace {

using cca::Gcc;
using cca::TwccObservation;
using sim::Duration;
using sim::TimePoint;
using namespace sim::literals;

TimePoint at(std::int64_t ms) { return TimePoint::zero() + Duration::millis(ms); }

// --- packet grouping -------------------------------------------------------

std::vector<TwccObservation> burst(std::int64_t send_ms, int n, double owd_ms,
                                   std::uint16_t& seq, double intra_jitter_ms) {
  // n packets sent within 1 ms (one burst/AMPDU) with noisy arrivals.
  std::vector<TwccObservation> v;
  for (int i = 0; i < n; ++i) {
    TwccObservation o;
    o.twcc_seq = seq++;
    o.send_time = at(send_ms) + Duration::micros(i * 100);
    o.recv_time = o.send_time + Duration::from_millis(
                                    owd_ms + (i % 2 == 0 ? intra_jitter_ms : 0.0));
    o.size_bytes = 12'000;
    v.push_back(o);
  }
  return v;
}

TEST(GccGrouping, IntraBurstJitterDoesNotTriggerOveruse) {
  Gcc g;
  std::uint16_t seq = 0;
  // Heavy intra-burst jitter (15 ms!) but zero inter-burst trend: the
  // burst grouping must absorb it and keep the rate climbing.
  const double start = g.target_rate_bps();
  for (int w = 0; w < 60; ++w) {
    std::vector<TwccObservation> obs;
    for (int b = 0; b < 4; ++b) {
      auto bb = burst(w * 100 + b * 25, 5, 20.0, seq, 15.0);
      obs.insert(obs.end(), bb.begin(), bb.end());
    }
    g.on_feedback(obs, at(w * 100 + 100));
  }
  EXPECT_GT(g.target_rate_bps(), 1.5 * start)
      << "intra-burst jitter must not be read as congestion";
}

TEST(GccGrouping, InterGroupTrendStillDetected) {
  Gcc g;
  std::uint16_t seq = 0;
  for (int w = 0; w < 40; ++w) {
    std::vector<TwccObservation> obs;
    for (int b = 0; b < 4; ++b) {
      auto bb = burst(w * 100 + b * 25, 5, 20.0, seq, 2.0);
      obs.insert(obs.end(), bb.begin(), bb.end());
    }
    g.on_feedback(obs, at(w * 100 + 100));
  }
  const double before = g.target_rate_bps();
  // Now every burst arrives 12 ms later than the previous: clear overuse.
  double owd = 20.0;
  for (int w = 40; w < 50; ++w) {
    std::vector<TwccObservation> obs;
    for (int b = 0; b < 4; ++b) {
      owd += 12.0;
      auto bb = burst(w * 100 + b * 25, 5, owd, seq, 2.0);
      obs.insert(obs.end(), bb.begin(), bb.end());
    }
    g.on_feedback(obs, at(w * 100 + 100));
  }
  EXPECT_LT(g.target_rate_bps(), before);
}

// --- receive-rate estimator -------------------------------------------------

TEST(GccReceiveRate, WindowedEstimateIgnoresBurstCompression) {
  Gcc g;
  std::uint16_t seq = 0;
  // 10 x 12 kB per 100 ms = 9.6 Mbps delivered, but each feedback's
  // packets land within 2 ms of each other (AMPDU burst). A naive
  // per-feedback estimate would read ~480 Mbps.
  for (int w = 0; w < 30; ++w) {
    std::vector<TwccObservation> obs;
    for (int i = 0; i < 10; ++i) {
      TwccObservation o;
      o.twcc_seq = seq++;
      o.send_time = at(w * 100 + i * 10);
      o.recv_time = at(w * 100 + 50) + Duration::micros(i * 200);
      o.size_bytes = 12'000;
      obs.push_back(o);
    }
    g.on_feedback(obs, at(w * 100 + 100));
  }
  EXPECT_GT(g.receive_rate_bps(), 5e6);
  EXPECT_LT(g.receive_rate_bps(), 20e6)
      << "burst compression must not inflate the receive-rate estimate";
}

// --- loss controller --------------------------------------------------------

TEST(GccLoss, CapInactiveUntilFirstLossEpisode) {
  Gcc g;
  std::uint16_t seq = 0;
  // Clean ramp with zero-loss reports interleaved: the loss cap (which
  // starts at the low initial rate) must not throttle the ramp.
  for (int w = 0; w < 100; ++w) {
    std::vector<TwccObservation> obs;
    for (int i = 0; i < 10; ++i) {
      TwccObservation o;
      o.twcc_seq = seq++;
      o.send_time = at(w * 100 + i * 10);
      o.recv_time = o.send_time + 20_ms;
      o.size_bytes = 12'000;
      obs.push_back(o);
    }
    g.on_feedback(obs, at(w * 100 + 100));
    g.on_loss_report(0.0, at(w * 100 + 100));
  }
  EXPECT_GT(g.target_rate_bps(), 3e6)
      << "a never-engaged loss cap must not bind";
}

TEST(GccLoss, CutAnchorsAtOperatingPointNotStaleCap) {
  Gcc g;
  std::uint16_t seq = 0;
  auto feed = [&](int w, double owd_ms) {
    std::vector<TwccObservation> obs;
    for (int i = 0; i < 10; ++i) {
      TwccObservation o;
      o.twcc_seq = seq++;
      o.send_time = at(w * 100 + i * 10);
      o.recv_time = o.send_time + Duration::from_millis(owd_ms);
      o.size_bytes = 12'000;
      obs.push_back(o);
    }
    g.on_feedback(obs, at(w * 100 + 100));
  };
  for (int w = 0; w < 60; ++w) feed(w, 20.0);
  // First loss episode at a high rate engages the cap high...
  g.on_loss_report(0.3, at(6000));
  // ...then a long clean stretch at a much lower operating point
  // (simulated by lowering the delivered rate via fewer bytes).
  for (int w = 61; w < 90; ++w) {
    std::vector<TwccObservation> obs;
    TwccObservation o;
    o.twcc_seq = seq++;
    o.send_time = at(w * 100);
    o.recv_time = o.send_time + 20_ms;
    o.size_bytes = 3'000;  // ~0.5 Mbps delivered
    obs.push_back(o);
    g.on_feedback(obs, at(w * 100 + 100));
  }
  // A fresh loss episode must anchor near the *current* operating point:
  // one cut should land the target well below 2 Mbps, not spend many
  // cuts working down from the stale high cap.
  g.on_loss_report(0.4, at(9100));
  EXPECT_LT(g.target_rate_bps(), 2e6);
}

TEST(GccLoss, RecoveryIsCautiousAtLowRatesAdditiveAtHighRates) {
  // The min(x1.05, +250 kbps) recovery slope: at 1 Mbps the step is
  // 50 kbps (multiplicative binds); at 20 Mbps it is 250 kbps (additive
  // binds). Verify through repeated clean updates after engineered cuts.
  auto recovered_step = [](double engage_rate_bps) {
    Gcc::Config cfg;
    cfg.max_rate_bps = 40e6;
    Gcc g(cfg);
    std::uint16_t seq = 0;
    // Establish delivered rate ~ engage_rate so the cut anchors there
    // (long enough for the delay-based ramp to clear the cut level).
    for (int w = 0; w < 120; ++w) {
      std::vector<TwccObservation> obs;
      for (int i = 0; i < 10; ++i) {
        TwccObservation o;
        o.twcc_seq = seq++;
        o.send_time = at(w * 100 + i * 10);
        o.recv_time = o.send_time + 20_ms;
        o.size_bytes = static_cast<std::uint32_t>(engage_rate_bps / 800.0);
        obs.push_back(o);
      }
      g.on_feedback(obs, at(w * 100 + 100));
    }
    g.on_loss_report(0.5, at(12100));  // engage + cut
    const double after_cut = g.target_rate_bps();
    g.on_loss_report(0.0, at(13100));  // one recovery step
    return g.target_rate_bps() - after_cut;
  };
  const double low_step = recovered_step(1e6);
  const double high_step = recovered_step(24e6);
  EXPECT_LT(low_step, 110e3);               // ~5 % of ~1 Mbps-ish cut level
  EXPECT_NEAR(high_step, 250e3, 60e3);      // additive regime
}

// --- Zhuge with an opaque (QUIC-like) transport ------------------------------

TEST(ZhugeOpaque, EncryptedTransportStillGetsOobTreatment) {
  // §5.2/§6: Zhuge never parses sequence numbers — 5-tuples are enough,
  // so a fully encrypted transport (headerless packets here) still gets
  // the delay-ACK treatment.
  sim::Simulator simu;
  sim::Rng rng(1);
  net::FlowId flow{1, 100, 443, 50000, 17};  // UDP: QUIC-like
  std::vector<net::Packet> to_server;
  core::ZhugeFlow zf(simu, rng, flow, {},
                     [&](net::Packet&& p) { to_server.push_back(std::move(p)); });
  queue::DropTailFifo q(-1);

  // Downlink data with opaque payloads (monostate header).
  net::Packet data;
  data.flow = flow;
  data.size_bytes = 1240;
  zf.on_downlink(data, q);
  EXPECT_GE(data.predicted_delay_ms, 0.0);

  // Reverse-direction opaque packet = feedback: must be held and released
  // through the scheduler, not dropped or misparsed.
  net::Packet fb;
  fb.flow = flow.reversed();
  fb.size_bytes = 60;
  EXPECT_EQ(zf.handle_uplink(std::move(fb)), core::UplinkAction::kDelay);
  simu.run();
  ASSERT_EQ(to_server.size(), 1u);  // released by the AckScheduler
  EXPECT_EQ(to_server[0].flow, flow.reversed());
}

TEST(ZhugeOpaque, DelayedReleaseReflectsPredictedDeltas) {
  sim::Simulator simu;
  sim::Rng rng(1);
  net::FlowId flow{1, 100, 443, 50000, 17};
  std::vector<TimePoint> releases;
  core::ZhugeConfig cfg;
  cfg.oob.delta_smoothing_alpha = 1.0;
  core::ZhugeFlow zf(simu, rng, flow, cfg,
                     [&](net::Packet&&) { releases.push_back(simu.now()); });
  queue::DropTailFifo q(-1);

  // Two opaque data packets whose queue grew by 10 kB in between: the
  // prediction delta is positive, so the next feedback packet is held.
  net::Packet a;
  a.flow = flow;
  a.size_bytes = 1240;
  zf.on_downlink(a, q);
  net::Packet filler;
  filler.size_bytes = 100'000;
  q.enqueue(std::move(filler), simu.now());
  net::Packet b;
  b.flow = flow;
  b.size_bytes = 1240;
  zf.on_downlink(b, q);

  net::Packet fb;
  fb.flow = flow.reversed();
  (void)zf.handle_uplink(std::move(fb));
  simu.run();
  ASSERT_EQ(releases.size(), 1u);
  EXPECT_GT(releases[0], TimePoint::zero()) << "positive delta must delay release";
}

}  // namespace
}  // namespace zhuge
