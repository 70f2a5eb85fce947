// Integration-style tests for the RTP/RTCP stack: sender and receiver
// wired back to back, with fault injection for NACK recovery and
// feedback-driven rate control.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "rtc/video.hpp"
#include "sim/simulator.hpp"
#include "transport/rtp_receiver.hpp"
#include "transport/rtp_sender.hpp"

namespace zhuge::transport {
namespace {

using net::Packet;
using sim::Duration;
using sim::Simulator;
using sim::TimePoint;
using namespace sim::literals;

struct Loop {
  Simulator sim;
  sim::Rng rng{1};
  net::PacketUidSource uids;
  net::FlowId flow{1, 2, 10, 20, 17};
  rtc::FrameStats stats;
  std::unique_ptr<RtpSender> sender;
  std::unique_ptr<RtpReceiver> receiver;
  Duration one_way = 10_ms;
  std::function<bool(const Packet&)> drop_data;
  std::function<void(const Packet&)> rtcp_tap;  ///< observe uplink RTCP

  explicit Loop(RtpSender::Config scfg = {}, RtpReceiver::Config rcfg = {}) {
    sender = std::make_unique<RtpSender>(
        sim, rng, flow, scfg, uids, [this](Packet&& p) {
          if (drop_data && drop_data(p)) return;
          sim.schedule_after(one_way, [this, p = std::move(p)]() mutable {
            receiver->on_rtp(p);
          });
        });
    receiver = std::make_unique<RtpReceiver>(
        sim, rcfg, uids,
        [this](Packet&& p) {
          if (rtcp_tap) rtcp_tap(p);
          sim.schedule_after(one_way, [this, p = std::move(p)]() mutable {
            sender->on_rtcp(p);
          });
        },
        stats);
  }
};

TEST(RtpLoop, DecodesAllFramesOnCleanPath) {
  Loop loop;
  loop.sender->start();
  loop.sim.run_until(TimePoint::zero() + 5_s);
  // 24 fps for 5 s = 120 frames; allow the in-flight tail.
  EXPECT_GE(loop.stats.frames_decoded(), 115u);
  EXPECT_EQ(loop.sender->retransmissions(), 0u);
  // Frame delay ~ one-way + packetisation, far below 100 ms.
  EXPECT_LT(loop.stats.frame_delays_ms().quantile(0.99), 100.0);
}

TEST(RtpLoop, GccRampsUpTowardMax) {
  RtpSender::Config cfg;
  cfg.video.max_bitrate_bps = 4e6;
  cfg.gcc.max_rate_bps = 4e6;
  Loop loop(cfg);
  loop.sender->start();
  loop.sim.run_until(TimePoint::zero() + 30_s);
  // Clean path: GCC should approach the encoder cap.
  EXPECT_GT(loop.sender->target_rate_bps(), 3e6);
  EXPECT_GT(loop.sender->encoder_rate_bps(), 2.5e6);
}

TEST(RtpLoop, NackRecoversLostPackets) {
  Loop loop;
  sim::Rng drop_rng(7);
  int dropped = 0;
  loop.drop_data = [&](const Packet& p) {
    if (p.is_rtp() && !p.rtp().retransmission && drop_rng.chance(0.05)) {
      ++dropped;
      return true;
    }
    return false;
  };
  loop.sender->start();
  loop.sim.run_until(TimePoint::zero() + 10_s);
  EXPECT_GT(dropped, 0);
  EXPECT_GT(loop.sender->retransmissions(), 0u);
  EXPECT_GT(loop.receiver->nacks_sent(), 0u);
  // Nearly every frame still decodes thanks to NACK recovery.
  EXPECT_GE(loop.stats.frames_decoded(), 230u);
}

TEST(RtpLoop, StallSkipAdvancesPastUnrecoverableFrame) {
  RtpReceiver::Config rcfg;
  rcfg.stall_timeout = 500_ms;
  Loop loop({}, rcfg);
  // Drop ALL packets of frame 10, including retransmissions.
  loop.drop_data = [](const Packet& p) {
    return p.is_rtp() && p.rtp().frame_id == 10;
  };
  loop.sender->start();
  loop.sim.run_until(TimePoint::zero() + 10_s);
  // The decoder skipped frame 10 and kept going.
  EXPECT_GT(loop.receiver->next_decode_frame(), 11u);
  EXPECT_GE(loop.stats.frames_decoded(), 200u);
}

TEST(RtpLoop, ReceiverReportsCarryLossFraction) {
  Loop loop;
  sim::Rng drop_rng(7);
  double last_loss = -1.0;
  // Observe RTCP on the way back to inspect receiver reports.
  loop.rtcp_tap = [&](const Packet& p) {
    if (p.is_rtcp()) {
      if (const auto* rr =
              std::get_if<net::RtcpReceiverReport>(&p.rtcp().payload)) {
        last_loss = rr->loss_fraction;
      }
    }
  };
  loop.drop_data = [&](const Packet& p) {
    return p.is_rtp() && !p.rtp().retransmission && drop_rng.chance(0.2);
  };
  loop.sender->start();
  loop.sim.run_until(TimePoint::zero() + 5_s);
  EXPECT_GT(last_loss, 0.02);
}

/// A sender with a short history whose output is captured, run for one
/// second of frames; every paced send has left by then.
struct BareSender {
  static constexpr std::size_t kHistory = 8;
  Simulator sim;
  sim::Rng rng{1};
  net::PacketUidSource uids;
  std::vector<Packet> sent;
  std::unique_ptr<RtpSender> sender;

  BareSender() {
    RtpSender::Config cfg;
    cfg.history_packets = kHistory;
    sender = std::make_unique<RtpSender>(
        sim, rng, net::FlowId{1, 2, 10, 20, 17}, cfg, uids,
        [this](Packet&& p) { sent.push_back(std::move(p)); });
    sender->start();
    sim.run_until(TimePoint::zero() + 1020_ms);
  }

  void deliver_rtcp(net::RtcpHeader h) {
    Packet p;
    p.header = std::move(h);
    sender->on_rtcp(p);
  }

  void nack(std::vector<std::uint16_t> seqs) {
    net::RtcpNack n;
    n.seqs = std::move(seqs);
    deliver_rtcp(net::RtcpHeader{std::move(n)});
  }

  /// Report TWCC seqs [lo, hi], arriving 1 ms apart.
  void twcc(std::int64_t lo, std::int64_t hi) {
    net::TwccFeedback fb;
    for (std::int64_t s = lo; s <= hi; ++s) {
      fb.entries.push_back({static_cast<std::uint16_t>(s),
                            sim.now() + Duration::millis(s - lo)});
    }
    deliver_rtcp(net::RtcpHeader{std::move(fb)});
  }
};

TEST(RtpSender, NackServesOldestRetainedSeqButNotFirstEvicted) {
  BareSender b;
  const auto n = static_cast<std::int64_t>(b.sent.size());
  ASSERT_EQ(n, static_cast<std::int64_t>(b.sender->packets_sent()));
  ASSERT_GT(n, static_cast<std::int64_t>(2 * BareSender::kHistory));
  const std::int64_t oldest = n - static_cast<std::int64_t>(BareSender::kHistory);

  b.nack({static_cast<std::uint16_t>(oldest - 1)});  // history_packets deep: gone
  EXPECT_EQ(b.sender->retransmissions(), 0u);
  ASSERT_EQ(b.sent.size(), static_cast<std::size_t>(n));

  b.nack({static_cast<std::uint16_t>(oldest)});
  EXPECT_EQ(b.sender->retransmissions(), 1u);
  ASSERT_EQ(b.sent.size(), static_cast<std::size_t>(n + 1));
  const Packet& orig = b.sent[static_cast<std::size_t>(oldest)];
  const Packet& rtx = b.sent.back();
  ASSERT_EQ(orig.rtp().seq, oldest);
  // Rebuilt from the retained header and size: same packet, new journey.
  EXPECT_EQ(rtx.rtp().seq, orig.rtp().seq);
  EXPECT_TRUE(rtx.rtp().retransmission);
  EXPECT_EQ(rtx.rtp().twcc_seq, n);  // next fresh TWCC seq
  EXPECT_EQ(rtx.rtp().frame_id, orig.rtp().frame_id);
  EXPECT_EQ(rtx.rtp().packet_in_frame, orig.rtp().packet_in_frame);
  EXPECT_EQ(rtx.rtp().packets_in_frame, orig.rtp().packets_in_frame);
  EXPECT_EQ(rtx.rtp().marker, orig.rtp().marker);
  EXPECT_EQ(rtx.rtp().capture_time, orig.rtp().capture_time);
  EXPECT_EQ(rtx.size_bytes, orig.size_bytes);
  EXPECT_EQ(rtx.flow, orig.flow);
  EXPECT_NE(rtx.uid, orig.uid);
  EXPECT_EQ(rtx.sent_time, b.sim.now());
}

TEST(RtpSender, TwccReportSpanningPruneCutoffSkipsOnlyPrunedSeqs) {
  // Once the TWCC history holds more than 4H entries it is cut back to
  // the newest 2H + 1, so after k sends the oldest retained seq is:
  const std::int64_t h = BareSender::kHistory;
  const auto first_retained = [h](std::int64_t k) {
    return k <= 4 * h ? 0 : (k - 1) - (2 * h + (k - 4 * h - 1) % (2 * h));
  };
  // Three identical senders get reports that differ only at the cutoff.
  // Pruned seqs yield no observation, so a report starting two seqs
  // below the cutoff feeds GCC's receive rate exactly what a report
  // starting at the cutoff does, and one starting above it does not.
  BareSender spans, at_cut, above;
  const auto k = static_cast<std::int64_t>(spans.sender->packets_sent());
  ASSERT_GT(k, 4 * h);
  const std::int64_t cut = first_retained(k);
  ASSERT_GT(cut, 2);
  spans.twcc(cut - 2, cut + 3);
  at_cut.twcc(cut, cut + 3);
  above.twcc(cut + 1, cut + 3);
  EXPECT_GT(at_cut.sender->gcc().receive_rate_bps(), 0.0);
  EXPECT_EQ(spans.sender->gcc().receive_rate_bps(),
            at_cut.sender->gcc().receive_rate_bps());
  EXPECT_NE(above.sender->gcc().receive_rate_bps(),
            at_cut.sender->gcc().receive_rate_bps());
}

TEST(VideoEncoder, TracksTargetBitrate) {
  sim::Rng rng(1);
  rtc::VideoConfig cfg;
  cfg.size_jitter_sigma = 0.0;
  cfg.iframe_interval = 0;
  rtc::VideoEncoder enc(cfg, rng);
  double total = 0;
  for (int i = 0; i < 240; ++i) total += static_cast<double>(enc.next_frame_bytes(2e6));
  const double rate = total * 8.0 / 10.0;  // 240 frames at 24 fps = 10 s
  EXPECT_NEAR(rate, 2e6, 0.1e6);
}

TEST(VideoEncoder, IframesLargerButAverageHolds) {
  sim::Rng rng(1);
  rtc::VideoConfig cfg;
  cfg.size_jitter_sigma = 0.0;
  cfg.iframe_interval = 48;
  cfg.iframe_ratio = 3.0;
  cfg.rate_adaptation_alpha = 1.0;
  rtc::VideoEncoder enc(cfg, rng);
  std::vector<std::uint64_t> sizes;
  for (int i = 0; i < 96; ++i) sizes.push_back(enc.next_frame_bytes(2e6));
  EXPECT_GT(sizes[0], 2 * sizes[1]);   // I-frame ~3x P-frame
  EXPECT_GT(sizes[48], 2 * sizes[49]);
  double total = 0;
  for (auto s : sizes) total += static_cast<double>(s);
  EXPECT_NEAR(total * 8.0 / 4.0, 2e6, 0.15e6);  // 96 frames = 4 s
}

TEST(VideoEncoder, RespectsMinimumBitrate) {
  sim::Rng rng(1);
  rtc::VideoConfig cfg;
  cfg.min_bitrate_bps = 300e3;
  rtc::VideoEncoder enc(cfg, rng);
  for (int i = 0; i < 50; ++i) (void)enc.next_frame_bytes(1.0);  // absurd target
  EXPECT_GE(enc.encoder_rate_bps(), 300e3 * 0.99);
}

TEST(FrameStats, PerSecondRates) {
  rtc::FrameStats fs;
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < 24; ++i) {
      const TimePoint t = TimePoint::zero() + Duration::seconds(s) +
                          Duration::millis(i * 41);
      fs.on_frame_decoded(t - 30_ms, t);
    }
  }
  const auto rates = fs.frame_rates(0, 3);
  EXPECT_DOUBLE_EQ(rates.quantile(0.5), 24.0);
  EXPECT_DOUBLE_EQ(rates.ratio_below(10.0), 0.0);
  // A window past the data counts as zero fps.
  const auto empty = fs.frame_rates(5, 8);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
}

}  // namespace
}  // namespace zhuge::transport
