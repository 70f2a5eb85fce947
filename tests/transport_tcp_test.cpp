// Integration-style tests for the TCP-like stack: sender and receiver
// wired back to back through configurable fault-injecting pipes.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "cca/cubic.hpp"
#include "cca/copa.hpp"
#include "sim/simulator.hpp"
#include "transport/tcp_receiver.hpp"
#include "transport/tcp_sender.hpp"

namespace zhuge::transport {
namespace {

using net::Packet;
using sim::Duration;
using sim::Simulator;
using sim::TimePoint;
using namespace sim::literals;

/// Back-to-back sender/receiver pair over delay pipes with optional
/// deterministic fault injection.
struct Loop {
  Simulator sim;
  net::PacketUidSource uids;
  net::FlowId flow{1, 2, 10, 20, 6};
  std::unique_ptr<TcpSender> sender;
  std::unique_ptr<TcpReceiver> receiver;
  std::vector<std::tuple<std::uint32_t, TimePoint, TimePoint>> frames;
  Duration one_way = 10_ms;
  std::function<bool(const Packet&)> drop_data;  ///< return true to drop

  explicit Loop(std::unique_ptr<cca::CongestionControl> cca = nullptr) {
    if (!cca) cca = std::make_unique<cca::Cubic>();
    sender = std::make_unique<TcpSender>(
        sim, flow, std::move(cca), TcpSender::Config{}, uids,
        [this](Packet&& p) {
          if (drop_data && drop_data(p)) return;
          sim.schedule_after(one_way, [this, p = std::move(p)]() mutable {
            receiver->on_data(p);
          });
        });
    receiver = std::make_unique<TcpReceiver>(
        sim, TcpReceiver::Config{}, uids,
        [this](Packet&& p) {
          sim.schedule_after(one_way, [this, p = std::move(p)]() mutable {
            sender->on_ack(p);
          });
        },
        [this](std::uint32_t id, TimePoint cap, TimePoint now) {
          frames.emplace_back(id, cap, now);
        });
  }
};

TEST(TcpLoop, DeliversFramesInOrderExactlyOnce) {
  Loop loop;
  for (std::uint32_t i = 0; i < 20; ++i) {
    loop.sender->write_frame(i, loop.sim.now(), 5000);
  }
  loop.sim.run_until(TimePoint::zero() + 10_s);
  ASSERT_EQ(loop.frames.size(), 20u);
  for (std::uint32_t i = 0; i < 20; ++i) {
    EXPECT_EQ(std::get<0>(loop.frames[i]), i);
  }
  EXPECT_EQ(loop.receiver->contiguous_received(), 20u * 5000u);
  EXPECT_EQ(loop.sender->bytes_in_flight(), 0u);
}

TEST(TcpLoop, MeasuresRttNearPathRtt) {
  Loop loop;
  loop.sender->write_frame(0, loop.sim.now(), 50'000);
  loop.sim.run_until(TimePoint::zero() + 5_s);
  EXPECT_NEAR(loop.sender->smoothed_rtt().to_millis(), 20.0, 3.0);
}

TEST(TcpLoop, FastRetransmitRecoversSingleLoss) {
  Loop loop;
  int dropped = 0;
  loop.drop_data = [&](const Packet& p) {
    // Drop exactly one data packet (the third one).
    if (!p.tcp().is_ack && p.tcp().seq == 2 * 1200 && dropped == 0 &&
        p.tcp().end_seq <= 20'000) {
      ++dropped;
      return true;
    }
    return false;
  };
  loop.sender->write_frame(0, loop.sim.now(), 30'000);
  loop.sim.run_until(TimePoint::zero() + 5_s);
  EXPECT_EQ(dropped, 1);
  ASSERT_EQ(loop.frames.size(), 1u);
  EXPECT_GE(loop.sender->retransmissions(), 1u);
  EXPECT_EQ(loop.receiver->contiguous_received(), 30'000u);
}

TEST(TcpLoop, RtoRecoversFromAckBlackhole) {
  Loop loop;
  bool blackhole = true;
  loop.drop_data = [&](const Packet& p) { return blackhole && !p.tcp().is_ack; };
  loop.sender->write_frame(0, loop.sim.now(), 2400);
  loop.sim.schedule_at(TimePoint::zero() + 1_s, [&] { blackhole = false; });
  loop.sim.run_until(TimePoint::zero() + 20_s);
  ASSERT_EQ(loop.frames.size(), 1u);
  EXPECT_GE(loop.sender->retransmissions(), 1u);
}

TEST(TcpLoop, SurvivesHeavyRandomLoss) {
  Loop loop;
  sim::Rng rng(3);
  loop.drop_data = [&](const Packet& p) {
    return !p.tcp().is_ack && rng.chance(0.2);
  };
  for (std::uint32_t i = 0; i < 10; ++i) {
    loop.sender->write_frame(i, loop.sim.now(), 6000);
  }
  loop.sim.run_until(TimePoint::zero() + 60_s);
  EXPECT_EQ(loop.frames.size(), 10u);
  EXPECT_EQ(loop.receiver->contiguous_received(), 60'000u);
}

TEST(TcpLoop, RetransmittedFrameDeliversOnce) {
  Loop loop;
  int dropped = 0;
  loop.drop_data = [&](const Packet& p) {
    if (!p.tcp().is_ack && dropped < 3 && p.tcp().seq < 3600) {
      ++dropped;
      return true;
    }
    return false;
  };
  loop.sender->write_frame(0, loop.sim.now(), 3600);
  loop.sender->write_frame(1, loop.sim.now(), 3600);
  loop.sim.run_until(TimePoint::zero() + 30_s);
  ASSERT_EQ(loop.frames.size(), 2u);  // exactly once each
}

TEST(TcpLoop, BacklogDrainsEventually) {
  Loop loop(std::make_unique<cca::Copa>());
  for (std::uint32_t i = 0; i < 50; ++i) {
    loop.sender->write_frame(i, loop.sim.now(), 10'000);
  }
  EXPECT_GT(loop.sender->backlog_bytes(), 0u);
  loop.sim.run_until(TimePoint::zero() + 60_s);
  EXPECT_EQ(loop.sender->backlog_bytes(), 0u);
  EXPECT_EQ(loop.frames.size(), 50u);
}

TEST(TcpReceiver, MergesOutOfOrderIntervals) {
  Simulator sim;
  net::PacketUidSource uids;
  std::vector<Packet> acks;
  TcpReceiver rx(sim, {}, uids, [&](Packet&& p) { acks.push_back(std::move(p)); },
                 nullptr);
  auto data = [&](std::uint64_t seq, std::uint64_t end) {
    Packet p;
    p.flow = net::FlowId{1, 2, 3, 4, 6};
    net::TcpHeader h;
    h.seq = seq;
    h.end_seq = end;
    h.frame_end_seq = 10'000;
    p.header = h;
    return p;
  };
  rx.on_data(data(1200, 2400));  // hole at [0,1200)
  EXPECT_EQ(acks.back().tcp().ack, 0u);
  EXPECT_EQ(acks.back().tcp().sack_upto, 2400u);
  rx.on_data(data(2400, 3600));
  EXPECT_EQ(acks.back().tcp().ack, 0u);
  rx.on_data(data(0, 1200));  // fills the hole
  EXPECT_EQ(acks.back().tcp().ack, 3600u);
  EXPECT_EQ(rx.contiguous_received(), 3600u);

  // In order with nothing buffered: the fast path.
  rx.on_data(data(3600, 4800));
  EXPECT_EQ(acks.back().tcp().ack, 4800u);
  // A hole, then an in-order segment that stops short of the buffered
  // interval (fast path) and one that ends exactly at its start (merge).
  rx.on_data(data(7200, 8400));
  EXPECT_EQ(acks.back().tcp().ack, 4800u);
  EXPECT_EQ(acks.back().tcp().sack_upto, 8400u);
  rx.on_data(data(4800, 6000));
  EXPECT_EQ(acks.back().tcp().ack, 6000u);
  rx.on_data(data(6000, 7200));  // fills the hole
  EXPECT_EQ(acks.back().tcp().ack, 8400u);
  rx.on_data(data(2400, 3600));  // stale duplicate
  EXPECT_EQ(acks.back().tcp().ack, 8400u);
  rx.on_data(data(8000, 9600));  // overlaps the prefix
  EXPECT_EQ(acks.back().tcp().ack, 9600u);
  EXPECT_EQ(rx.contiguous_received(), 9600u);
}

TEST(TcpReceiver, EchoesTimestampAndAbcMark) {
  Simulator sim;
  net::PacketUidSource uids;
  std::vector<Packet> acks;
  TcpReceiver rx(sim, {}, uids, [&](Packet&& p) { acks.push_back(std::move(p)); },
                 nullptr);
  Packet p;
  p.flow = net::FlowId{1, 2, 3, 4, 6};
  net::TcpHeader h;
  h.seq = 0;
  h.end_seq = 1200;
  h.ts_val = 12345;
  h.abc_mark = net::AbcMark::kAccelerate;
  p.header = h;
  rx.on_data(p);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_TRUE(acks[0].tcp().is_ack);
  EXPECT_EQ(acks[0].tcp().ts_echo, 12345u);
  EXPECT_EQ(acks[0].tcp().abc_echo, net::AbcMark::kAccelerate);
  EXPECT_EQ(acks[0].flow, p.flow.reversed());
}

}  // namespace
}  // namespace zhuge::transport
