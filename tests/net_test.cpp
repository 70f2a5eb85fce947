// Unit tests for the packet model, flow identities, sequence unwrapping
// and the wired point-to-point link.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/seq.hpp"
#include "prop.hpp"
#include "sim/pool.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace zhuge::net {
namespace {

using sim::Duration;
using sim::Simulator;
using sim::TimePoint;
using namespace sim::literals;

// Packets travel by rvalue: a handler cannot be handed an lvalue, so no
// hop copies a packet unless the copy is written out (`net::Packet(p)`).
static_assert(std::is_invocable_v<PacketHandler, Packet&&>);
static_assert(!std::is_invocable_v<PacketHandler, Packet&>);
static_assert(!std::is_invocable_v<PacketHandler, const Packet&>);

TEST(FlowId, ReversedSwapsEndpoints) {
  const FlowId f{1, 2, 100, 200, 17};
  const FlowId r = f.reversed();
  EXPECT_EQ(r.src_ip, 2u);
  EXPECT_EQ(r.dst_ip, 1u);
  EXPECT_EQ(r.src_port, 200);
  EXPECT_EQ(r.dst_port, 100);
  EXPECT_EQ(r.proto, 17);
  EXPECT_EQ(r.reversed(), f);
}

TEST(FlowId, EqualityAndHash) {
  const FlowId a{1, 2, 100, 200, 6};
  const FlowId b{1, 2, 100, 200, 6};
  const FlowId c{1, 2, 100, 201, 6};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  FlowIdHash h;
  EXPECT_EQ(h(a), h(b));
  EXPECT_NE(h(a), h(c));  // not guaranteed in general, but should hold here
}

TEST(Packet, HeaderVariantAccessors) {
  Packet p;
  EXPECT_FALSE(p.is_tcp());
  EXPECT_FALSE(p.is_rtp());
  EXPECT_FALSE(p.is_rtcp());
  p.header = TcpHeader{};
  EXPECT_TRUE(p.is_tcp());
  p.tcp().seq = 42;
  EXPECT_EQ(p.tcp().seq, 42u);
  p.header = RtpHeader{};
  EXPECT_TRUE(p.is_rtp());
  p.header = RtcpHeader{TwccFeedback{}};
  EXPECT_TRUE(p.is_rtcp());
}

TEST(SeqUnwrapper, MonotoneWithoutWrap) {
  SeqUnwrapper u;
  EXPECT_EQ(u.unwrap(0), 0);
  EXPECT_EQ(u.unwrap(1), 1);
  EXPECT_EQ(u.unwrap(100), 100);
}

TEST(SeqUnwrapper, ForwardWrap) {
  SeqUnwrapper u;
  EXPECT_EQ(u.unwrap(65530), 65530);
  EXPECT_EQ(u.unwrap(65535), 65535);
  EXPECT_EQ(u.unwrap(2), 65538);  // wrapped forward
}

TEST(SeqUnwrapper, BackwardReordering) {
  SeqUnwrapper u;
  EXPECT_EQ(u.unwrap(10), 10);
  EXPECT_EQ(u.unwrap(8), 8);  // small reorder goes backward, no wrap
}

TEST(SeqUnwrapper, BackwardAcrossWrapBoundary) {
  SeqUnwrapper u;
  EXPECT_EQ(u.unwrap(65535), 65535);
  EXPECT_EQ(u.unwrap(3), 65539);
  EXPECT_EQ(u.unwrap(65533), 65533);  // late packet from before the wrap
}

TEST(SeqUnwrapper, HalfRangeJumpTieBreaksForward) {
  // At a distance of exactly 0x8000 the forward and backward readings are
  // equidistant; the unwrapper is documented to pick *forward* (a
  // half-range jump is a loss burst, not a 32768-packet reordering).
  // This pins the `fwd <= 0x8000` comparison in seq.hpp — flipping it to
  // `<` would shift every post-gap value by 65536.
  {
    SeqUnwrapper u;
    EXPECT_EQ(u.unwrap(0), 0);
    EXPECT_EQ(u.unwrap(0x8000), 0x8000);  // forward, not -0x8000
    EXPECT_EQ(u.unwrap(0), 0x10000);      // and again across the wrap
  }
  {
    // One short of the tie still goes backward...
    SeqUnwrapper u;
    EXPECT_EQ(u.unwrap(0), 0);
    EXPECT_EQ(u.unwrap(0x8001), -0x7FFF);
  }
  {
    // ...and one past it (forward distance 0x7FFF) goes forward.
    SeqUnwrapper u;
    EXPECT_EQ(u.unwrap(2), 2);
    EXPECT_EQ(u.unwrap(0x8001), 0x8001);
  }
}

TEST(SeqUnwrapper, SurvivesManyWraps) {
  SeqUnwrapper u;
  std::int64_t expected = 0;
  std::uint16_t wire = 0;
  for (int i = 0; i < 300'000; ++i) {
    EXPECT_EQ(u.unwrap(wire), expected);
    ++wire;
    ++expected;
  }
}

Packet make_packet(std::uint32_t bytes, std::uint64_t uid = 0) {
  Packet p;
  p.uid = uid;
  p.size_bytes = bytes;
  return p;
}

TEST(PointToPointLink, DeliversWithSerializationPlusPropagation) {
  Simulator sim;
  std::vector<TimePoint> deliveries;
  PointToPointLink::Config cfg;
  cfg.rate_bps = 8e6;  // 1 byte per microsecond
  cfg.prop_delay = 10_ms;
  PointToPointLink link(sim, cfg, [&](Packet&&) { deliveries.push_back(sim.now()); });
  link.send(make_packet(1000));
  sim.run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0], TimePoint::zero() + 1_ms + 10_ms);
}

TEST(PointToPointLink, SerializesBackToBack) {
  Simulator sim;
  std::vector<TimePoint> deliveries;
  PointToPointLink::Config cfg;
  cfg.rate_bps = 8e6;
  cfg.prop_delay = Duration::zero();
  PointToPointLink link(sim, cfg, [&](Packet&&) { deliveries.push_back(sim.now()); });
  link.send(make_packet(1000));
  link.send(make_packet(1000));
  sim.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], TimePoint::zero() + 1_ms);
  EXPECT_EQ(deliveries[1], TimePoint::zero() + 2_ms);
}

TEST(PointToPointLink, PreservesOrder) {
  Simulator sim;
  std::vector<std::uint64_t> uids;
  PointToPointLink::Config cfg;
  PointToPointLink link(sim, cfg, [&](Packet&& p) { uids.push_back(p.uid); });
  for (std::uint64_t i = 0; i < 20; ++i) link.send(make_packet(500, i));
  sim.run();
  ASSERT_EQ(uids.size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(uids[i], i);
}

/// The two-event link that PointToPointLink replaced, kept as the
/// reference its one-event form must match: a FIFO of pooled packets, a
/// serialization-end event that starts the next packet, then a separate
/// propagation event per packet.
class TwoEventReferenceLink {
 public:
  TwoEventReferenceLink(Simulator& sim, PointToPointLink::Config cfg, PacketHandler sink)
      : sim_(sim), cfg_(cfg), sink_(std::move(sink)) {}

  void send(Packet&& p) {
    queue_.push_back(pool_.put(std::move(p)));
    if (!busy_) transmit_next();
  }
  void set_fault_hook(PacketHandler hook) { fault_hook_ = std::move(hook); }

 private:
  void transmit_next() {
    if (queue_.empty()) {
      busy_ = false;
      return;
    }
    busy_ = true;
    const sim::Pool<Packet>::Index idx = queue_.front();
    queue_.pop_front();
    const Duration tx = Duration::from_seconds(
        static_cast<double>(pool_.at(idx).size_bytes) * 8.0 / cfg_.rate_bps);
    sim_.schedule_after(tx, [this, idx] { on_serialized(idx); });
  }

  void on_serialized(sim::Pool<Packet>::Index idx) {
    sim_.schedule_after(cfg_.prop_delay, [this, idx] {
      Packet& p = pool_.at(idx);
      if (fault_hook_) {
        fault_hook_(std::move(p));
      } else if (sink_) {
        sink_(std::move(p));
      }
      pool_.release(idx);
    });
    transmit_next();
  }

  Simulator& sim_;
  PointToPointLink::Config cfg_;
  PacketHandler sink_;
  PacketHandler fault_hook_;
  sim::Pool<Packet> pool_;
  std::deque<sim::Pool<Packet>::Index> queue_;
  bool busy_ = false;
};

/// One randomized send schedule: per packet its size and the gap to the
/// next send. Gaps are drawn to land inside a busy period, on the same
/// instant, exactly on the serialization end of the packet before (the
/// busy_until instant), or after an idle spell.
struct LinkCase {
  PointToPointLink::Config cfg;
  std::vector<std::uint32_t> sizes;
  std::vector<Duration> gaps;
  bool via_fault_hook = false;
};

LinkCase draw_link_case(sim::Rng& rng) {
  LinkCase c;
  // Rates from 56 kbit/s to 10 Gbit/s, log-uniform, so tx times range
  // from sub-nanosecond rounding to hundreds of milliseconds.
  c.cfg.rate_bps = std::pow(10.0, rng.uniform(4.75, 10.0));
  c.cfg.prop_delay = Duration::nanos(rng.uniform_int(50'000'001));
  c.via_fault_hook = rng.chance(0.5);
  const int n = 1 + static_cast<int>(rng.uniform_int(80));
  TimePoint send;
  TimePoint busy_until;
  for (int i = 0; i < n; ++i) {
    const std::uint32_t size = 1 + rng.uniform_int(1500);
    c.sizes.push_back(size);
    const Duration tx = Duration::from_seconds(size * 8.0 / c.cfg.rate_bps);
    busy_until = std::max(send, busy_until) + tx;
    const double pick = rng.uniform();
    Duration gap;
    if (pick < 0.35) {
      gap = Duration::nanos(rng.uniform_int(static_cast<std::uint32_t>(
          std::min<std::int64_t>(3 * tx.count_ns() + 1, 2'000'000'000))));
    } else if (pick < 0.55) {
      gap = Duration::zero();
    } else if (pick < 0.9) {
      gap = busy_until - send;
    } else {
      gap = (busy_until - send) + Duration::nanos(rng.uniform_int(20'000'000));
    }
    c.gaps.push_back(gap);
    send += gap;
  }
  return c;
}

/// Drive `Link` with `c`, each send scheduling the next from its own
/// event, and return (uid, delivery time) in delivery order.
template <typename Link>
std::vector<std::pair<std::uint64_t, std::int64_t>> run_link_case(const LinkCase& c) {
  Simulator sim;
  std::vector<std::pair<std::uint64_t, std::int64_t>> out;
  int sink_calls = 0;
  Link link(sim, c.cfg, [&](Packet&& p) {
    ++sink_calls;
    out.emplace_back(p.uid, sim.now().count_ns());
  });
  if (c.via_fault_hook) {
    link.set_fault_hook([&](Packet&& p) { out.emplace_back(p.uid, sim.now().count_ns()); });
  }
  std::size_t next = 0;
  std::function<void()> send_one = [&] {
    const std::size_t i = next++;
    link.send(make_packet(c.sizes[i], i + 1));
    if (next < c.sizes.size()) sim.schedule_after(c.gaps[i], send_one);
  };
  sim.schedule_at(TimePoint::zero(), send_one);
  sim.run();
  EXPECT_EQ(sink_calls, c.via_fault_hook ? 0 : static_cast<int>(c.sizes.size()));
  return out;
}

TEST(PointToPointLink, MatchesTwoEventReferenceUnderRandomSchedules) {
  prop::for_all([](sim::Rng& rng, int) {
    const LinkCase c = draw_link_case(rng);
    const auto got = run_link_case<PointToPointLink>(c);
    const auto want = run_link_case<TwoEventReferenceLink>(c);
    ASSERT_EQ(got.size(), c.sizes.size());
    ASSERT_EQ(got, want);
  });
}

TEST(PointToPointLink, SendAtSerializationEndStartsAtOnce) {
  // A send at the exact instant the previous packet finishes serializing
  // starts at once: both packets arrive tx apart.
  Simulator sim;
  std::vector<TimePoint> deliveries;
  PointToPointLink::Config cfg;
  cfg.rate_bps = 8e6;
  cfg.prop_delay = 5_ms;
  PointToPointLink link(sim, cfg, [&](Packet&&) { deliveries.push_back(sim.now()); });
  link.send(make_packet(1000));
  sim.schedule_at(TimePoint::zero() + 1_ms, [&] { link.send(make_packet(1000)); });
  sim.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], TimePoint::zero() + 6_ms);
  EXPECT_EQ(deliveries[1], TimePoint::zero() + 7_ms);
}

}  // namespace
}  // namespace zhuge::net
