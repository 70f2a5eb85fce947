// Unit tests for the fault-injection subsystem and the fail-open
// robustness machinery it exercises: the Injector itself (blackouts,
// windowed probabilistic faults, burst loss, duplication, reordering,
// substream determinism), link-level loss + fault hooks, the AckScheduler
// flush/bound contract, in-band TWCC dedup under duplicated/reordered
// input, and the ZhugeFlow watchdog degrade/reactivate state machine.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/feedback_inband.hpp"
#include "core/feedback_oob.hpp"
#include "core/zhuge.hpp"
#include "fault/fault.hpp"
#include "net/link.hpp"
#include "obs/invariants.hpp"
#include "queue/fifo.hpp"
#include "sim/simulator.hpp"

namespace zhuge::fault {
namespace {

using net::Packet;
using sim::Duration;
using sim::Simulator;
using sim::TimePoint;
using namespace sim::literals;

TimePoint at(std::int64_t ms) { return TimePoint::zero() + Duration::millis(ms); }

Packet make_packet(std::uint64_t uid, std::uint32_t bytes = 1200) {
  Packet p;
  p.uid = uid;
  p.size_bytes = bytes;
  return p;
}

/// RAII: enable the invariant checker for one test and restore after.
struct InvariantScope {
  bool prev = obs::invariants_enabled();
  InvariantScope() {
    obs::set_invariants_enabled(true);
    obs::invariants().clear();
  }
  ~InvariantScope() {
    obs::invariants().clear();
    obs::set_invariants_enabled(prev);
  }
};

TEST(Injector, BlackoutDropsOnlyInsideWindow) {
  Simulator sim;
  std::vector<std::uint64_t> uids;
  InjectorConfig cfg;
  cfg.blackouts = {Window{at(10), at(20)}};
  Injector inj(sim, sim::Rng(1, 7), cfg,
               [&](Packet&& p) { uids.push_back(p.uid); });
  for (std::int64_t t : {5, 15, 25}) {
    sim.schedule_at(at(t), [&inj, t] { inj.handle(make_packet(std::uint64_t(t))); });
  }
  sim.run();
  EXPECT_EQ(uids, (std::vector<std::uint64_t>{5, 25}));
  EXPECT_EQ(inj.blackout_drops(), 1u);
  EXPECT_EQ(inj.passed(), 2u);
}

TEST(Injector, ActiveWindowGatesProbabilisticLoss) {
  Simulator sim;
  std::vector<std::uint64_t> uids;
  InjectorConfig cfg;
  cfg.loss_prob = 1.0;  // certain loss, but only while active
  cfg.active = {Window{at(10), at(20)}};
  Injector inj(sim, sim::Rng(1, 7), cfg,
               [&](Packet&& p) { uids.push_back(p.uid); });
  for (std::int64_t t : {5, 15, 25}) {
    sim.schedule_at(at(t), [&inj, t] { inj.handle(make_packet(std::uint64_t(t))); });
  }
  sim.run();
  EXPECT_EQ(uids, (std::vector<std::uint64_t>{5, 25}));
  EXPECT_EQ(inj.random_drops(), 1u);
}

/// A packet with every field set: a header (an RTP one, or an RTCP
/// TWCC report that owns heap memory), timestamps and span stamps.
Packet make_full_packet(std::uint64_t uid) {
  Packet p = make_packet(uid, 900 + static_cast<std::uint32_t>(uid));
  p.flow = net::FlowId{1, 100, 5000, static_cast<std::uint16_t>(6000 + uid), 17};
  if (uid % 2 == 0) {
    net::RtpHeader h;
    h.ssrc = 7;
    h.seq = static_cast<std::uint16_t>(40 + uid);
    h.twcc_seq = static_cast<std::uint16_t>(90 + uid);
    h.frame_id = static_cast<std::uint32_t>(uid / 3);
    h.marker = uid % 4 == 0;
    h.capture_time = at(std::int64_t(uid) - 20);
    p.header = h;
  } else {
    net::TwccFeedback fb;
    fb.ssrc = 7;
    for (std::uint16_t k = 0; k < 5; ++k) {
      fb.entries.push_back({static_cast<std::uint16_t>(uid * 10 + k), at(std::int64_t(k))});
    }
    p.header = net::RtcpHeader{fb};
  }
  p.sent_time = at(std::int64_t(uid) - 3);
  p.ap_enqueue_time = at(std::int64_t(uid) - 2);
  p.head_time = at(std::int64_t(uid) - 1);
  p.delivered_time = at(std::int64_t(uid));
  p.predicted_delay_ms = 1.5 * static_cast<double>(uid);
  p.span.paced_ns = 11 + std::int64_t(uid);
  p.span.ap_dequeue_ns = 22 + std::int64_t(uid);
  p.span.first_air_ns = 33 + std::int64_t(uid);
  p.span.air_retries = static_cast<std::uint32_t>(uid % 3);
  return p;
}

/// Field-by-field equality of two packets, header payload included.
void expect_same_packet(const Packet& a, const Packet& b) {
  EXPECT_EQ(a.uid, b.uid);
  EXPECT_EQ(a.flow, b.flow);
  EXPECT_EQ(a.size_bytes, b.size_bytes);
  ASSERT_EQ(a.header.index(), b.header.index());
  if (a.is_rtp()) {
    const net::RtpHeader& x = a.rtp();
    const net::RtpHeader& y = b.rtp();
    EXPECT_EQ(x.ssrc, y.ssrc);
    EXPECT_EQ(x.seq, y.seq);
    EXPECT_EQ(x.twcc_seq, y.twcc_seq);
    EXPECT_EQ(x.frame_id, y.frame_id);
    EXPECT_EQ(x.marker, y.marker);
    EXPECT_EQ(x.capture_time, y.capture_time);
  } else {
    const auto& x = std::get<net::TwccFeedback>(a.rtcp().payload);
    const auto& y = std::get<net::TwccFeedback>(b.rtcp().payload);
    EXPECT_EQ(x.ssrc, y.ssrc);
    ASSERT_EQ(x.entries.size(), y.entries.size());
    for (std::size_t k = 0; k < x.entries.size(); ++k) {
      EXPECT_EQ(x.entries[k].twcc_seq, y.entries[k].twcc_seq);
      EXPECT_EQ(x.entries[k].recv_time, y.entries[k].recv_time);
    }
  }
  EXPECT_EQ(a.sent_time, b.sent_time);
  EXPECT_EQ(a.ap_enqueue_time, b.ap_enqueue_time);
  EXPECT_EQ(a.head_time, b.head_time);
  EXPECT_EQ(a.delivered_time, b.delivered_time);
  EXPECT_EQ(a.predicted_delay_ms, b.predicted_delay_ms);
  EXPECT_EQ(a.span.paced_ns, b.span.paced_ns);
  EXPECT_EQ(a.span.ap_dequeue_ns, b.span.ap_dequeue_ns);
  EXPECT_EQ(a.span.first_air_ns, b.span.first_air_ns);
  EXPECT_EQ(a.span.air_retries, b.span.air_retries);
}

TEST(Injector, DuplicationDeliversTwice) {
  // The duplicate is the Injector's one explicit copy of a packet: it
  // must be field-identical to the original, which is then moved on.
  Simulator sim;
  std::vector<Packet> out;
  InjectorConfig cfg;
  cfg.dup_prob = 1.0;
  Injector inj(sim, sim::Rng(1, 7), cfg,
               [&](Packet&& p) { out.push_back(std::move(p)); });
  for (std::uint64_t i = 0; i < 10; ++i) {
    sim.schedule_at(at(std::int64_t(i) + 100),
                    [&inj, i] { inj.handle(make_full_packet(i)); });
  }
  sim.run();
  ASSERT_EQ(out.size(), 20u);
  EXPECT_EQ(inj.duplicated(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    SCOPED_TRACE(i);
    // No extra delay configured: the duplicate and the original go out
    // back to back, duplicate first.
    const Packet& dup = out[2 * i];
    const Packet& orig = out[2 * i + 1];
    expect_same_packet(dup, orig);
    expect_same_packet(orig, make_full_packet(i));
  }
}

TEST(Injector, ReorderingProducesInversions) {
  Simulator sim;
  std::vector<std::uint64_t> uids;
  InjectorConfig cfg;
  cfg.reorder_prob = 0.3;
  cfg.reorder_delay = 5_ms;
  Injector inj(sim, sim::Rng(1, 7), cfg,
               [&](Packet&& p) { uids.push_back(p.uid); });
  // 100 packets 1 ms apart: a reordered packet lands 5 ms late, so up to
  // five successors overtake it.
  for (std::uint64_t i = 0; i < 100; ++i) {
    sim.schedule_at(at(std::int64_t(i)), [&inj, i] { inj.handle(make_packet(i)); });
  }
  sim.run();
  ASSERT_EQ(uids.size(), 100u);  // reordering never loses packets
  EXPECT_GT(inj.reordered(), 10u);
  EXPECT_LT(inj.reordered(), 60u);
  std::uint64_t inversions = 0;
  for (std::size_t i = 1; i < uids.size(); ++i) {
    if (uids[i] < uids[i - 1]) ++inversions;
  }
  EXPECT_GT(inversions, 0u);
}

TEST(Injector, GilbertElliottStickyBadStateDropsEverything) {
  Simulator sim;
  std::uint64_t delivered = 0;
  InjectorConfig cfg;
  cfg.burst = GilbertElliott{/*p_enter_bad=*/1.0, /*p_exit_bad=*/0.0,
                             /*loss_good=*/0.0, /*loss_bad=*/1.0};
  Injector inj(sim, sim::Rng(1, 7), cfg, [&](Packet&&) { ++delivered; });
  for (std::uint64_t i = 0; i < 50; ++i) {
    sim.schedule_at(at(std::int64_t(i)), [&inj, i] { inj.handle(make_packet(i)); });
  }
  sim.run();
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(inj.burst_drops(), 50u);
  EXPECT_TRUE(inj.in_burst());
}

TEST(Injector, FadeDelaysWithoutDropping) {
  Simulator sim;
  std::vector<TimePoint> deliveries;
  InjectorConfig cfg;
  cfg.fade_delay = 60_ms;
  cfg.fades = {Window{at(10), at(20)}};
  Injector inj(sim, sim::Rng(1, 7), cfg,
               [&](Packet&&) { deliveries.push_back(sim.now()); });
  sim.schedule_at(at(5), [&] { inj.handle(make_packet(0)); });
  sim.schedule_at(at(15), [&] { inj.handle(make_packet(1)); });
  sim.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], at(5));        // outside the fade: immediate
  EXPECT_EQ(deliveries[1], at(15) + 60_ms);  // inside: fade_delay added
}

TEST(Injector, SameSeedSameOutcome) {
  auto run_once = [](std::uint64_t seed) {
    Simulator sim;
    std::vector<std::uint64_t> uids;
    InjectorConfig cfg;
    cfg.loss_prob = 0.2;
    cfg.dup_prob = 0.15;
    cfg.reorder_prob = 0.15;
    cfg.burst = GilbertElliott{0.05, 0.3, 0.0, 0.8};
    Injector inj(sim, sim::Rng(seed, 7), cfg,
                 [&](Packet&& p) { uids.push_back(p.uid); });
    for (std::uint64_t i = 0; i < 300; ++i) {
      sim.schedule_at(at(std::int64_t(i)), [&inj, i] { inj.handle(make_packet(i)); });
    }
    sim.run();
    return std::tuple{uids, inj.dropped(), inj.duplicated(), inj.reordered()};
  };
  EXPECT_EQ(run_once(42), run_once(42));  // bit-identical packet outcome
  EXPECT_NE(std::get<0>(run_once(42)), std::get<0>(run_once(43)));
}

TEST(PointToPointLink, FaultHookInterposesOnDelivery) {
  Simulator sim;
  std::uint64_t sink_got = 0;
  net::PointToPointLink link(sim, {}, [&](Packet&&) { ++sink_got; });
  std::uint64_t hook_got = 0;
  link.set_fault_hook([&](Packet&&) { ++hook_got; });  // swallow everything
  for (std::uint64_t i = 0; i < 5; ++i) link.send(make_packet(i));
  sim.run();
  EXPECT_EQ(hook_got, 5u);
  EXPECT_EQ(sink_got, 0u);  // hook replaced the sink entirely
}

TEST(AckScheduler, FlushReleasesEverythingInOrderNow) {
  Simulator sim;
  std::vector<std::pair<std::uint64_t, TimePoint>> out;
  core::AckScheduler sched(sim, [&](Packet&& p) { out.emplace_back(p.uid, sim.now()); });
  sched.hold(make_packet(1), at(100));
  sched.hold(make_packet(2), at(200));
  std::size_t flushed = 0;
  sim.schedule_at(at(10), [&] { flushed = sched.flush(); });
  sim.run();
  EXPECT_EQ(flushed, 2u);
  ASSERT_EQ(out.size(), 2u);  // released at flush time, not at 100/200 ms
  EXPECT_EQ(out[0], std::make_pair<std::uint64_t>(1, at(10)));
  EXPECT_EQ(out[1], std::make_pair<std::uint64_t>(2, at(10)));
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(AckScheduler, DestructorCancelsPendingTimer) {
  Simulator sim;
  std::uint64_t released = 0;
  {
    core::AckScheduler sched(sim, [&](Packet&&) { ++released; });
    sched.hold(make_packet(1), at(100));
  }  // scheduler destroyed with a timer armed
  sim.run();  // must not fire into the dead scheduler
  EXPECT_EQ(released, 0u);
}

#if ZHUGE_OBS_ENABLED  // the macro compiles to nothing under the kill switch
TEST(AckScheduler, HoldBoundInvariantFires) {
  InvariantScope scope;
  Simulator sim;
  core::AckScheduler sched(sim, [](Packet&&) {});
  sched.set_max_hold(10_ms);
  sched.hold(make_packet(1), at(100));  // 100 ms hold against a 10 ms cap
  sim.run();
  EXPECT_EQ(obs::invariants().count("feedback.hold_bound"), 1u);
}

TEST(AckScheduler, AckOrderInvariantFiresOnRegression) {
  InvariantScope scope;
  Simulator sim;
  core::AckScheduler sched(sim, [](Packet&&) {});
  sched.hold(make_packet(1), at(100));
  sched.hold(make_packet(2), at(50));  // earlier than the previous release
  EXPECT_EQ(obs::invariants().count("feedback.ack_order"), 1u);
  sim.run();
}
#endif  // ZHUGE_OBS_ENABLED

TEST(InbandUpdater, DedupesAndSortsFaultyRtpInput) {
  InvariantScope scope;
  Simulator sim;
  std::vector<Packet> sent;
  net::FlowId flow{1, 100, 5000, 6000, 17};
  core::InbandFeedbackUpdater u(sim, {}, flow, /*ssrc=*/7,
                                [&](Packet&& p) { sent.push_back(std::move(p)); });
  // Duplicated and reordered downlink RTP, as an injector would produce.
  sim.schedule_at(at(0), [&] {
    for (std::uint16_t seq : {std::uint16_t{5}, std::uint16_t{7},
                              std::uint16_t{6}, std::uint16_t{6},
                              std::uint16_t{5}}) {
      net::RtpHeader h;
      h.twcc_seq = seq;
      u.on_rtp_packet(h, 10_ms);
    }
  });
  sim.run_until(at(200));
  ASSERT_EQ(sent.size(), 1u);
  const auto& fb = std::get<net::TwccFeedback>(sent[0].rtcp().payload);
  ASSERT_EQ(fb.entries.size(), 3u);  // 5 records -> 3 unique sequences
  EXPECT_EQ(fb.entries[0].twcc_seq, 5);
  EXPECT_EQ(fb.entries[1].twcc_seq, 6);
  EXPECT_EQ(fb.entries[2].twcc_seq, 7);
  EXPECT_EQ(obs::invariants().count("feedback.twcc_monotone"), 0u);
}

TEST(InbandUpdater, FlushNowDrainsAndDisarms) {
  Simulator sim;
  std::vector<Packet> sent;
  net::FlowId flow{1, 100, 5000, 6000, 17};
  core::InbandConfig cfg;
  cfg.max_entries_per_feedback = 2;  // force multiple feedback packets
  core::InbandFeedbackUpdater u(sim, cfg, flow, 7,
                                [&](Packet&& p) { sent.push_back(std::move(p)); });
  sim.schedule_at(at(0), [&] {
    for (std::uint16_t seq = 0; seq < 5; ++seq) {
      net::RtpHeader h;
      h.twcc_seq = seq;
      u.on_rtp_packet(h, 10_ms);
    }
    u.flush_now();
    EXPECT_EQ(u.pending_entries(), 0u);
    EXPECT_EQ(sent.size(), 3u);  // ceil(5 / 2) packets, all at t=0
  });
  sim.run();           // nothing left scheduled: the flush timer is gone
  EXPECT_EQ(sent.size(), 3u);
}

// ---- ZhugeFlow fail-open watchdog ----------------------------------------

core::ZhugeConfig watchdog_config() {
  core::ZhugeConfig cfg;
  cfg.oob.delta_smoothing_alpha = 1.0;  // literal Algorithm 1
  cfg.watchdog.feedback_timeout = 200_ms;
  cfg.watchdog.recovery_settle = 100_ms;
  return cfg;
}

Packet tcp_data(const net::FlowId& flow) {
  Packet p;
  p.flow = flow;
  p.size_bytes = 1240;
  p.header = net::TcpHeader{};
  return p;
}

Packet tcp_ack(const net::FlowId& flow, std::uint64_t uid) {
  Packet p;
  p.uid = uid;
  p.flow = flow.reversed();
  net::TcpHeader h;
  h.is_ack = true;
  p.header = h;
  return p;
}

TEST(Watchdog, FeedbackSilenceFailsOpenThenRecovers) {
  Simulator sim;
  sim::Rng rng(1);
  net::FlowId flow{1, 100, 5000, 6000, 6};
  std::vector<std::uint64_t> to_server;
  core::ZhugeFlow zf(sim, rng, flow, watchdog_config(),
                     [&](Packet&& p) { to_server.push_back(p.uid); });
  queue::DropTailFifo q(-1);

  // Healthy phase: downlink data flows and one ACK is delayed.
  sim.schedule_at(at(0), [&] {
    Packet d = tcp_data(flow);
    zf.on_downlink(d, q);
  });
  sim.schedule_at(at(10), [&] {
    EXPECT_EQ(zf.handle_uplink(tcp_ack(flow, 1)), core::UplinkAction::kDelay);
    zf.check_watchdog(sim.now());
    EXPECT_EQ(zf.mode(), core::FlowMode::kActive);
  });

  // Uplink goes silent while downlink keeps flowing: at 300 ms the
  // silence (290 ms) exceeds the 200 ms timeout and downlink is fresh.
  sim.schedule_at(at(300), [&] {
    Packet d = tcp_data(flow);
    zf.on_downlink(d, q);
    zf.check_watchdog(sim.now());
    EXPECT_EQ(zf.mode(), core::FlowMode::kDegraded);
    EXPECT_EQ(zf.pending_feedback(), 0u);  // degrade flushed everything
  });

  // Degraded: uplink passes through untouched, still inside settle.
  sim.schedule_at(at(350), [&] {
    EXPECT_EQ(zf.handle_uplink(tcp_ack(flow, 2)), core::UplinkAction::kForward);
    zf.check_watchdog(sim.now());
    EXPECT_EQ(zf.mode(), core::FlowMode::kDegraded);  // settle not elapsed
  });

  // Feedback demonstrably alive after the settle period: the ladder steps
  // down one level per probe (HoldOnly -> ClampedPredict), not straight
  // back to Full.
  sim.schedule_at(at(450), [&] {
    EXPECT_EQ(zf.handle_uplink(tcp_ack(flow, 3)), core::UplinkAction::kForward);
    zf.check_watchdog(sim.now());
    EXPECT_EQ(zf.mode(), core::FlowMode::kDegraded);
    EXPECT_EQ(zf.level(), obs::LadderLevel::kClampedPredict);
  });

  // Another settle period with live feedback completes the recovery.
  sim.schedule_at(at(600), [&] {
    EXPECT_EQ(zf.handle_uplink(tcp_ack(flow, 4)), core::UplinkAction::kDelay);
    zf.check_watchdog(sim.now());
    EXPECT_EQ(zf.mode(), core::FlowMode::kActive);
    EXPECT_EQ(zf.level(), obs::LadderLevel::kFull);
  });

  sim.run();
  EXPECT_EQ(zf.degrade_count(), 1u);
  EXPECT_EQ(zf.reactivate_count(), 2u);
  // Every ACK reached the server: 1 (released or flushed), 2 and 3
  // (degraded pass-through), 4 (held then released).
  std::vector<std::uint64_t> sorted = to_server;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST(Watchdog, PredictionDivergenceFailsOpen) {
  Simulator sim;
  sim::Rng rng(1);
  net::FlowId flow{1, 100, 5000, 6000, 6};
  core::ZhugeConfig cfg = watchdog_config();
  cfg.watchdog.divergence_threshold_ms = 50.0;
  cfg.watchdog.divergence_alpha = 0.5;
  cfg.watchdog.min_divergence_samples = 5;
  core::ZhugeFlow zf(sim, rng, flow, cfg, [](Packet&&) {});
  queue::DropTailFifo q(-1);

  sim.schedule_at(at(200), [&] {
    // Fortunes predicted 0 ms of queueing; packets actually waited 200 ms.
    for (int i = 0; i < 6; ++i) {
      Packet p = tcp_data(flow);
      p.predicted_delay_ms = 0.0;
      p.ap_enqueue_time = at(0);
      zf.on_dequeue(p, sim.now());
    }
    zf.check_watchdog(sim.now());
  });
  sim.run();
  EXPECT_EQ(zf.mode(), core::FlowMode::kDegraded);
  EXPECT_EQ(zf.degrade_count(), 1u);
}

TEST(Watchdog, DisabledNeverDegrades) {
  Simulator sim;
  sim::Rng rng(1);
  net::FlowId flow{1, 100, 5000, 6000, 6};
  core::ZhugeConfig cfg = watchdog_config();
  cfg.watchdog.enabled = false;
  core::ZhugeFlow zf(sim, rng, flow, cfg, [](Packet&&) {});
  queue::DropTailFifo q(-1);
  sim.schedule_at(at(0), [&] {
    Packet d = tcp_data(flow);
    zf.on_downlink(d, q);
  });
  sim.schedule_at(at(10), [&] { (void)zf.handle_uplink(tcp_ack(flow, 1)); });
  sim.schedule_at(at(900), [&] {
    Packet d = tcp_data(flow);
    zf.on_downlink(d, q);
    zf.check_watchdog(sim.now());
  });
  sim.run();
  EXPECT_EQ(zf.mode(), core::FlowMode::kActive);
  EXPECT_EQ(zf.degrade_count(), 0u);
}

TEST(ZhugeFlow, TeardownFlushesHeldFeedback) {
  Simulator sim;
  sim::Rng rng(1);
  net::FlowId flow{1, 100, 5000, 6000, 6};
  std::vector<std::uint64_t> to_server;
  core::ZhugeFlow zf(sim, rng, flow, watchdog_config(),
                     [&](Packet&& p) { to_server.push_back(p.uid); });
  queue::DropTailFifo q(-1);

  sim.schedule_at(at(0), [&] {
    // Growing data delays so the next ACK is held, not forwarded.
    Packet d1 = tcp_data(flow);
    zf.on_downlink(d1, q);
  });
  sim.schedule_at(at(1), [&] {
    Packet d2 = tcp_data(flow);
    d2.size_bytes = 30'000;  // bigger fortune -> positive delta -> delay
    zf.on_downlink(d2, q);
  });
  sim.schedule_at(at(2), [&] {
    (void)zf.handle_uplink(tcp_ack(flow, 7));
    const std::size_t pending = zf.pending_feedback();
    const std::size_t flushed = zf.teardown();
    EXPECT_EQ(flushed, pending);
    EXPECT_EQ(zf.pending_feedback(), 0u);
    EXPECT_EQ(zf.teardown(), 0u);  // idempotent
    // Whether the ACK was held or forwarded, it must be at the server now.
    EXPECT_EQ(to_server, (std::vector<std::uint64_t>{7}));
  });
  sim.run();
}

}  // namespace
}  // namespace zhuge::fault
