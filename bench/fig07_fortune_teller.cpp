// Fig. 7 reproduction: how qLong and qShort react to an ABW drop at t=5ms.
// A micro-simulation of a single downlink queue: steady 8 Mbps arrivals
// into a 10 Mbps channel that drops to ~0.5 Mbps at t=5 ms. qShort rises
// immediately (head-of-queue wait), qLong takes over once the windowed
// dequeue-rate estimate has decayed — the paper's two-regime argument.

#include "bench_util.hpp"

#include "core/fortune_teller.hpp"
#include "queue/fifo.hpp"
#include "wireless/channel.hpp"
#include "wireless/medium.hpp"
#include "wireless/wifi_link.hpp"

using namespace zhuge;
using namespace zhuge::bench;

int main(int argc, char** argv) {
  zhuge::bench::ObsSession obs_session(argc, argv);
  std::printf("=== Fig. 7: qLong/qShort reaction to an ABW drop at t=5ms ===\n");
  sim::Simulator simu;
  sim::Rng rng(1);
  // 10 Mbps until 5 ms, then 0.5 Mbps.
  const auto tr = trace::step_trace(10e6, 0.5e6, Duration::millis(5),
                                    Duration::millis(200));
  wireless::Channel channel(&tr);
  wireless::Medium medium(simu, rng, {});
  queue::DropTailFifo qdisc(-1);
  wireless::WifiLink::Config wcfg;
  wcfg.mpdu_loss_prob = 0.0;
  wcfg.max_agg_packets = 4;
  wcfg.per_frame_overhead = Duration::micros(100);
  wireless::WifiLink link(simu, rng, channel, medium, qdisc, wcfg, [](net::Packet&&) {});

  core::FortuneTellerConfig fcfg;
  fcfg.window = Duration::millis(20);
  core::FortuneTeller teller(fcfg);
  link.set_dequeue_observer([&](const net::Packet& p, sim::TimePoint now) {
    teller.on_dequeue(p.size_bytes, now, qdisc.byte_count() == 0);
  });

  // 8 Mbps of 1000-byte packets: one per millisecond.
  net::PacketUidSource uids;
  for (int i = 0; i < 200; ++i) {
    simu.schedule_at(sim::TimePoint::zero() + Duration::micros(i * 1000), [&] {
      net::Packet p;
      p.uid = uids.next();
      p.size_bytes = 1000;
      link.offer(std::move(p));
    });
  }

  std::printf("  %6s %10s %10s %10s %10s %10s\n", "t(ms)", "qSize(B)", "txRate(Mb)",
              "qLong(ms)", "qShort(ms)", "total(ms)");
  for (int t_ms = 1; t_ms <= 25; ++t_ms) {
    simu.run_until(sim::TimePoint::zero() + Duration::millis(t_ms));
    const auto pred =
        teller.predict(simu.now(), qdisc.byte_count(), qdisc.head_since());
    std::printf("  %6d %10lld %10.2f %10.2f %10.2f %10.2f\n", t_ms,
                static_cast<long long>(qdisc.byte_count()),
                teller.tx_rate_bps(simu.now()) / 1e6, pred.q_long.to_millis(),
                pred.q_short.to_millis(), pred.total().to_millis());
  }
  std::printf("\n(paper: 5-15 ms is dominated by the qShort rise; after ~15 ms the\n"
              " decayed txRate makes qLong the dominant, stable component)\n");
  return 0;
}
