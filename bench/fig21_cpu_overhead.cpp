// Fig. 21 reproduction: CPU overhead of Zhuge per concurrent flow.
// The paper measures whole-AP CPU utilisation on 2010s-era routers; we
// measure the same quantity at its source — the per-packet processing
// cost of the Fortune Teller + Feedback Updater — with google-benchmark,
// scaled across 1..5 concurrent flows (substitution noted in DESIGN.md).

#include <benchmark/benchmark.h>

#include "core/zhuge.hpp"
#include "queue/fifo.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace zhuge;
using sim::Duration;

/// Per-packet downlink cost (Fortune Teller predict + record).
void BM_ZhugeDownlinkPacket(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  sim::Simulator simu;
  sim::Rng rng(1);
  queue::DropTailFifo qdisc(-1);
  std::vector<std::unique_ptr<core::ZhugeFlow>> zf;
  for (std::size_t i = 0; i < flows; ++i) {
    zf.push_back(std::make_unique<core::ZhugeFlow>(
        simu, rng, net::FlowId{1, static_cast<std::uint32_t>(100 + i), 1, 2, 6},
        core::ZhugeConfig{}, [](net::Packet&&) {}));
  }
  net::Packet p;
  p.size_bytes = 1240;
  p.header = net::TcpHeader{};
  std::size_t i = 0;
  std::int64_t t = 0;
  for (auto _ : state) {
    auto& flow = *zf[i % flows];
    p.flow = flow.flow();
    flow.on_dequeue(p, sim::TimePoint{t}, false);
    flow.on_downlink(p, qdisc);
    t += 500'000;  // 0.5 ms between packets (~2 Mbps per flow)
    ++i;
    benchmark::DoNotOptimize(p.predicted_delay_ms);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["flows"] = static_cast<double>(flows);
}
BENCHMARK(BM_ZhugeDownlinkPacket)->DenseRange(1, 5);

/// Per-ACK uplink cost (Algorithm 2: sampling, tokens, caps).
void BM_ZhugeUplinkAck(benchmark::State& state) {
  sim::Simulator simu;
  sim::Rng rng(1);
  core::OobConfig cfg;
  core::OobFeedbackUpdater updater(cfg, rng);
  // Prime with a realistic delta history.
  for (int i = 0; i < 100; ++i) {
    updater.on_data_delay(Duration::from_millis(5.0 + (i % 7)), sim::TimePoint{i});
  }
  std::int64_t t = 1'000'000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(updater.ack_delay(sim::TimePoint{t}));
    t += 500'000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZhugeUplinkAck);

/// Capacity estimate: how many 2 Mbps RTC flows one core could serve.
/// (The paper's Netgear/TP-Link APs handled 5 flows at 20-80 % CPU.)
void BM_FlowsPerCoreEstimate(benchmark::State& state) {
  sim::Simulator simu;
  sim::Rng rng(1);
  queue::DropTailFifo qdisc(-1);
  core::ZhugeFlow flow(simu, rng, net::FlowId{1, 100, 1, 2, 6},
                       core::ZhugeConfig{}, [](net::Packet&&) {});
  net::Packet p;
  p.size_bytes = 1240;
  p.flow = flow.flow();
  p.header = net::TcpHeader{};
  std::int64_t t = 0;
  for (auto _ : state) {
    flow.on_dequeue(p, sim::TimePoint{t}, false);
    flow.on_downlink(p, qdisc);
    t += 500'000;
  }
  // One 2 Mbps flow = ~200 pkts/s each way.
  state.counters["est_flows_per_core"] = benchmark::Counter(
      static_cast<double>(state.iterations()) / 200.0,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FlowsPerCoreEstimate);

}  // namespace

BENCHMARK_MAIN();
