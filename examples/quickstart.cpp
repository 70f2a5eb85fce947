// Quickstart: one GCC/RTP video flow over a fluctuating WiFi channel,
// with and without Zhuge on the access point. Prints the paper's headline
// metrics side by side. The scenario is a ScenarioSpec written in the same
// JSON grammar as the files under examples/specs/.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>
#include <string>

#include "app/scenario.hpp"
#include "obs/session.hpp"
#include "trace/synthetic.hpp"

using namespace zhuge;

namespace {

/// One station whose downlink follows a synthetic Restaurant-WiFi (W1)
/// trace, one 1080p24 GCC/RTP flow that the AP may optimise, and flow 0's
/// per-second frame rate recorded (series_flow).
constexpr const char* kSpec = R"({
  "name": "quickstart",
  "duration_s": 120,
  "seed": 42,
  "stations": [ { "trace": "W1", "qdisc": "fifo" } ],
  "flows": [ { "kind": "rtp_gcc", "zhuge": true, "fps": 24 } ],
  "series_flow": 0
})";

app::MultiStationResult run(app::ScenarioSpec spec, bool with_zhuge) {
  spec.ap_mode = with_zhuge ? app::ApMode::kZhuge : app::ApMode::kNone;
  return app::run_multi_station(spec);
}

void report(const char* label, const app::MultiStationResult& r) {
  const auto& f = r.flows.front();
  std::printf("%-14s P50 RTT %6.1f ms | P99 RTT %7.1f ms | RTT>200ms %5.2f%% | "
              "frame>400ms %5.2f%% | fps<10 %5.2f%% | goodput %5.2f Mbps\n",
              label, f.network_rtt_ms.quantile(0.50), f.network_rtt_ms.quantile(0.99),
              100.0 * f.network_rtt_ms.ratio_above(200.0),
              100.0 * f.frame_delay_ms.ratio_above(400.0),
              100.0 * r.series->frame_rate_fps.ratio_below(10.0),
              f.goodput_bps / 1e6);
}

}  // namespace

int main(int argc, char** argv) {
  obs::ObsSession obs(argc, argv);  // --trace/--metrics, same as every bench
  std::printf("zhuge-rtc quickstart: GCC/RTP over Restaurant-WiFi-like channel\n\n");
  std::string err;
  const auto spec = app::parse_scenario_spec(kSpec, &err);
  if (!spec.has_value()) {
    std::fprintf(stderr, "bad spec: %s\n", err.c_str());
    return 1;
  }
  // The engine draws station i's trace from seed + i: the same trace here.
  const trace::Trace tr = trace::make_trace(trace::TraceKind::kRestaurantWifi,
                                            spec->seed, sim::Duration::seconds(120));
  std::printf("trace: mean ABW %.1f Mbps over %.0f s\n\n", tr.mean_rate_bps() / 1e6,
              tr.span().to_seconds());

  const auto baseline = run(*spec, /*with_zhuge=*/false);
  report("Gcc+FIFO", baseline);
  const auto zhuge_run = run(*spec, /*with_zhuge=*/true);
  report("Gcc+Zhuge", zhuge_run);

  std::printf("\nevents executed: baseline %llu, zhuge %llu\n",
              static_cast<unsigned long long>(baseline.events_executed),
              static_cast<unsigned long long>(zhuge_run.events_executed));
  return 0;
}
