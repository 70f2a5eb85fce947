// Example: a video-conference call (RTP/RTCP + GCC) on a busy home WiFi.
//
// Someone starts a large file transfer (scp-style bulk TCP) on the same
// access point every 30 seconds. We run the call three ways — plain FIFO
// AP, CoDel AP, and a Zhuge AP — and report what the viewer experiences.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/video_conference

#include <cstdio>

#include "app/scenario.hpp"
#include "obs/session.hpp"
#include "trace/synthetic.hpp"

using namespace zhuge;

namespace {

app::MultiStationResult run(app::ApMode mode, app::QdiscKind qdisc) {
  app::ScenarioSpec spec;
  spec.name = "video_conference";
  spec.duration_s = 180;
  spec.seed = 2024;
  spec.ap_mode = mode;
  // 39 Mbps PHY (MCS 4), shared with the file transfer.
  spec.stations.push_back(app::StationGroupSpec{.mcs = 4, .qdisc = qdisc});
  // WebRTC-style media + TWCC feedback: a 1080p24 conference stream.
  spec.flows.push_back(app::SpecFlow{.kind = app::SpecFlowKind::kRtpGcc,
                                     .zhuge = true,
                                     .max_bitrate_mbps = 2.5,
                                     .fps = 24});
  // The file transfer (a CUBIC bulk flow) runs every other 30 s.
  for (double on = 30; on < spec.duration_s; on += 60) {
    spec.flows.push_back(app::SpecFlow{.kind = app::SpecFlowKind::kTcpBulk,
                                       .start_s = on,
                                       .stop_s = on + 30});
  }
  return app::run_multi_station(spec);
}

void report(const char* label, const app::MultiStationResult& r) {
  const auto& f = r.flows.front();
  std::printf("  %-12s P50 RTT %5.1f ms | P99 RTT %6.1f ms | RTT>200ms %6.3f%% | "
              "frame>400ms %6.3f%% | %4llu/%llu frames\n",
              label, f.network_rtt_ms.quantile(0.5), f.network_rtt_ms.quantile(0.99),
              100.0 * f.network_rtt_ms.ratio_above(200.0),
              100.0 * f.frame_delay_ms.ratio_above(400.0),
              static_cast<unsigned long long>(f.frames_decoded),
              static_cast<unsigned long long>(f.frames_sent));
}

}  // namespace

int main(int argc, char** argv) {
  obs::ObsSession obs(argc, argv);  // --trace/--metrics, same as every bench
  std::printf("video conference on home WiFi with a periodic file transfer\n");
  std::printf("(GCC over RTP/RTCP; the transfer toggles every 30 s for 3 min)\n\n");

  report("FIFO AP", run(app::ApMode::kNone, app::QdiscKind::kFifo));
  report("CoDel AP", run(app::ApMode::kNone, app::QdiscKind::kCoDel));
  report("Zhuge AP", run(app::ApMode::kZhuge, app::QdiscKind::kFifo));

  std::printf("\nZhuge's Feedback Updater builds the TWCC reports at the AP from\n"
              "predicted per-packet delays, so GCC learns about the transfer's\n"
              "queue before delayed frames ever reach the viewer.\n");
  return 0;
}
