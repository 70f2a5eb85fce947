// zhuge_cli: command-line scenario runner.
//
// Run any combination of protocol, CCA, AP mode, qdisc, and channel (a
// built-in synthetic trace class or your own CSV) without writing code:
//
//   ./build/examples/zhuge_cli --channel W1 --mode zhuge --duration 120
//   ./build/examples/zhuge_cli --channel my.csv --protocol tcp --mode fastack
//   ./build/examples/zhuge_cli --help
//
// Builds a one-station ScenarioSpec from the flags and prints the paper's
// headline metrics for the run. Like every other entrypoint, accepts
// --trace/--metrics (obs::ObsSession) for observability output; the trace
// carries the RTC flow's per-packet "app"/"rtt" events and 50 ms "sample"
// events (the spec records flow 0 as its series flow).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "app/scenario.hpp"
#include "obs/session.hpp"
#include "trace/synthetic.hpp"

using namespace zhuge;

namespace {

struct Options {
  std::string channel = "W1";
  std::string protocol = "rtp";
  std::string cca = "copa";     // TCP only; RTP uses GCC
  std::string mode = "none";    // none | zhuge | fastack | abc
  std::string qdisc = "fifo";   // fifo | codel | fq_codel
  double duration_s = 60.0;
  double max_bitrate_mbps = 2.5;
  int competitors = 0;
  int interferers = 0;
  std::uint64_t seed = 1;
};

void usage() {
  std::puts(
      "zhuge_cli — run one wireless RTC scenario and print tail metrics\n"
      "\n"
      "  --channel <W1|W2|C1|C2|C3|ETH|path.csv> channel (default W1)\n"
      "  --protocol <rtp|tcp>                    transport (default rtp)\n"
      "  --cca <copa|bbr|cubic|abc>              TCP CCA (default copa)\n"
      "  --mode <none|zhuge|fastack|abc>         AP optimisation (default none)\n"
      "  --qdisc <fifo|codel|fq_codel>           AP queue (default fifo)\n"
      "  --duration <seconds>                    run length (default 60)\n"
      "  --bitrate <mbps>                        encoder cap (default 2.5)\n"
      "  --competitors <n>                       CUBIC bulk flows (default 0)\n"
      "  --interferers <n>                       co-channel APs (default 0)\n"
      "  --seed <n>                              RNG seed (default 1)\n"
      "  --trace <file> / --metrics <file>       observability output\n"
      "  --attrib                                stamp latency spans into the trace\n");
}

std::optional<trace::TraceKind> builtin_trace(const std::string& name) {
  if (name == "W1") return trace::TraceKind::kRestaurantWifi;
  if (name == "W2") return trace::TraceKind::kOfficeWifi;
  if (name == "C1") return trace::TraceKind::kIndoorMixed45G;
  if (name == "C2") return trace::TraceKind::kCity4G;
  if (name == "C3") return trace::TraceKind::kCity5G;
  if (name == "ETH") return trace::TraceKind::kEthernet;
  return std::nullopt;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--help" || flag == "-h") return false;
    if (flag == "--trace" || flag == "--metrics") value();  // obs::ObsSession's
    else if (flag == "--attrib") {}  // obs::ObsSession's, no value
    else if (flag == "--channel") opt.channel = value();
    else if (flag == "--protocol") opt.protocol = value();
    else if (flag == "--cca") opt.cca = value();
    else if (flag == "--mode") opt.mode = value();
    else if (flag == "--qdisc") opt.qdisc = value();
    else if (flag == "--duration") opt.duration_s = std::atof(value());
    else if (flag == "--bitrate") opt.max_bitrate_mbps = std::atof(value());
    else if (flag == "--competitors") opt.competitors = std::atoi(value());
    else if (flag == "--interferers") opt.interferers = std::atoi(value());
    else if (flag == "--seed") opt.seed = std::strtoull(value(), nullptr, 10);
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  obs::ObsSession obs(argc, argv);
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }

  const auto dur = sim::Duration::from_seconds(opt.duration_s);
  app::StationGroupSpec station;
  if (const auto kind = builtin_trace(opt.channel); kind.has_value()) {
    station.trace = std::make_shared<const trace::Trace>(
        trace::make_trace(*kind, opt.seed * 13, dur));
    station.link = (*kind == trace::TraceKind::kRestaurantWifi ||
                    *kind == trace::TraceKind::kOfficeWifi ||
                    *kind == trace::TraceKind::kEthernet)
                       ? app::LinkKind::kWifi
                       : app::LinkKind::kCellular;
  } else {
    try {
      station.trace = std::make_shared<const trace::Trace>(
          trace::load_csv(opt.channel, opt.channel));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot load trace: %s\n", e.what());
      return 1;
    }
  }
  if (opt.qdisc == "codel") station.qdisc = app::QdiscKind::kCoDel;
  else if (opt.qdisc == "fq_codel") station.qdisc = app::QdiscKind::kFqCoDel;

  app::ScenarioSpec spec;
  spec.name = "zhuge_cli";
  spec.duration_s = opt.duration_s;
  spec.seed = opt.seed;
  spec.interferers = opt.interferers;
  spec.stations.push_back(station);

  app::SpecFlow rtc;
  rtc.zhuge = true;
  rtc.fps = 24;
  rtc.max_bitrate_mbps = opt.max_bitrate_mbps;
  if (opt.protocol == "tcp") {
    if (opt.cca == "bbr") rtc.kind = app::SpecFlowKind::kTcpBbr;
    else if (opt.cca == "cubic") rtc.kind = app::SpecFlowKind::kTcpCubic;
    else if (opt.cca == "abc") rtc.kind = app::SpecFlowKind::kTcpAbc;
    else rtc.kind = app::SpecFlowKind::kTcpCopa;
  }

  spec.ap_mode = app::ApMode::kNone;
  if (opt.mode == "zhuge") spec.ap_mode = app::ApMode::kZhuge;
  else if (opt.mode == "fastack") spec.ap_mode = app::ApMode::kFastAck;
  else if (opt.mode == "abc") {
    spec.ap_mode = app::ApMode::kAbc;
    if (opt.protocol == "tcp") rtc.kind = app::SpecFlowKind::kTcpAbc;  // its sender half
  }
  spec.flows.push_back(rtc);
  for (int i = 0; i < opt.competitors; ++i) {
    spec.flows.push_back(app::SpecFlow{.kind = app::SpecFlowKind::kTcpBulk});
  }
  spec.series_flow = 0;

  const auto r = app::run_multi_station(spec);
  const auto& f = r.flows.front();
  std::printf("channel=%s protocol=%s mode=%s qdisc=%s seed=%llu (%.0fs)\n",
              opt.channel.c_str(), opt.protocol.c_str(), opt.mode.c_str(),
              opt.qdisc.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.duration_s);
  std::printf("  network RTT     p50 %6.1f ms   p99 %7.1f ms   >200ms %6.3f%%\n",
              f.network_rtt_ms.quantile(0.5), f.network_rtt_ms.quantile(0.99),
              100.0 * f.network_rtt_ms.ratio_above(200.0));
  std::printf("  frame delay     p50 %6.1f ms   p99 %7.1f ms   >400ms %6.3f%%\n",
              f.frame_delay_ms.quantile(0.5), f.frame_delay_ms.quantile(0.99),
              100.0 * f.frame_delay_ms.ratio_above(400.0));
  std::printf("  frame rate      p50 %6.1f fps  <10fps %6.3f%%\n",
              r.series->frame_rate_fps.quantile(0.5),
              100.0 * r.series->frame_rate_fps.ratio_below(10.0));
  std::printf("  goodput %.2f Mbps, %llu/%llu frames decoded, %llu qdisc drops\n",
              f.goodput_bps / 1e6,
              static_cast<unsigned long long>(f.frames_decoded),
              static_cast<unsigned long long>(f.frames_sent),
              static_cast<unsigned long long>(r.qdisc_drops));
  if (spec.ap_mode == app::ApMode::kZhuge && !r.prediction_error_ms.empty()) {
    std::printf("  fortune teller  median error %.2f ms over %zu predictions\n",
                r.prediction_error_ms.quantile(0.5), r.prediction_error_ms.count());
  }
  return 0;
}
