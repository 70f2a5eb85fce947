#pragma once
// Shared helpers for the figure/table reproduction benches. Each bench is
// a standalone binary that prints the same rows/series the paper's figure
// reports; EXPERIMENTS.md records the mapping. Every bench accepts
// `--trace out.json` / `--metrics out.json` (see ObsSession below).

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "app/scenario.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "obs/tracer.hpp"
#include "trace/synthetic.hpp"

namespace zhuge::bench {

using app::ApMode;
using app::LinkKind;
using app::MultiStationResult;
using app::QdiscKind;
using app::ScenarioSpec;
using app::SpecFlowKind;
using sim::Duration;
using sim::TimePoint;

/// The five wireless trace classes evaluated in §7.3.
inline const std::vector<trace::TraceKind> kPaperTraces = {
    trace::TraceKind::kRestaurantWifi, trace::TraceKind::kOfficeWifi,
    trace::TraceKind::kIndoorMixed45G, trace::TraceKind::kCity4G,
    trace::TraceKind::kCity5G};

/// Cellular traces ride the cellular link model; WiFi traces the AMPDU one.
inline LinkKind link_for(trace::TraceKind kind) {
  switch (kind) {
    case trace::TraceKind::kRestaurantWifi:
    case trace::TraceKind::kOfficeWifi:
      return LinkKind::kWifi;
    default:
      return LinkKind::kCellular;
  }
}

/// A trace a spec's station can hold (StationGroupSpec::trace).
inline std::shared_ptr<const trace::Trace> shared(trace::Trace tr) {
  return std::make_shared<const trace::Trace>(std::move(tr));
}

/// The single-client topology of the figure benches: one MCS-7 Wi-Fi
/// station, one RTC flow of `kind` (flow 0, optimised whenever the AP runs
/// a mechanism) carrying the paper's 1080p24 video capped at 2.5 Mbps
/// (§7.2), 5 s warm-up, and flow 0's series recorded.
inline ScenarioSpec rtc_spec(SpecFlowKind kind, ApMode mode, Duration duration,
                             std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = app::to_string(kind);
  spec.duration_s = duration.to_seconds();
  spec.warmup_s = 5.0;
  spec.seed = seed;
  spec.ap_mode = mode;
  spec.stations.push_back(app::StationGroupSpec{});
  spec.flows.push_back(app::SpecFlow{.kind = kind, .zhuge = true, .fps = 24.0});
  spec.series_flow = 0;
  return spec;
}

/// Trace-driven evaluation (§7.2-§7.3 setup): the station's downlink
/// follows `tr` over the link technology of its trace class.
inline ScenarioSpec trace_spec(std::shared_ptr<const trace::Trace> tr,
                               trace::TraceKind kind, SpecFlowKind flow,
                               ApMode mode, Duration duration,
                               std::uint64_t seed) {
  ScenarioSpec spec = rtc_spec(flow, mode, duration, seed);
  spec.stations.front().trace = std::move(tr);
  spec.stations.front().link = link_for(kind);
  return spec;
}

/// Microbenchmark scenario: a 40 s run over `tr` (Fig. 4/14/15 step
/// traces) with a video cap high enough for the CCA to fill the link.
inline ScenarioSpec drop_spec(std::shared_ptr<const trace::Trace> tr,
                              SpecFlowKind flow, ApMode mode,
                              std::uint64_t seed) {
  ScenarioSpec spec = rtc_spec(flow, mode, Duration::seconds(40), seed);
  spec.stations.front().trace = std::move(tr);
  spec.flows.front().max_bitrate_mbps = 40.0;
  // NS-3-style 100-packet bottleneck buffer: the microbenchmarks measure
  // reaction speed, and a deeply bufferbloated queue would bury the
  // control-loop differences under multi-second drain times.
  spec.stations.front().queue_limit_bytes = 100 * 1500;
  return spec;
}

struct TailMetrics {
  double rtt_gt_200 = 0.0;   ///< P(network RTT > 200 ms)
  double fd_gt_400 = 0.0;    ///< P(frame delay > 400 ms)
  double fps_lt_10 = 0.0;    ///< P(per-second frame rate < 10)
  double goodput_mbps = 0.0;
  double p99_rtt_ms = 0.0;
};

/// Flow 0's tails (the spec must record flow 0's series).
inline TailMetrics tail_metrics(const MultiStationResult& r) {
  TailMetrics m;
  const auto& f = r.flows.front();
  m.rtt_gt_200 = f.network_rtt_ms.ratio_above(200.0);
  m.fd_gt_400 = f.frame_delay_ms.ratio_above(400.0);
  m.fps_lt_10 = r.series->frame_rate_fps.ratio_below(10.0);
  m.goodput_mbps = f.goodput_bps / 1e6;
  m.p99_rtt_ms = f.network_rtt_ms.quantile(0.99);
  return m;
}

/// Average tail metrics over several seeds. `run` executes one seed and
/// returns its MultiStationResult.
template <typename RunSeed>
TailMetrics averaged_tails(RunSeed&& run, int seeds) {
  TailMetrics sum;
  for (int s = 1; s <= seeds; ++s) {
    const TailMetrics m = tail_metrics(run(s));
    sum.rtt_gt_200 += m.rtt_gt_200;
    sum.fd_gt_400 += m.fd_gt_400;
    sum.fps_lt_10 += m.fps_lt_10;
    sum.goodput_mbps += m.goodput_mbps;
    sum.p99_rtt_ms += m.p99_rtt_ms;
  }
  const double n = seeds;
  sum.rtt_gt_200 /= n;
  sum.fd_gt_400 /= n;
  sum.fps_lt_10 /= n;
  sum.goodput_mbps /= n;
  sum.p99_rtt_ms /= n;
  return sum;
}

/// Degradation durations after a bandwidth drop at `drop_at` (Fig. 4/14/15).
struct Degradation {
  double rtt_secs = 0.0;   ///< time with RTT > 200 ms
  double fd_secs = 0.0;    ///< time with frame delay > 400 ms
  double fps_secs = 0.0;   ///< time with frame rate < 10 fps
};

inline Degradation degradation_after(const MultiStationResult& r,
                                     Duration drop_at, Duration duration) {
  Degradation d;
  const TimePoint t0 = TimePoint::zero() + drop_at;
  const TimePoint t1 = TimePoint::zero() + duration;
  const app::FlowSeries& series = *r.series;
  d.rtt_secs = series.rtt_ms.time_above(200.0, t0, t1).to_seconds();
  d.fd_secs = series.frame_delay_ms.time_above(400.0, t0, t1).to_seconds();
  // Frame rate < 10 fps: derive from per-second decode counts in the
  // frame-delay series' gaps — approximated by counting seconds without
  // at least 10 decoded frames.
  const auto& pts = series.frame_delay_ms.points();
  const auto from_sec = static_cast<std::size_t>(drop_at.to_seconds());
  const auto to_sec = static_cast<std::size_t>(duration.to_seconds());
  std::vector<int> per_second(to_sec + 1, 0);
  for (const auto& p : pts) {
    const auto sec = static_cast<std::size_t>(p.t.to_seconds());
    if (sec <= to_sec) ++per_second[sec];
  }
  for (std::size_t s = from_sec; s < to_sec; ++s) {
    if (per_second[s] < 10) d.fps_secs += 1.0;
  }
  return d;
}

/// Print a log-spaced 1-CDF column (the paper's Fig. 2/13 axes).
inline void print_ccdf(const char* label, const stats::Distribution& d,
                       const std::vector<double>& thresholds) {
  std::printf("  %-24s", label);
  for (double t : thresholds) std::printf(" %8.4f%%", 100.0 * d.ratio_above(t));
  std::printf("\n");
}

inline const char* mode_name(ApMode m) {
  switch (m) {
    case ApMode::kNone: return "none";
    case ApMode::kZhuge: return "Zhuge";
    case ApMode::kFastAck: return "FastAck";
    case ApMode::kAbc: return "ABC";
  }
  return "?";
}

/// Observability session for a bench binary: the shared CLI session from
/// obs/session.hpp (benches, examples, and tools all use the same one, so
/// every entrypoint handles --trace/--metrics identically).
using ObsSession = obs::ObsSession;

}  // namespace zhuge::bench
