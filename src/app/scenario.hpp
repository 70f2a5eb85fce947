#pragma once
// End-to-end scenario engine: server(s) -> WAN -> AP -> per-station
// wireless link -> clients, with each client's feedback crossing its own
// wireless uplink back to the AP. A declarative ScenarioSpec describes the
// run; this one engine is behind every figure bench, the examples, the
// chaos suite, the goldens, the eval matrix and the benchmark workloads.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "app/access_point.hpp"
#include "app/spec.hpp"
#include "obs/attrib.hpp"
#include "stats/distribution.hpp"
#include "stats/timeseries.hpp"

namespace zhuge::app {

/// What a spec's `series_flow` records: time series for the degradation
/// benches (Figs. 4, 14-18) and the chaos verdicts, plus per-flow
/// distributions the figure benches read. Warm-up included unless noted.
struct FlowSeries {
  /// Network RTT: per delivered packet for RTP (downlink OWD + latest
  /// uplink OWD), per sender RTT sample for TCP.
  stats::TimeSeries rtt_ms;
  /// The CCA's rate every 50 ms: GCC target for RTP, cwnd / sRTT for TCP.
  stats::TimeSeries rate_bps;
  stats::TimeSeries frame_delay_ms;  ///< per decoded frame, at decode time
  stats::TimeSeries goodput_bps;     ///< delivered bytes, 50 ms bins
  /// Decoded frames per whole second of the flow's post-warm-up window.
  stats::Distribution frame_rate_fps;
  /// (predicted, actual) AP queueing delay per predicted packet, post-warm-up.
  std::vector<std::pair<double, double>> predicted_vs_real_ms;
};

/// Per-flow outputs of a multi-station run, in schedule order. Flows that
/// never delivered anything keep empty distributions.
struct MultiFlowResult {
  std::uint32_t index = 0;
  SpecFlowKind kind = SpecFlowKind::kRtpGcc;
  int station = 0;
  bool zhuge = false;
  double start_s = 0.0;
  double stop_s = 0.0;
  stats::Distribution network_rtt_ms;   ///< post-warmup
  stats::Distribution downlink_owd_ms;
  stats::Distribution frame_delay_ms;
  double goodput_bps = 0.0;             ///< over the flow's post-warmup window
  std::uint64_t frames_sent = 0;        ///< tcp_bulk: 64 KiB chunks written
  std::uint64_t frames_decoded = 0;
  std::uint64_t packets_delivered = 0;
};

/// Per-station outputs (downlink side).
struct StationResult {
  double airtime_s = 0.0;           ///< medium airtime this station's AMPDUs used
  std::uint64_t qdisc_drops = 0;
  std::uint64_t delivered_packets = 0;
};

/// Everything a multi-station run produces. Numeric fields feed
/// sweep::multi_result_fingerprint, so every one of them is part of the
/// bit-identity contract.
struct MultiStationResult {
  std::string name;
  std::uint64_t seed = 0;
  std::vector<MultiFlowResult> flows;     ///< one per scheduled flow
  std::vector<StationResult> stations;    ///< station index order
  stats::Distribution agg_network_rtt_ms; ///< all flows, post-warmup
  stats::Distribution agg_frame_delay_ms;
  stats::Distribution prediction_error_ms;
  stats::TimeSeries active_flows;         ///< concurrency, sampled 100 ms
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;           ///< mid-run departures only
  std::uint64_t late_packets = 0;         ///< arrived after their flow left
  std::uint64_t qdisc_drops = 0;          ///< sum over stations
  std::uint64_t quiesced_drops = 0;       ///< black-holed at left stations
  std::uint64_t events_executed = 0;
  std::uint64_t flushed_acks_at_end = 0;
  std::uint64_t stranded_acks = 0;
  std::uint64_t invariant_violations = 0;
  AccessPoint::RobustnessStats robustness{};

  // Fault-injection counters, summed over every injector the spec's
  // "faults" section configured. Added after the golden suite pinned
  // multi_result_fingerprint's input stream, so they are deliberately NOT
  // hashed there; tests and the chaos verdict fingerprint read them
  // directly.
  std::uint64_t fault_drops = 0;
  std::uint64_t fault_duplicated = 0;
  std::uint64_t fault_reordered = 0;
  std::uint64_t fault_delay_spiked = 0;
  std::uint64_t fault_bypassed = 0;  ///< non-feedback packets waved through

  /// Per-stage latency attribution (observability only; never hashed by
  /// sweep::multi_result_fingerprint).
  obs::Attribution attrib;

  /// Degradation-ladder transitions, all optimised flows (observability
  /// only; never hashed — same contract as `attrib`).
  std::vector<obs::LadderTransition> ladder_log;

  /// The spec's series_flow record; empty when series_flow is -1. Hashed
  /// only when present, so specs without the key keep their fingerprints.
  std::optional<FlowSeries> series;
};

/// Run a multi-station spec to completion with its embedded seed.
/// Deterministic in (spec, seed): same spec + same seed => bit-identical
/// MultiStationResult on any platform.
[[nodiscard]] MultiStationResult run_multi_station(const ScenarioSpec& spec);

/// Same, overriding the spec's seed (sweeps across seeds).
[[nodiscard]] MultiStationResult run_multi_station(const ScenarioSpec& spec,
                                                   std::uint64_t seed);

}  // namespace zhuge::app
