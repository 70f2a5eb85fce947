#pragma once
// Declarative multi-station scenario specs.
//
// A ScenarioSpec describes N stations on one AP (per-station MCS and fade
// profile), a set of statically scheduled flows, and an optional flow-churn
// process whose arrival/departure schedule is drawn from a dedicated RNG
// substream — the versioned-workload idea from the closed-loop benchmarking
// literature: the workload is data, not code, so dense scale scenarios are
// reproducible, diffable, and shareable.
//
// Specs are written in a small JSON subset (objects, arrays, strings,
// numbers, bools, null; no external dependency). The same Json class is
// reused by the golden-trace records.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "app/access_point.hpp"
#include "fault/fault.hpp"
#include "obs/slo.hpp"
#include "trace/synthetic.hpp"

namespace zhuge::app {

// ---------------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser (subset: no \uXXXX escapes,
// no scientific-notation edge cases beyond what from_chars accepts).
// ---------------------------------------------------------------------------

class Json {
 public:
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<Json>;
  /// Ordered map: object iteration (dump, golden comparison) must be
  /// platform-stable.
  using Object = std::map<std::string, Json>;

  Json() = default;
  static Json make_bool(bool b);
  static Json make_number(double v);
  static Json make_string(std::string s);
  static Json make_array();
  static Json make_object();

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }

  [[nodiscard]] double number_or(double fallback) const {
    return kind_ == Kind::kNumber ? num_ : fallback;
  }
  [[nodiscard]] bool bool_or(bool fallback) const {
    return kind_ == Kind::kBool ? b_ : fallback;
  }
  [[nodiscard]] std::string string_or(std::string fallback) const {
    return kind_ == Kind::kString ? str_ : std::move(fallback);
  }
  [[nodiscard]] const Array& array() const { return arr_; }
  [[nodiscard]] const Object& object() const { return obj_; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(const std::string& key) const;

  /// Mutators for building documents (golden records).
  Json& set(const std::string& key, Json v);
  Json& push(Json v);

  /// Serialise. `indent` > 0 pretty-prints; doubles round-trip (%.17g).
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Parse `text`. On failure returns nullopt and sets `*err` (if non-null)
  /// to "line N: message".
  static std::optional<Json> parse(std::string_view text, std::string* err);

  /// 1-based source line this value started on; 0 for built documents.
  /// Spec validation uses it for "line N: ..." diagnostics on semantic
  /// errors (unknown key, out-of-range value), not just syntax errors.
  [[nodiscard]] int line() const { return line_; }
  void set_line(int line) { line_ = line; }

 private:
  Kind kind_ = Kind::kNull;
  int line_ = 0;
  bool b_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;

  void dump_to(std::string& out, int indent, int depth) const;
};

// ---------------------------------------------------------------------------
// Spec model
// ---------------------------------------------------------------------------

/// Flow families a spec can schedule (RTP/GCC per the paper's RTC workload;
/// video over TCP with CUBIC, BBR or Copa as the TCP RTC workloads of
/// §7.2/Fig. 12; tcp_abc is the cooperating sender for the ABC baseline AP —
/// its cwnd follows the router's accelerate/brake marks, so it only makes
/// sense under ap_mode "abc"; tcp_bulk is the CUBIC bulk competitor of
/// Figs. 16/18, a backlogged source writing 64 KiB every 20 ms while its
/// socket holds less than 256 KiB).
enum class SpecFlowKind : std::uint8_t {
  kRtpGcc, kTcpCubic, kTcpBbr, kTcpAbc, kTcpCopa, kTcpBulk
};

[[nodiscard]] const char* to_string(SpecFlowKind kind);

/// Periodic PHY fade: every `period_s` the station drops `depth_mcs` MCS
/// indices for `duty` of the period (mmWave-blockage-style square wave).
/// period_s == 0 disables fading.
struct FadeSpec {
  double period_s = 0.0;
  int depth_mcs = 0;
  double duty = 0.5;
};

/// A group of `count` identical stations.
struct StationGroupSpec {
  int count = 1;
  int mcs = 7;  ///< 802.11n-like MCS index 0..7
  QdiscKind qdisc = QdiscKind::kFifo;
  std::int64_t queue_limit_bytes = 300 * 1500;
  FadeSpec fade{};
  /// Last-hop technology ("link": "wifi"|"cellular"): an AMPDU WifiLink on
  /// the AP's shared CSMA medium, or a TTI-scheduled CellularLink with its
  /// own queue per station. The station's uplink uses the same technology.
  LinkKind link = LinkKind::kWifi;
  /// When set ("trace": "W1"|"W2"|"C1"|"C2"|"C3"|"ETH"|"ABC") the station's
  /// downlink PHY follows a synthetic trace of that class instead of a
  /// fixed MCS rate; each station in the group gets its own trace drawn
  /// from seed + station index so a dense group doesn't fade in lockstep.
  /// `mcs` still sets the uplink rate. Unset = MCS mode (existing specs
  /// unchanged).
  std::optional<trace::TraceKind> trace_class{};
  /// A measured (or bench-built) trace every station of the group follows
  /// on its downlink ("trace_csv": path, loaded at parse time; benches set
  /// it directly). Takes precedence over `trace_class`; the uplink stays
  /// in MCS mode as for trace classes.
  std::shared_ptr<const trace::Trace> trace{};
  /// When > 0 the station's MCS is re-drawn uniformly from 0..5 every
  /// this many seconds, both directions (Fig. 18 "mcs"). Draws come from
  /// the scenario's auxiliary substream in station order.
  double mcs_reroll_s = 0.0;
  /// When > 0 every station in the group deassociates at this time: the AP
  /// quiesces it (AccessPoint::unregister_station) and its remaining
  /// downlink traffic black-holes. -1 = stays for the whole run.
  double leave_s = -1.0;
};

/// One statically scheduled flow.
struct SpecFlow {
  SpecFlowKind kind = SpecFlowKind::kRtpGcc;
  int station = 0;        ///< station index after group expansion
  bool zhuge = false;     ///< per-flow AP optimisation on/off
  double start_s = 0.0;
  double stop_s = -1.0;   ///< -1 = run end
  double max_bitrate_mbps = 2.5;
  double fps = 30.0;
};

/// Flow-churn process: Poisson-like arrivals with exponential lifetimes,
/// drawn from a dedicated RNG substream (see expand_flow_schedule).
struct ChurnSpec {
  bool enabled = false;
  double mean_interarrival_s = 1.0;
  double mean_lifetime_s = 10.0;
  double max_lifetime_s = 60.0;   ///< clamp for the exponential tail
  int max_concurrent = 16;        ///< arrivals beyond this are skipped
  double mix_rtp_gcc = 1.0;       ///< relative weights of the flow kinds
  double mix_tcp_cubic = 0.0;
  double mix_tcp_bbr = 0.0;
  double zhuge_fraction = 1.0;    ///< P(churn flow gets Zhuge), RTP only
  double start_s = 0.0;
  double stop_s = -1.0;           ///< -1 = run end
  double max_bitrate_mbps = 2.5;
  double fps = 30.0;
};

/// Full declarative multi-station scenario.
struct ScenarioSpec {
  std::string name = "unnamed";
  double duration_s = 30.0;
  double warmup_s = 5.0;
  std::uint64_t seed = 1;
  ApMode ap_mode = ApMode::kZhuge;
  double wan_one_way_ms = 20.0;
  double wan_rate_mbps = 1000.0;
  /// Saturating co-channel senders on other APs contending for the medium
  /// ("interferers", Fig. 17).
  int interferers = 0;
  std::vector<StationGroupSpec> stations;
  std::vector<SpecFlow> flows;
  ChurnSpec churn{};

  /// Fault injection ("faults" section, strictly validated): one injector
  /// per boundary that configures one (WAN ingress, client uplink, AP ->
  /// client, AP -> servers, plus the two feedback-only control-loop
  /// boundaries ap_feedback and uplink_rtcp), AP clock jumps and AP
  /// optimiser restarts. Unconfigured boundaries get no injector at all;
  /// null = no faults. Shared and immutable like a station trace, so
  /// copying a spec (eval cells, seed sweeps) stays cheap.
  std::shared_ptr<const fault::FaultPlan> faults;

  /// Schedule index of the flow whose time series (RTT, rate, frame delay,
  /// goodput), per-second frame rate and predicted-vs-real delay pairs are
  /// recorded into MultiStationResult::series ("series_flow"). -1 = off:
  /// no sampler runs and no series is kept.
  int series_flow = -1;

  /// Zhuge's configuration for every optimised flow. Only the degradation
  /// ladder's starting level has a spec key ("zhuge_initial_ladder": the
  /// default full runs the normal watchdog; any other level pins every
  /// optimised flow there — pass_through is the fingerprint-identical-to-
  /// Zhuge-off control); the ablation bench sets the rest in C++.
  core::ZhugeConfig zhuge{};

  /// Total stations after group expansion.
  [[nodiscard]] int station_count() const;
  /// The group a station index falls in (station_count() must be > index).
  [[nodiscard]] const StationGroupSpec& station_group(int station) const;
};

/// Parse a trace-class short name ("W1"..."C3", "ETH", "ABC") into its
/// generator kind. Shared by the station "trace" key and the eval matrix's
/// trace axis.
[[nodiscard]] bool parse_trace_class(const std::string& s,
                                     trace::TraceKind& out);

/// Parse a spec document. Parsing is strict: an unknown key in any section
/// (top level, stations[], fade, flows[], churn, faults and its boundaries)
/// fails with "line N: unknown key '<k>' in <section>", because a typo
/// would otherwise silently run a different scenario. Structural and range
/// errors (wrong JSON, no stations, bad enums, fault probabilities outside
/// [0, 1]) fail with `*err` too. "trace_csv" paths are read at parse time,
/// relative to the working directory.
[[nodiscard]] std::optional<ScenarioSpec> parse_scenario_spec(
    std::string_view text, std::string* err);

/// Read + parse a spec file.
[[nodiscard]] std::optional<ScenarioSpec> load_scenario_spec(
    const std::string& path, std::string* err);

// ---------------------------------------------------------------------------
// Schedule expansion
// ---------------------------------------------------------------------------

/// A concrete flow lifetime produced from the spec: static flows first (in
/// declaration order), then churn arrivals in time order.
struct FlowEvent {
  std::uint32_t index = 0;  ///< dense id; the engine derives ports from it
  SpecFlowKind kind = SpecFlowKind::kRtpGcc;
  int station = 0;
  bool zhuge = false;
  double start_s = 0.0;
  double stop_s = 0.0;
  double max_bitrate_mbps = 2.5;
  double fps = 30.0;
};

/// Expand the spec into a deterministic flow schedule for `seed`. Churn
/// draws come from Rng(seed, substreams::kSpecFlowChurn) in a fixed per-arrival order
/// (interarrival, lifetime, kind, station, zhuge) — draws are consumed even
/// for arrivals skipped by max_concurrent, so admitting or dropping one
/// arrival never shifts the randomness of the rest of the schedule.
[[nodiscard]] std::vector<FlowEvent> expand_flow_schedule(
    const ScenarioSpec& spec, std::uint64_t seed);

}  // namespace zhuge::app
