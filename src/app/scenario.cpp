#include "app/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "cca/abc_sender.hpp"
#include "cca/bbr.hpp"
#include "cca/copa.hpp"
#include "cca/cubic.hpp"
#include "fault/fault.hpp"
#include "net/link.hpp"
#include "obs/invariants.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "queue/fifo.hpp"
#include "rtc/video.hpp"
#include "sim/flat_map.hpp"
#include "sim/substreams.hpp"
#include "trace/synthetic.hpp"
#include "transport/rtp_receiver.hpp"
#include "transport/rtp_sender.hpp"
#include "transport/tcp_receiver.hpp"
#include "transport/tcp_sender.hpp"

namespace zhuge::app {

namespace {

using net::FlowId;
using net::Packet;
using sim::Duration;
using sim::TimePoint;

TimePoint at_seconds(double seconds) {
  return TimePoint::zero() + Duration::from_seconds(seconds);
}

/// Congestion controller of a TCP flow kind.
std::unique_ptr<cca::CongestionControl> make_tcp_cca(SpecFlowKind kind) {
  switch (kind) {
    case SpecFlowKind::kTcpCubic:
    case SpecFlowKind::kTcpBulk: return std::make_unique<cca::Cubic>();
    case SpecFlowKind::kTcpAbc: return std::make_unique<cca::AbcSender>();
    case SpecFlowKind::kTcpCopa: return std::make_unique<cca::Copa>();
    case SpecFlowKind::kTcpBbr:
    case SpecFlowKind::kRtpGcc: break;
  }
  return std::make_unique<cca::Bbr>();
}

/// Bulk source of tcp_bulk flows: a 64 KiB write every 20 ms while the
/// socket holds less than 256 KiB, i.e. always backlogged.
constexpr Duration kBulkTick = Duration::millis(20);
constexpr std::uint64_t kBulkChunkBytes = 64 * 1024;
constexpr std::uint64_t kBulkBacklogBytes = 256 * 1024;

/// Sampling period of the series flow's rate and goodput series.
constexpr Duration kSeriesTick = Duration::millis(50);

/// One live flow of a run: endpoints plus metric sinks. The transport
/// endpoints own timer-cancelling destructors, so destroying an MFlow
/// mid-run (churn departure) leaves no dangling callbacks.
struct MFlow {
  FlowEvent ev;
  FlowId flow;

  std::unique_ptr<transport::RtpSender> rtp_sender;
  std::unique_ptr<transport::RtpReceiver> rtp_receiver;
  std::unique_ptr<transport::TcpSender> tcp_sender;
  std::unique_ptr<transport::TcpReceiver> tcp_receiver;
  std::unique_ptr<rtc::VideoEncoder> tcp_encoder;
  std::uint32_t tcp_next_frame = 0;  ///< frames (video) or chunks (bulk) written
  sim::EventId tick_id{};  ///< TCP frame / bulk tick; cancelled at departure

  rtc::FrameStats frame_stats;
  stats::Distribution network_rtt_ms;
  stats::Distribution downlink_owd_ms;
  std::uint64_t app_bytes_delivered = 0;  ///< post-warmup
  std::uint64_t packets_delivered = 0;
  double last_uplink_owd_ms = 0.0;
  FlowSeries* series = nullptr;  ///< non-null for the spec's series_flow
};

/// Everything alive during one run. Members are wired in construction
/// order; declaration order here is destruction-safety order.
class MultiScenario {
 public:
  MultiScenario(const ScenarioSpec& spec, std::uint64_t seed)
      : spec_(spec), seed_(seed) {
    build();
  }

  MultiStationResult run();

 private:
  void build();
  void build_injectors();
  void build_station(int index);
  void arrive(const FlowEvent& ev);
  void depart(std::uint32_t index);
  void finalize_flow(MFlow& f);
  void sample_active();
  void sample_series();
  void set_station_mcs(int station, int mcs);
  void client_send_uplink(int station, Packet&& p);
  void server_receive(Packet&& p);
  void client_receive(Packet&& p);
  void handle_delivery_metrics(const Packet& p, MFlow& f);
  void record_series_delivery(const Packet& p, MFlow& f, TimePoint now);

  [[nodiscard]] static std::uint32_t station_ip(int station) {
    return static_cast<std::uint32_t>(100 + station);
  }

  ScenarioSpec spec_;
  std::uint64_t seed_;
  sim::Simulator sim_;
  std::unique_ptr<sim::Rng> rng_;           ///< kScenarioMain
  std::unique_ptr<sim::Rng> scenario_rng_;  ///< kScenarioAux: fade phases,
                                            ///< MCS re-rolls
  net::PacketUidSource uids_;

  /// Synthetic ABW traces for trace-class stations. Declared before the
  /// channels, which keep raw pointers into them.
  std::vector<std::unique_ptr<trace::Trace>> station_traces_;
  std::vector<std::unique_ptr<wireless::Channel>> down_channels_;
  std::vector<std::unique_ptr<wireless::Channel>> up_channels_;
  std::unique_ptr<wireless::Medium> medium_;

  // Fault injectors, one per boundary the spec's "faults" section
  // configures (null otherwise, and then nothing is wired in). Each owns
  // an independent RNG substream, so enabling a fault never perturbs the
  // channel/CCA realisation of the clean run. Declared before ap_ and the
  // links whose handlers call into them.
  std::unique_ptr<fault::Injector> inj_downlink_wan_;       ///< WAN -> AP
  std::unique_ptr<fault::Injector> inj_uplink_wireless_;    ///< client -> AP
  std::unique_ptr<fault::Injector> inj_downlink_wireless_;  ///< AP -> client
  std::unique_ptr<fault::Injector> inj_uplink_wan_;         ///< AP -> servers
  std::unique_ptr<fault::Injector> inj_ap_feedback_;  ///< AP-rewritten fb -> WAN
  std::unique_ptr<fault::Injector> inj_uplink_rtcp_;  ///< client RTCP -> AP
  /// Where a station's uplink delivers: the first configured uplink
  /// injector of the chain RTCP fault -> uplink fault -> AP.
  net::PacketHandler uplink_delivery_;

  std::unique_ptr<AccessPoint> ap_;
  std::unique_ptr<net::PointToPointLink> wan_down_;
  std::unique_ptr<net::PointToPointLink> wan_up_;

  /// Per-station client uplink: WiFi over the shared medium, or a cellular
  /// uplink for cellular stations.
  struct UplinkPath {
    std::unique_ptr<queue::DropTailFifo> qdisc;
    std::unique_ptr<wireless::WifiLink> wifi;
    std::unique_ptr<wireless::CellularLink> cellular;
  };
  std::vector<UplinkPath> uplinks_;

  std::vector<FlowEvent> schedule_;
  /// Live flows by schedule index; ordered so end-of-run finalisation walks
  /// in index order (part of the simulated outcome).
  std::map<std::uint32_t, std::unique_ptr<MFlow>> active_;
  /// Live flows by downlink 5-tuple, read on every delivered packet.
  sim::FlatMap<FlowId, MFlow*> by_flow_;

  MultiStationResult result_;
  TimePoint warmup_end_;
  TimePoint run_end_;
  std::uint64_t series_bucket_bytes_ = 0;  ///< series flow, current 50 ms bin
  std::uint64_t invariants_at_start_ = 0;
};

void MultiScenario::build() {
  rng_ = std::make_unique<sim::Rng>(seed_, sim::substreams::kScenarioMain);
  scenario_rng_ = std::make_unique<sim::Rng>(seed_, sim::substreams::kScenarioAux);
  warmup_end_ = TimePoint::zero() + Duration::from_seconds(spec_.warmup_s);
  run_end_ = TimePoint::zero() + Duration::from_seconds(spec_.duration_s);

  result_.name = spec_.name;
  result_.seed = seed_;

  const int n_stations = spec_.station_count();
  wireless::Medium::Config mcfg;
  mcfg.interferers = spec_.interferers;
  medium_ = std::make_unique<wireless::Medium>(sim_, *rng_, mcfg);

  // AP -> servers wired uplink.
  net::PointToPointLink::Config wan_cfg;
  wan_cfg.rate_bps = spec_.wan_rate_mbps * 1e6;
  wan_cfg.prop_delay = Duration::from_seconds(spec_.wan_one_way_ms / 1e3);
  wan_up_ = std::make_unique<net::PointToPointLink>(
      sim_, wan_cfg, [this](Packet&& p) { server_receive(std::move(p)); });

  build_injectors();

  AccessPoint::Config apcfg;
  apcfg.mode = spec_.ap_mode;
  apcfg.zhuge = spec_.zhuge;
  ap_ = std::make_unique<AccessPoint>(
      sim_, *rng_, *medium_, apcfg,
      inj_downlink_wireless_ != nullptr
          ? inj_downlink_wireless_->as_handler()
          : net::PacketHandler([this](Packet&& p) { client_receive(std::move(p)); }),
      [this](Packet&& p) { wan_up_->send(std::move(p)); });

  // AP-rewritten-feedback fault boundary: everything the optimiser emits
  // towards the WAN (released OOB delay-token ACKs, AP-built TWCC,
  // forwarded client RTCP of optimised flows) detours through this
  // injector before the wired uplink — exactly the shortest control loop,
  // nothing else.
  if (inj_ap_feedback_ != nullptr) {
    ap_->set_feedback_fault_hook(inj_ap_feedback_->as_handler());
  }

  // Servers -> AP wired downlink.
  wan_down_ = std::make_unique<net::PointToPointLink>(
      sim_, wan_cfg, [this](Packet&& p) { ap_->from_wan(std::move(p)); });
  if (inj_downlink_wan_ != nullptr) {
    wan_down_->set_fault_hook(inj_downlink_wan_->as_handler());
  }
  if (inj_uplink_wan_ != nullptr) {
    wan_up_->set_fault_hook(inj_uplink_wan_->as_handler());
  }

  for (int i = 0; i < n_stations; ++i) build_station(i);

  // Flow schedule: arrivals and mid-run departures, in index order so that
  // same-timestamp events resolve by the simulator's FIFO tie-break.
  schedule_ = expand_flow_schedule(spec_, seed_);
  result_.flows.resize(schedule_.size());
  for (const auto& ev : schedule_) {
    auto& slot = result_.flows[ev.index];
    slot.index = ev.index;
    slot.kind = ev.kind;
    slot.station = ev.station;
    slot.zhuge = ev.zhuge;
    slot.start_s = ev.start_s;
    slot.stop_s = ev.stop_s;
    sim_.schedule_at(at_seconds(ev.start_s), [this, ev] { arrive(ev); });
    if (ev.stop_s < spec_.duration_s) {
      sim_.schedule_at(at_seconds(ev.stop_s),
                       [this, idx = ev.index] { depart(idx); });
    }
  }

  // Station departures (deassociation): quiesce at leave_s.
  for (int i = 0; i < n_stations; ++i) {
    const double leave = spec_.station_group(i).leave_s;
    if (leave > 0 && leave < spec_.duration_s) {
      sim_.schedule_at(at_seconds(leave), [this, ip = station_ip(i)] {
        ap_->unregister_station(ip);
      });
    }
  }

  // Scheduled non-packet faults: AP clock steps and optimiser restarts.
  if (spec_.faults != nullptr) {
    for (const auto& jump : spec_.faults->clock_jumps) {
      sim_.schedule_at(jump.at,
                       [this, d = jump.delta] { ap_->inject_clock_jump(d); });
    }
    for (const auto& at : spec_.faults->ap_restarts) {
      sim_.schedule_at(at, [this] { ap_->restart_optimizer(); });
    }
  }

  sim_.schedule_after(Duration::millis(100), [this] { sample_active(); });
  if (spec_.series_flow >= 0) {
    result_.series.emplace();
    sim_.schedule_after(kSeriesTick, [this] { sample_series(); });
  }
  invariants_at_start_ = obs::invariants().total();
}

void MultiScenario::build_injectors() {
  uplink_delivery_ = [this](Packet&& p) { ap_->from_client(std::move(p)); };
  if (spec_.faults == nullptr) return;
  const fault::FaultPlan& plan = *spec_.faults;
  const auto make = [this](fault::InjectorConfig cfg, sim::Rng rng,
                           net::PacketHandler sink) {
    return std::make_unique<fault::Injector>(sim_, rng, std::move(cfg),
                                             std::move(sink));
  };
  if (plan.downlink_wan.any()) {
    inj_downlink_wan_ =
        make(plan.downlink_wan, sim::Rng(seed_, sim::substreams::kFaultDownlinkWan),
             [this](Packet&& p) { ap_->from_wan(std::move(p)); });
  }
  if (plan.uplink_wireless.any()) {
    inj_uplink_wireless_ =
        make(plan.uplink_wireless,
             sim::Rng(seed_, sim::substreams::kFaultUplinkWireless),
             [this](Packet&& p) { ap_->from_client(std::move(p)); });
  }
  if (plan.downlink_wireless.any()) {
    inj_downlink_wireless_ =
        make(plan.downlink_wireless,
             sim::Rng(seed_, sim::substreams::kFaultDownlinkWireless),
             [this](Packet&& p) { client_receive(std::move(p)); });
  }
  if (plan.uplink_wan.any()) {
    inj_uplink_wan_ =
        make(plan.uplink_wan, sim::Rng(seed_, sim::substreams::kFaultUplinkWan),
             [this](Packet&& p) { server_receive(std::move(p)); });
  }

  // Client uplink chain. The feedback-only RTCP injector sits *before* the
  // generic uplink injector: a survivor of the feedback fault still
  // crosses whatever uplink impairment the plan also configures.
  if (inj_uplink_wireless_ != nullptr) {
    uplink_delivery_ = inj_uplink_wireless_->as_handler();
  }
  // Both control-loop boundaries force only_feedback, so enabling one
  // never perturbs data packets (or their RNG realisation).
  if (plan.uplink_rtcp.any()) {
    fault::InjectorConfig cfg = plan.uplink_rtcp;
    cfg.only_feedback = true;
    inj_uplink_rtcp_ =
        make(std::move(cfg), sim::Rng(seed_, sim::substreams::kFaultUplinkRtcp),
             uplink_delivery_);
    uplink_delivery_ = inj_uplink_rtcp_->as_handler();
  }
  if (plan.ap_feedback.any()) {
    fault::InjectorConfig cfg = plan.ap_feedback;
    cfg.only_feedback = true;
    inj_ap_feedback_ =
        make(std::move(cfg), sim::Rng(seed_, sim::substreams::kFaultApFeedback),
             [this](Packet&& p) { wan_up_->send(std::move(p)); });
  }
}

void MultiScenario::build_station(int index) {
  const StationGroupSpec& g = spec_.station_group(index);
  const trace::Trace* tr = g.trace.get();
  if (tr == nullptr && g.trace_class.has_value()) {
    // Trace-class station: the downlink ABW follows a synthetic trace of
    // the spec'd class, seeded per station so a dense group does not fade
    // in lockstep.
    station_traces_.push_back(std::make_unique<trace::Trace>(trace::make_trace(
        *g.trace_class, seed_ + static_cast<std::uint64_t>(index),
        Duration::from_seconds(spec_.duration_s))));
    tr = station_traces_.back().get();
  }
  // Trace-driven stations vary only the downlink: the uplink stays in MCS
  // mode (RTCP feedback is small; the paper's trace-driven runs vary only
  // the bottleneck direction).
  down_channels_.push_back(tr != nullptr ? std::make_unique<wireless::Channel>(tr)
                                         : std::make_unique<wireless::Channel>(g.mcs));
  up_channels_.push_back(std::make_unique<wireless::Channel>(g.mcs));

  AccessPoint::StationConfig scfg;
  scfg.qdisc = g.qdisc;
  scfg.queue_limit_bytes = g.queue_limit_bytes;
  scfg.link = g.link;
  ap_->register_station(station_ip(index), *down_channels_.back(), scfg);

  // Client-side uplink path: same technology as the downlink, over the
  // same contended medium for WiFi.
  UplinkPath up;
  up.qdisc = std::make_unique<queue::DropTailFifo>(200 * 1500);
  if (g.link == LinkKind::kWifi) {
    wireless::WifiLink::Config ul_cfg;
    ul_cfg.max_agg_packets = 8;  // feedback packets are small and few
    up.wifi = std::make_unique<wireless::WifiLink>(
        sim_, *rng_, *up_channels_.back(), *medium_, *up.qdisc, ul_cfg,
        uplink_delivery_);
  } else {
    up.cellular = std::make_unique<wireless::CellularLink>(
        sim_, *rng_, *up_channels_.back(), *up.qdisc,
        wireless::CellularLink::Config{}, uplink_delivery_);
  }
  uplinks_.push_back(std::move(up));

  // Square-wave PHY fade. The phase draw comes from scenario_rng_ in
  // station order at build time, so the channel realisation is identical
  // across AP modes and flow schedules.
  if (g.fade.period_s > 0 && g.fade.depth_mcs > 0) {
    const double phase = scenario_rng_->uniform(0.0, g.fade.period_s);
    const int high = g.mcs;
    const int low = std::max(0, g.mcs - g.fade.depth_mcs);
    const Duration faded_for =
        Duration::from_seconds(g.fade.period_s * g.fade.duty);
    const Duration clear_for =
        Duration::from_seconds(g.fade.period_s * (1.0 - g.fade.duty));
    struct FadeTick {
      MultiScenario* s;
      int station;
      int high, low;
      Duration faded_for, clear_for;
      void operator()(bool faded) const {
        s->set_station_mcs(station, faded ? low : high);
        s->sim_.schedule_after(faded ? faded_for : clear_for,
                               [t = *this, faded] { t(!faded); });
      }
    };
    sim_.schedule_after(
        Duration::from_seconds(phase),
        [t = FadeTick{this, index, high, low, faded_for, clear_for}] {
          t(true);
        });
  }

  // MCS re-roll (Fig. 18 "mcs"): a fresh MCS 0..5 for both directions
  // every mcs_reroll_s, drawn from scenario_rng_ at fire time.
  if (g.mcs_reroll_s > 0) {
    struct McsReroll {
      MultiScenario* s;
      int station;
      Duration every;
      void operator()() const {
        s->set_station_mcs(station,
                           static_cast<int>(s->scenario_rng_->uniform_int(6)));
        s->sim_.schedule_after(every, [t = *this] { t(); });
      }
    };
    const Duration every = Duration::from_seconds(g.mcs_reroll_s);
    sim_.schedule_after(every, [t = McsReroll{this, index, every}] { t(); });
  }
}

void MultiScenario::set_station_mcs(int station, int mcs) {
  down_channels_[static_cast<std::size_t>(station)]->set_mcs(mcs);
  up_channels_[static_cast<std::size_t>(station)]->set_mcs(mcs);
  ZHUGE_TRACE(sim_.now(), "mstation", "fade", {"station", double(station)},
              {"mcs", double(mcs)});
}

void MultiScenario::arrive(const FlowEvent& ev) {
  auto f = std::make_unique<MFlow>();
  f->ev = ev;
  const bool is_rtp = ev.kind == SpecFlowKind::kRtpGcc;
  f->flow = FlowId{/*src_ip=*/1, station_ip(ev.station),
                   /*src_port=*/5000,
                   static_cast<std::uint16_t>(6000 + ev.index % 50000),
                   is_rtp ? std::uint8_t{17} : std::uint8_t{6}};
  f->last_uplink_owd_ms = spec_.wan_one_way_ms + 2.0;
  if (static_cast<int>(ev.index) == spec_.series_flow) f->series = &*result_.series;

  if (ev.zhuge && spec_.ap_mode != ApMode::kNone) {
    ap_->register_rtc_flow(f->flow);
  }

  rtc::VideoConfig video;
  video.fps = ev.fps;
  video.max_bitrate_bps = ev.max_bitrate_mbps * 1e6;
  video.start_bitrate_bps =
      std::min(video.start_bitrate_bps, video.max_bitrate_bps);

  MFlow* fp = f.get();
  f->frame_stats.set_observer([this, fp](TimePoint capture, TimePoint decode) {
    const double ms = (decode - capture).to_millis();
    if (fp->series != nullptr) fp->series->frame_delay_ms.record(decode, ms);
    if (decode >= warmup_end_) result_.agg_frame_delay_ms.add(ms);
  });
  // Latency attribution: a flow is "optimized" when the AP actually runs
  // Zhuge for it, which is what the stage-resolved on/off comparison keys on.
  const bool span_opt = ev.zhuge && spec_.ap_mode != ApMode::kNone;
  f->frame_stats.set_span_observer(
      [this, span_opt](const obs::FrameSpan& s) {
        if (TimePoint(s.decode_ns) < warmup_end_) return;
        result_.attrib.record_frame(span_opt, s);
      });

  const int station = ev.station;
  if (is_rtp) {
    transport::RtpSender::Config scfg;
    scfg.ssrc = ev.index + 1;
    scfg.video = video;
    scfg.gcc.start_rate_bps = video.start_bitrate_bps;
    scfg.gcc.min_rate_bps = video.min_bitrate_bps;
    scfg.gcc.max_rate_bps = video.max_bitrate_bps;
    f->rtp_sender = std::make_unique<transport::RtpSender>(
        sim_, *rng_, f->flow, scfg, uids_,
        [this](Packet&& p) { wan_down_->send(std::move(p)); });
    transport::RtpReceiver::Config rcfg;
    rcfg.ssrc = scfg.ssrc;
    f->rtp_receiver = std::make_unique<transport::RtpReceiver>(
        sim_, rcfg, uids_,
        [this, station](Packet&& p) { client_send_uplink(station, std::move(p)); },
        f->frame_stats);
    f->rtp_sender->start();
  } else {
    transport::TcpSender::Config scfg;
    f->tcp_sender = std::make_unique<transport::TcpSender>(
        sim_, f->flow, make_tcp_cca(ev.kind), scfg, uids_,
        [this](Packet&& p) { wan_down_->send(std::move(p)); });
    // For TCP the per-packet network RTT is what a server-side capture
    // measures: data departure to ACK arrival. Zhuge's held ACKs shift
    // this curve forward (paper Fig. 10) without double-counting.
    f->tcp_sender->set_rtt_observer([this, fp](Duration rtt, TimePoint now) {
      if (now >= warmup_end_) {
        fp->network_rtt_ms.add(rtt.to_millis());
        result_.agg_network_rtt_ms.add(rtt.to_millis());
      }
      if (fp->series != nullptr) {
        fp->series->rtt_ms.record(now, rtt.to_millis());
        ZHUGE_TRACE(now, "app", "rtt", {"rtt_ms", rtt.to_millis()},
                    {"flow", double(fp->ev.index)});
      }
    });
    transport::TcpReceiver::Config rcfg;
    const auto to_uplink = [this, station](Packet&& p) {
      client_send_uplink(station, std::move(p));
    };

    if (ev.kind == SpecFlowKind::kTcpBulk) {
      f->tcp_receiver = std::make_unique<transport::TcpReceiver>(
          sim_, rcfg, uids_, to_uplink, nullptr);
      struct BulkTick {
        MultiScenario* s;
        MFlow* f;
        void operator()() const {
          if (f->tcp_sender->backlog_bytes() < kBulkBacklogBytes) {
            f->tcp_sender->write_frame(f->tcp_next_frame++, s->sim_.now(),
                                       kBulkChunkBytes);
          }
          f->tick_id = s->sim_.schedule_after(kBulkTick, [t = *this] { t(); });
        }
      };
      f->tick_id = sim_.schedule_after(kBulkTick, [t = BulkTick{this, fp}] { t(); });
    } else {
      f->tcp_encoder = std::make_unique<rtc::VideoEncoder>(video, *rng_);
      f->tcp_receiver = std::make_unique<transport::TcpReceiver>(
          sim_, rcfg, uids_, to_uplink,
          [fp](std::uint32_t frame_id, TimePoint capture, TimePoint now) {
            fp->frame_stats.on_frame_decoded(capture, now);
            if (obs::attrib_enabled()) {
              // TCP-framed video has no jitter-buffer stages; synthesise
              // the capture->decode span so frame_e2e covers these flows.
              obs::FrameSpan s;
              s.flow_key = fp->ev.index + 1;
              s.frame_id = frame_id;
              s.capture_ns = capture.count_ns();
              s.decode_ns = now.count_ns();
              fp->frame_stats.on_frame_span(s);
            }
          });

      // Video-over-TCP source: frames at fps tracking the delivery rate;
      // the encoder skips frames when the socket backlog exceeds ~100 ms
      // of video (real encoders stall rather than queue without bound).
      struct FrameTick {
        MultiScenario* s;
        MFlow* f;
        void operator()() const {
          auto& sender = *f->tcp_sender;
          const double hint =
              std::max(sender.congestion_control().pacing_rate_bps() * 0.85,
                       sender.delivery_rate_bps(s->sim_.now()) * 0.95);
          double target = hint > 0 ? hint : f->tcp_encoder->encoder_rate_bps();
          // Upward probe: rate-sampling CCAs (BBR) pace off their own
          // bandwidth estimate, which is in turn fed by what we offer —
          // tracking the hints alone is a stable fixed point at *any*
          // rate, so a fault that knocks the estimate down would pin the
          // flow low forever. Real encoders raise the offered bitrate while
          // the socket keeps up; congestion shows up as backlog and pulls
          // the offer back to the hints (next_frame_bytes clamps at
          // max_bitrate).
          if (sender.backlog_bytes() == 0) {
            target = std::max(target, f->tcp_encoder->encoder_rate_bps() * 1.05);
          }
          const std::uint64_t bytes = f->tcp_encoder->next_frame_bytes(target);
          const double backlog_limit =
              std::max(f->tcp_encoder->encoder_rate_bps(), 1e5) * 0.10 / 8.0;
          if (static_cast<double>(sender.backlog_bytes()) < backlog_limit) {
            sender.write_frame(f->tcp_next_frame++, s->sim_.now(), bytes);
          }
          f->tick_id = s->sim_.schedule_after(f->tcp_encoder->frame_interval(),
                                              [t = *this] { t(); });
        }
      };
      f->tick_id = sim_.schedule_after(Duration::millis(1),
                                       [t = FrameTick{this, fp}] { t(); });
    }
  }

  if (const auto [it, inserted] = by_flow_.try_emplace(f->flow, fp); !inserted) {
    it->second = fp;
  }
  active_[ev.index] = std::move(f);
  ++result_.arrivals;
  ZHUGE_METRIC_INC("mstation.arrivals");
  ZHUGE_TRACE(sim_.now(), "mstation", "arrive", {"flow", double(ev.index)},
              {"station", double(ev.station)});
}

void MultiScenario::depart(std::uint32_t index) {
  const auto it = active_.find(index);
  if (it == active_.end()) return;
  MFlow& f = *it->second;
  sim_.cancel(f.tick_id);
  // Flush any feedback Zhuge still holds for the flow before its endpoints
  // disappear (the AckScheduler drains through the uplink handler, which
  // demuxes to a dead flow and counts as late -- matching a real AP that
  // releases buffered ACKs after the TCP connection closed).
  ap_->unregister_rtc_flow(f.flow);
  finalize_flow(f);
  by_flow_.erase(f.flow);
  active_.erase(it);
  ++result_.departures;
  ZHUGE_METRIC_INC("mstation.departures");
  ZHUGE_TRACE(sim_.now(), "mstation", "depart", {"flow", double(index)});
}

void MultiScenario::finalize_flow(MFlow& f) {
  MultiFlowResult& fr = result_.flows[f.ev.index];
  fr.network_rtt_ms = std::move(f.network_rtt_ms);
  fr.downlink_owd_ms = std::move(f.downlink_owd_ms);
  fr.frame_delay_ms = f.frame_stats.frame_delays_ms();
  fr.frames_decoded = f.frame_stats.frames_decoded();
  fr.frames_sent =
      f.rtp_sender ? f.rtp_sender->frames_sent() : f.tcp_next_frame;
  fr.packets_delivered = f.packets_delivered;
  const double lo = std::max(f.ev.start_s, spec_.warmup_s);
  const double hi = std::min(f.ev.stop_s, spec_.duration_s);
  fr.goodput_bps =
      hi > lo ? static_cast<double>(f.app_bytes_delivered) * 8.0 / (hi - lo)
              : 0.0;
  if (f.series != nullptr && hi > lo) {
    f.series->frame_rate_fps = f.frame_stats.frame_rates(
        static_cast<std::size_t>(lo), static_cast<std::size_t>(hi));
  }
}

void MultiScenario::sample_active() {
  result_.active_flows.record(sim_.now(), static_cast<double>(active_.size()));
  ZHUGE_METRIC_SET("mstation.active_flows", double(active_.size()));
  sim_.schedule_after(Duration::millis(100), [this] { sample_active(); });
}

void MultiScenario::sample_series() {
  const auto it = active_.find(static_cast<std::uint32_t>(spec_.series_flow));
  if (it != active_.end()) {
    const MFlow& f = *it->second;
    const TimePoint now = sim_.now();
    double rate = 0.0;
    if (f.rtp_sender) {
      rate = f.rtp_sender->target_rate_bps();
    } else {
      const Duration srtt = f.tcp_sender->smoothed_rtt();
      rate = srtt > Duration::zero()
                 ? static_cast<double>(f.tcp_sender->congestion_control().cwnd_bytes()) *
                       8.0 / srtt.to_seconds()
                 : 0.0;
    }
    FlowSeries& s = *result_.series;
    s.rate_bps.record(now, rate);
    s.goodput_bps.record(now, static_cast<double>(series_bucket_bytes_) * 8.0 /
                                  kSeriesTick.to_seconds());
    ZHUGE_TRACE(now, "app", "sample", {"rate_mbps", rate / 1e6},
                {"ap_queue_bytes",
                 double(ap_->station_qdisc(f.flow.dst_ip)->byte_count())},
                {"sim_pending", double(sim_.pending())});
  }
  series_bucket_bytes_ = 0;
  sim_.schedule_after(kSeriesTick, [this] { sample_series(); });
}

void MultiScenario::client_send_uplink(int station, Packet&& p) {
  UplinkPath& up = uplinks_[static_cast<std::size_t>(station)];
  if (up.wifi != nullptr) {
    up.wifi->offer(std::move(p));
  } else {
    up.cellular->offer(std::move(p));
  }
}

void MultiScenario::server_receive(Packet&& p) {
  const auto it = by_flow_.find(p.flow.reversed());
  if (it == by_flow_.end()) {
    ++result_.late_packets;
    return;
  }
  MFlow& f = *it->second;
  const double owd = (sim_.now() - p.sent_time).to_millis();
  if (owd > 0 && owd < 10e3) f.last_uplink_owd_ms = owd;
  if (f.rtp_sender && p.is_rtcp()) {
    f.rtp_sender->on_rtcp(p);
  } else if (f.tcp_sender && p.is_tcp()) {
    f.tcp_sender->on_ack(p);
  }
}

void MultiScenario::record_series_delivery(const Packet& p, MFlow& f,
                                           TimePoint now) {
  FlowSeries& s = *f.series;
  series_bucket_bytes_ += p.size_bytes;
  const double down_ms = (now - p.sent_time).to_millis();
  if (f.rtp_sender != nullptr) {
    const double rtt_ms = down_ms + f.last_uplink_owd_ms;
    s.rtt_ms.record(now, rtt_ms);
    ZHUGE_TRACE(now, "app", "rtt", {"rtt_ms", rtt_ms}, {"owd_ms", down_ms});
  }
  if (now >= warmup_end_ && p.predicted_delay_ms >= 0.0) {
    s.predicted_vs_real_ms.emplace_back(
        p.predicted_delay_ms, (now - p.ap_enqueue_time).to_millis());
  }
}

void MultiScenario::handle_delivery_metrics(const Packet& p, MFlow& f) {
  const TimePoint now = sim_.now();
  ++f.packets_delivered;
  if (f.series != nullptr) record_series_delivery(p, f, now);
  if (now < warmup_end_) return;
  const double down_ms = (now - p.sent_time).to_millis();
  f.downlink_owd_ms.add(down_ms);
  f.app_bytes_delivered += p.size_bytes;
  if (f.rtp_sender != nullptr) {
    // RTP network RTT: downlink OWD plus the latest measured uplink OWD
    // (TCP flows record sender-side RTT samples instead).
    const double rtt_ms = down_ms + f.last_uplink_owd_ms;
    f.network_rtt_ms.add(rtt_ms);
    result_.agg_network_rtt_ms.add(rtt_ms);
  }
  if (p.predicted_delay_ms >= 0.0) {
    const double actual_ms = (now - p.ap_enqueue_time).to_millis();
    result_.prediction_error_ms.add(std::abs(p.predicted_delay_ms - actual_ms));
  }
  if (obs::attrib_enabled()) {
    const bool span_opt = f.ev.zhuge && spec_.ap_mode != ApMode::kNone;
    result_.attrib.record_packet(f.ev.index + 1, span_opt,
                                 p.sent_time.count_ns(),
                                 p.ap_enqueue_time.count_ns(),
                                 now.count_ns(), p.span);
  }
}

void MultiScenario::client_receive(Packet&& p) {
  const auto it = by_flow_.find(p.flow);
  if (it == by_flow_.end()) {
    ++result_.late_packets;
    return;
  }
  MFlow& f = *it->second;
  handle_delivery_metrics(p, f);
  if (f.rtp_receiver && p.is_rtp()) {
    f.rtp_receiver->on_rtp(p);
  } else if (f.tcp_receiver && p.is_tcp()) {
    f.tcp_receiver->on_data(p);
  }
}

MultiStationResult MultiScenario::run() {
  sim_.run_until(run_end_);

  // Drain held feedback while the topology is still alive, then finalise
  // the flows that ran to the end of the simulation.
  result_.flushed_acks_at_end = ap_->flush_feedback();
  result_.stranded_acks = ap_->pending_feedback();
  result_.robustness = ap_->robustness();
  result_.ladder_log = ap_->ladder_log();
  for (const auto* inj :
       {inj_downlink_wan_.get(), inj_uplink_wireless_.get(),
        inj_downlink_wireless_.get(), inj_uplink_wan_.get(),
        inj_ap_feedback_.get(), inj_uplink_rtcp_.get()}) {
    if (inj == nullptr) continue;
    result_.fault_drops += inj->dropped();
    result_.fault_duplicated += inj->duplicated();
    result_.fault_reordered += inj->reordered();
    result_.fault_delay_spiked += inj->delay_spiked();
    result_.fault_bypassed += inj->bypassed();
  }
  for (auto& [idx, f] : active_) {
    sim_.cancel(f->tick_id);
    finalize_flow(*f);
  }

  const int n_stations = spec_.station_count();
  for (int i = 0; i < n_stations; ++i) {
    StationResult sr;
    if (const auto st = ap_->station_stats(station_ip(i)); st.has_value()) {
      sr.airtime_s = st->airtime.to_seconds();
      sr.qdisc_drops = st->qdisc_drops;
      sr.delivered_packets = st->delivered_packets;
      result_.qdisc_drops += sr.qdisc_drops;
    }
    result_.stations.push_back(sr);
  }
  result_.quiesced_drops = ap_->quiesced_drops();
  result_.events_executed = sim_.events_executed();
  result_.invariant_violations =
      obs::invariants().total() - invariants_at_start_;

  if (obs::metrics_enabled()) {
    ZHUGE_METRIC_SET("mstation.flows_total", double(result_.flows.size()));
    ZHUGE_METRIC_SET("mstation.qdisc_drops", double(result_.qdisc_drops));
    ZHUGE_METRIC_SET("mstation.events_executed",
                     double(result_.events_executed));
    if (result_.agg_network_rtt_ms.count() > 0) {
      ZHUGE_METRIC_SET("mstation.rtt_p50_ms",
                       result_.agg_network_rtt_ms.quantile(0.5));
      ZHUGE_METRIC_SET("mstation.rtt_p99_ms",
                       result_.agg_network_rtt_ms.quantile(0.99));
    }
  }
  return std::move(result_);
}

}  // namespace

MultiStationResult run_multi_station(const ScenarioSpec& spec) {
  return run_multi_station(spec, spec.seed);
}

MultiStationResult run_multi_station(const ScenarioSpec& spec,
                                     std::uint64_t seed) {
  MultiScenario s(spec, seed);
  return s.run();
}

}  // namespace zhuge::app
