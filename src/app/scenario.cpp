#include "app/scenario.hpp"

#include <algorithm>

#include "cca/abc_sender.hpp"
#include "cca/bbr.hpp"
#include "cca/copa.hpp"
#include "cca/cubic.hpp"
#include "net/link.hpp"
#include "net/seq.hpp"
#include "obs/invariants.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "queue/fifo.hpp"
#include "sim/flat_map.hpp"
#include "sim/substreams.hpp"
#include "trace/synthetic.hpp"
#include "transport/rtp_receiver.hpp"
#include "transport/tcp_receiver.hpp"
#include "transport/tcp_sender.hpp"

namespace zhuge::app {

namespace {

using net::FlowId;
using net::Packet;
using sim::Duration;
using sim::TimePoint;

std::unique_ptr<cca::CongestionControl> make_tcp_cca(TcpCcaKind kind) {
  switch (kind) {
    case TcpCcaKind::kCopa: return std::make_unique<cca::Copa>();
    case TcpCcaKind::kBbr: return std::make_unique<cca::Bbr>();
    case TcpCcaKind::kCubic: return std::make_unique<cca::Cubic>();
    case TcpCcaKind::kAbc: return std::make_unique<cca::AbcSender>();
  }
  return nullptr;
}

/// One RTC flow endpoint pair (server-side sender + client-side receiver)
/// plus its metric sinks.
struct RtcFlow {
  FlowId flow;
  bool optimized = true;
  std::uint32_t span_key = 0;  ///< attribution flow key (= ssrc = index+1)
  stats::Distribution downlink_owd_ms;

  // RTP mode.
  std::unique_ptr<transport::RtpSender> rtp_sender;
  std::unique_ptr<transport::RtpReceiver> rtp_receiver;

  // TCP mode.
  std::unique_ptr<transport::TcpSender> tcp_sender;
  std::unique_ptr<transport::TcpReceiver> tcp_receiver;
  std::unique_ptr<rtc::VideoEncoder> tcp_encoder;
  std::uint32_t tcp_next_frame = 0;

  rtc::FrameStats frame_stats;
  stats::Distribution network_rtt_ms;
  std::uint64_t app_bytes_delivered = 0;  ///< post-warmup
  double last_uplink_owd_ms = 0.0;
};

/// A CUBIC bulk competitor (fig16 / fig18-scp).
struct BulkFlow {
  FlowId flow;
  std::unique_ptr<transport::TcpSender> sender;
  std::unique_ptr<transport::TcpReceiver> receiver;
  std::uint32_t next_chunk = 0;
  bool active = true;
};

/// Everything alive during one run. Members are wired in construction
/// order; declaration order here is destruction-safety order.
class Scenario {
 public:
  explicit Scenario(const ScenarioConfig& cfg) : cfg_(cfg) { build(); }

  ScenarioResult run();

 private:
  void build();
  void build_rtc_flow(std::size_t index);
  void build_bulk_flow(std::size_t index);
  void tick_bulk_sources();
  void sample_series();
  void handle_delivery_metrics(const Packet& p, RtcFlow& f);

  ScenarioConfig cfg_;
  sim::Simulator sim_;
  std::unique_ptr<sim::Rng> rng_;
  net::PacketUidSource uids_;

  std::unique_ptr<sim::Rng> scenario_rng_;  ///< MCS rolls etc.: a dedicated
                                            ///< substream so the channel
                                            ///< realisation is identical
                                            ///< across AP modes
  std::unique_ptr<wireless::Channel> down_channel_;
  std::unique_ptr<wireless::Channel> up_channel_;
  std::unique_ptr<wireless::Medium> medium_;

  // Fault injectors wrap the four handler boundaries below. Each owns an
  // independent RNG substream, so enabling a fault never perturbs the
  // channel/CCA realisation of the clean run. Declared before ap_ and the
  // links whose handlers call into them.
  std::unique_ptr<fault::Injector> inj_downlink_wan_;       ///< WAN -> AP
  std::unique_ptr<fault::Injector> inj_uplink_wireless_;    ///< client -> AP
  std::unique_ptr<fault::Injector> inj_downlink_wireless_;  ///< AP -> client
  std::unique_ptr<fault::Injector> inj_uplink_wan_;         ///< AP -> servers

  // Feedback-path boundaries (control loop only; only_feedback is forced
  // on, so data packets bypass without consuming RNG draws).
  std::unique_ptr<fault::Injector> inj_ap_feedback_;   ///< AP-rewritten fb -> WAN
  std::unique_ptr<fault::Injector> inj_uplink_rtcp_;   ///< client RTCP -> AP

  std::unique_ptr<AccessPoint> ap_;

  // WAN links (wired, stable).
  std::unique_ptr<net::PointToPointLink> wan_down_;  ///< servers -> AP
  std::unique_ptr<net::PointToPointLink> wan_up_;    ///< AP -> servers

  // Client uplink over the wireless medium.
  std::unique_ptr<queue::DropTailFifo> uplink_qdisc_;
  std::unique_ptr<wireless::WifiLink> uplink_wifi_;
  std::unique_ptr<queue::DropTailFifo> uplink_cell_qdisc_;
  std::unique_ptr<wireless::CellularLink> uplink_cell_;

  std::vector<std::unique_ptr<RtcFlow>> rtc_flows_;
  std::vector<std::unique_ptr<BulkFlow>> bulk_flows_;

  ScenarioResult result_;
  TimePoint warmup_end_;
  TimePoint run_end_;
  std::uint64_t goodput_bucket_bytes_ = 0;  ///< flow 0, current 50 ms bin
  std::uint64_t invariants_at_start_ = 0;

  void client_send_uplink(Packet&& p);    ///< client -> wireless -> AP
  void server_receive(Packet&& p);        ///< feedback demux at the servers
  void client_receive(Packet&& p);        ///< data demux at the client
};

void Scenario::build() {
  rng_ = std::make_unique<sim::Rng>(cfg_.seed, sim::substreams::kScenarioMain);
  scenario_rng_ = std::make_unique<sim::Rng>(cfg_.seed, sim::substreams::kScenarioAux);
  warmup_end_ = TimePoint::zero() + cfg_.warmup;
  run_end_ = TimePoint::zero() + cfg_.duration;

  if (cfg_.channel_trace != nullptr) {
    down_channel_ = std::make_unique<wireless::Channel>(cfg_.channel_trace);
    up_channel_ = std::make_unique<wireless::Channel>(cfg_.channel_trace);
  } else {
    down_channel_ = std::make_unique<wireless::Channel>(cfg_.mcs_index);
    up_channel_ = std::make_unique<wireless::Channel>(cfg_.mcs_index);
  }

  wireless::Medium::Config mcfg;
  mcfg.interferers = cfg_.interferers;
  medium_ = std::make_unique<wireless::Medium>(sim_, *rng_, mcfg);

  // Fault injectors (chaos harness). Each gets its own RNG substream and
  // forwards survivors to the boundary's real handler. The lambdas below
  // dereference these pointers at call time, so leaving one null simply
  // keeps the boundary clean.
  if (cfg_.faults.downlink_wan.any()) {
    inj_downlink_wan_ = std::make_unique<fault::Injector>(
        sim_, sim::Rng(cfg_.seed, sim::substreams::kFaultDownlinkWan), cfg_.faults.downlink_wan,
        [this](Packet&& p) { ap_->from_wan(std::move(p)); });
  }
  if (cfg_.faults.uplink_wireless.any()) {
    inj_uplink_wireless_ = std::make_unique<fault::Injector>(
        sim_, sim::Rng(cfg_.seed, sim::substreams::kFaultUplinkWireless), cfg_.faults.uplink_wireless,
        [this](Packet&& p) { ap_->from_client(std::move(p)); });
  }
  if (cfg_.faults.downlink_wireless.any()) {
    inj_downlink_wireless_ = std::make_unique<fault::Injector>(
        sim_, sim::Rng(cfg_.seed, sim::substreams::kFaultDownlinkWireless), cfg_.faults.downlink_wireless,
        [this](Packet&& p) { client_receive(std::move(p)); });
  }
  if (cfg_.faults.uplink_wan.any()) {
    inj_uplink_wan_ = std::make_unique<fault::Injector>(
        sim_, sim::Rng(cfg_.seed, sim::substreams::kFaultUplinkWan), cfg_.faults.uplink_wan,
        [this](Packet&& p) { server_receive(std::move(p)); });
  }
  // Feedback-path fault boundaries. Both force only_feedback so enabling
  // one never perturbs data packets (or their RNG realisation). The
  // client->AP RTCP injector sits *before* the generic uplink-wireless
  // injector: a survivor of the feedback fault still crosses whatever
  // uplink impairment the plan also configures.
  if (cfg_.faults.uplink_rtcp.any()) {
    fault::InjectorConfig fcfg = cfg_.faults.uplink_rtcp;
    fcfg.only_feedback = true;
    inj_uplink_rtcp_ = std::make_unique<fault::Injector>(
        sim_, sim::Rng(cfg_.seed, sim::substreams::kFaultUplinkRtcp), fcfg, [this](Packet&& p) {
          if (inj_uplink_wireless_) {
            inj_uplink_wireless_->handle(std::move(p));
          } else {
            ap_->from_client(std::move(p));
          }
        });
  }

  // AP -> servers wired uplink.
  net::PointToPointLink::Config up_cfg;
  up_cfg.rate_bps = cfg_.wan_rate_bps;
  up_cfg.prop_delay = cfg_.wan_one_way;
  wan_up_ = std::make_unique<net::PointToPointLink>(
      sim_, up_cfg, [this](Packet&& p) { server_receive(std::move(p)); });
  if (inj_uplink_wan_) wan_up_->set_fault_hook(inj_uplink_wan_->as_handler());

  // The AP itself.
  ap_ = std::make_unique<AccessPoint>(
      sim_, *rng_, *down_channel_, *medium_, cfg_.ap,
      [this](Packet&& p) {
        if (inj_downlink_wireless_) {
          inj_downlink_wireless_->handle(std::move(p));
        } else {
          client_receive(std::move(p));
        }
      },
      [this](Packet&& p) { wan_up_->send(std::move(p)); });

  // AP-rewritten-feedback fault boundary: everything the optimiser emits
  // towards the WAN (released OOB delay-token ACKs, AP-built TWCC,
  // forwarded client RTCP of optimised flows) detours through this
  // injector before the wired uplink — exactly the shortest control loop,
  // nothing else.
  if (cfg_.faults.ap_feedback.any()) {
    fault::InjectorConfig fcfg = cfg_.faults.ap_feedback;
    fcfg.only_feedback = true;
    inj_ap_feedback_ = std::make_unique<fault::Injector>(
        sim_, sim::Rng(cfg_.seed, sim::substreams::kFaultApFeedback), fcfg,
        [this](Packet&& p) { wan_up_->send(std::move(p)); });
    ap_->set_feedback_fault_hook(inj_ap_feedback_->as_handler());
  }

  // Servers -> AP wired downlink.
  net::PointToPointLink::Config down_cfg;
  down_cfg.rate_bps = cfg_.wan_rate_bps;
  down_cfg.prop_delay = cfg_.wan_one_way;
  wan_down_ = std::make_unique<net::PointToPointLink>(
      sim_, down_cfg, [this](Packet&& p) { ap_->from_wan(std::move(p)); });
  if (inj_downlink_wan_) wan_down_->set_fault_hook(inj_downlink_wan_->as_handler());

  // Client uplink: small FIFO through the shared wireless medium.
  const PacketHandler uplink_delivery = [this](Packet&& p) {
    if (inj_uplink_rtcp_) {
      inj_uplink_rtcp_->handle(std::move(p));  // chains into the next hop
    } else if (inj_uplink_wireless_) {
      inj_uplink_wireless_->handle(std::move(p));
    } else {
      ap_->from_client(std::move(p));
    }
  };
  if (cfg_.ap.link == LinkKind::kWifi) {
    uplink_qdisc_ = std::make_unique<queue::DropTailFifo>(200 * 1500);
    wireless::WifiLink::Config ul_cfg = cfg_.ap.wifi;
    ul_cfg.max_agg_packets = 8;  // feedback packets are small and few
    uplink_wifi_ = std::make_unique<wireless::WifiLink>(
        sim_, *rng_, *up_channel_, *medium_, *uplink_qdisc_, ul_cfg,
        uplink_delivery);
  } else {
    uplink_cell_qdisc_ = std::make_unique<queue::DropTailFifo>(200 * 1500);
    uplink_cell_ = std::make_unique<wireless::CellularLink>(
        sim_, *rng_, *up_channel_, *uplink_cell_qdisc_, cfg_.ap.cellular,
        uplink_delivery);
  }

  for (int i = 0; i < cfg_.rtc_flows; ++i) build_rtc_flow(static_cast<std::size_t>(i));
  for (int i = 0; i < cfg_.competing_bulk_flows; ++i) {
    build_bulk_flow(static_cast<std::size_t>(i));
  }
  if (cfg_.scp_periodic_competitor && bulk_flows_.empty()) build_bulk_flow(0);

  // Periodic machinery: bulk refills, series sampling, scenario events.
  sim_.schedule_after(Duration::millis(20), [this] { tick_bulk_sources(); });
  sim_.schedule_after(Duration::millis(50), [this] { sample_series(); });

  if (cfg_.scp_periodic_competitor) {
    // Toggle the bulk flow every 30 s (fig18 "scp").
    struct Toggler {
      Scenario* s;
      void operator()(bool on) const {
        for (auto& b : s->bulk_flows_) b->active = on;
        s->sim_.schedule_after(Duration::seconds(30),
                               [t = *this, on] { t(!on); });
      }
    };
    bulk_flows_.front()->active = false;
    sim_.schedule_after(Duration::seconds(30), [t = Toggler{this}] { t(true); });
  }
  // Scheduled non-packet faults: AP clock steps and optimiser restarts.
  for (const auto& jump : cfg_.faults.clock_jumps) {
    sim_.schedule_at(jump.at, [this, d = jump.delta] {
      ap_->inject_clock_jump(d);
    });
  }
  for (const auto& at : cfg_.faults.ap_restarts) {
    sim_.schedule_at(at, [this] { ap_->restart_optimizer(); });
  }
  invariants_at_start_ = obs::invariants().total();

  if (cfg_.mcs_random_switch) {
    struct McsSwitcher {
      Scenario* s;
      void operator()() const {
        const int mcs = static_cast<int>(s->scenario_rng_->uniform_int(6));  // MCS 0..5
        s->down_channel_->set_mcs(mcs);
        s->up_channel_->set_mcs(mcs);
        s->sim_.schedule_after(Duration::seconds(30), [t = *this] { t(); });
      }
    };
    sim_.schedule_after(Duration::seconds(30), [t = McsSwitcher{this}] { t(); });
  }
}

void Scenario::build_rtc_flow(std::size_t index) {
  auto f = std::make_unique<RtcFlow>();
  f->flow = FlowId{/*src_ip=*/1, /*dst_ip=*/static_cast<std::uint32_t>(100 + index),
                   /*src_port=*/5000, /*dst_port=*/6000,
                   cfg_.protocol == Protocol::kRtp ? std::uint8_t{17} : std::uint8_t{6}};
  f->optimized = cfg_.optimize_flow.empty() ? true
                                            : (index < cfg_.optimize_flow.size() &&
                                               cfg_.optimize_flow[index]);
  f->span_key = static_cast<std::uint32_t>(index + 1);
  f->last_uplink_owd_ms = cfg_.wan_one_way.to_millis() + 2.0;
  if (f->optimized && cfg_.ap.mode != ApMode::kNone) {
    ap_->register_rtc_flow(f->flow);
  }

  RtcFlow* fp = f.get();
  if (index == 0) {
    // Flow 0 feeds the time-series outputs used by the degradation-
    // duration benches (Figs. 4, 14-16).
    f->frame_stats.set_observer([this](TimePoint capture, TimePoint decode) {
      result_.frame_delay_series_ms.record(decode, (decode - capture).to_millis());
    });
  }
  // Latency attribution: frame spans arrive here from the RTP receiver's
  // jitter buffer (or synthesised below for TCP-framed video). Post-warmup
  // only, matching every other distribution this harness records.
  f->frame_stats.set_span_observer([this, fp](const obs::FrameSpan& s) {
    if (TimePoint(s.decode_ns) < warmup_end_) return;
    result_.attrib.record_frame(fp->optimized, s);
  });
  if (cfg_.protocol == Protocol::kRtp) {
    transport::RtpSender::Config scfg;
    scfg.ssrc = static_cast<std::uint32_t>(index + 1);
    scfg.video = cfg_.video;
    scfg.gcc.start_rate_bps = cfg_.video.start_bitrate_bps;
    scfg.gcc.min_rate_bps = cfg_.video.min_bitrate_bps;
    scfg.gcc.max_rate_bps = cfg_.video.max_bitrate_bps;
    scfg.nada.start_rate_bps = cfg_.video.start_bitrate_bps;
    scfg.nada.min_rate_bps = cfg_.video.min_bitrate_bps;
    scfg.nada.max_rate_bps = cfg_.video.max_bitrate_bps;
    scfg.scream.start_rate_bps = cfg_.video.start_bitrate_bps;
    scfg.scream.min_rate_bps = cfg_.video.min_bitrate_bps;
    scfg.scream.max_rate_bps = cfg_.video.max_bitrate_bps;
    scfg.rate_controller = cfg_.rtp_cca;
    f->rtp_sender = std::make_unique<transport::RtpSender>(
        sim_, *rng_, f->flow, scfg, uids_,
        [this](Packet&& p) { wan_down_->send(std::move(p)); });

    transport::RtpReceiver::Config rcfg;
    rcfg.ssrc = scfg.ssrc;
    f->rtp_receiver = std::make_unique<transport::RtpReceiver>(
        sim_, rcfg, uids_, [this](Packet&& p) { client_send_uplink(std::move(p)); },
        f->frame_stats);
    f->rtp_sender->start();
  } else {
    transport::TcpSender::Config scfg;
    f->tcp_sender = std::make_unique<transport::TcpSender>(
        sim_, f->flow, make_tcp_cca(cfg_.tcp_cca), scfg, uids_,
        [this](Packet&& p) { wan_down_->send(std::move(p)); });
    // For TCP the per-packet network RTT is what a server-side capture
    // measures: data departure to ACK arrival. Zhuge's held ACKs shift
    // this curve forward (paper Fig. 10) without double-counting.
    f->tcp_sender->set_rtt_observer([this, fp, index](Duration rtt, TimePoint now) {
      if (now >= warmup_end_) {
        fp->network_rtt_ms.add(rtt.to_millis());
        if (index == 0) result_.sender_rtt_ms.add(rtt.to_millis());
      }
      if (index == 0) result_.rtt_series_ms.record(now, rtt.to_millis());
      ZHUGE_METRIC_OBSERVE("app.rtt_ms", rtt.to_millis());
      ZHUGE_TRACE(now, "app", "rtt", {"rtt_ms", rtt.to_millis()},
                  {"flow", double(index)});
    });
    f->tcp_encoder = std::make_unique<rtc::VideoEncoder>(cfg_.video, *rng_);

    transport::TcpReceiver::Config rcfg;
    f->tcp_receiver = std::make_unique<transport::TcpReceiver>(
        sim_, rcfg, uids_, [this](Packet&& p) { client_send_uplink(std::move(p)); },
        [this, fp](std::uint32_t frame_id, TimePoint capture, TimePoint now) {
          fp->frame_stats.on_frame_decoded(capture, now);
          if (obs::attrib_enabled()) {
            // TCP-framed video has no jitter-buffer stages; synthesise the
            // capture->decode span so frame_e2e still covers these flows.
            obs::FrameSpan s;
            s.flow_key = fp->span_key;
            s.frame_id = frame_id;
            s.capture_ns = capture.count_ns();
            s.decode_ns = now.count_ns();
            fp->frame_stats.on_frame_span(s);
          }
        });

    // Video-over-TCP source: frames at fps tracking the delivery rate;
    // the encoder skips frames when the socket backlog exceeds ~250 ms of
    // video (real encoders stall rather than queue without bound).
    struct TcpFrameTick {
      Scenario* s;
      RtcFlow* f;
      void operator()() const {
        auto& sender = *f->tcp_sender;
        const double hint = std::max(
            sender.congestion_control().pacing_rate_bps() * 0.85,
            sender.delivery_rate_bps(s->sim_.now()) * 0.95);
        double target = hint > 0 ? hint : s->cfg_.video.start_bitrate_bps;
        // Upward probe: rate-sampling CCAs (BBR) pace off their own
        // bandwidth estimate, which is in turn fed by what we offer —
        // tracking the hints alone is a stable fixed point at *any* rate,
        // so a fault that knocks the estimate down would pin the flow low
        // forever. Real encoders raise the offered bitrate while the
        // socket keeps up; congestion shows up as backlog and pulls the
        // offer back to the hints (next_frame_bytes clamps at max_bitrate).
        if (sender.backlog_bytes() == 0) {
          target = std::max(target, f->tcp_encoder->encoder_rate_bps() * 1.05);
        }
        const std::uint64_t bytes = f->tcp_encoder->next_frame_bytes(target);
        // Skip frames once ~100 ms of video is stuck in the socket: a
        // real-time encoder stalls rather than queueing without bound,
        // and anything deeper guarantees >400 ms frame delays.
        const double backlog_limit =
            std::max(f->tcp_encoder->encoder_rate_bps(), 1e5) * 0.10 / 8.0;
        if (static_cast<double>(sender.backlog_bytes()) < backlog_limit) {
          sender.write_frame(f->tcp_next_frame++, s->sim_.now(), bytes);
        }
        s->sim_.schedule_after(f->tcp_encoder->frame_interval(),
                               [t = *this] { t(); });
      }
    };
    sim_.schedule_after(Duration::millis(1), [t = TcpFrameTick{this, fp}] { t(); });
  }
  rtc_flows_.push_back(std::move(f));
}

void Scenario::build_bulk_flow(std::size_t index) {
  auto b = std::make_unique<BulkFlow>();
  b->flow = FlowId{/*src_ip=*/static_cast<std::uint32_t>(10 + index),
                   /*dst_ip=*/200, /*src_port=*/7000,
                   /*dst_port=*/static_cast<std::uint16_t>(8000 + index), 6};
  transport::TcpSender::Config scfg;
  b->sender = std::make_unique<transport::TcpSender>(
      sim_, b->flow, std::make_unique<cca::Cubic>(), scfg, uids_,
      [this](Packet&& p) { wan_down_->send(std::move(p)); });
  transport::TcpReceiver::Config rcfg;
  b->receiver = std::make_unique<transport::TcpReceiver>(
      sim_, rcfg, uids_, [this](Packet&& p) { client_send_uplink(std::move(p)); },
      nullptr);
  bulk_flows_.push_back(std::move(b));
}

void Scenario::tick_bulk_sources() {
  for (auto& b : bulk_flows_) {
    if (b->active && b->sender->backlog_bytes() < 256 * 1024) {
      b->sender->write_frame(b->next_chunk++, sim_.now(), 64 * 1024);
    }
  }
  sim_.schedule_after(Duration::millis(20), [this] { tick_bulk_sources(); });
}

void Scenario::sample_series() {
  if (!rtc_flows_.empty()) {
    const auto& f = *rtc_flows_.front();
    double rate = 0.0;
    if (f.rtp_sender) {
      rate = f.rtp_sender->target_rate_bps();
    } else if (f.tcp_sender) {
      const Duration srtt = f.tcp_sender->smoothed_rtt();
      rate = srtt > Duration::zero()
                 ? static_cast<double>(f.tcp_sender->congestion_control().cwnd_bytes()) *
                       8.0 / srtt.to_seconds()
                 : 0.0;
    }
    result_.rate_series_bps.record(sim_.now(), rate);
    result_.goodput_series_bps.record(
        sim_.now(), static_cast<double>(goodput_bucket_bytes_) * 8.0 / 0.05);
    goodput_bucket_bytes_ = 0;
    ZHUGE_METRIC_SET("app.flow0.target_rate_bps", rate);
    ZHUGE_METRIC_SET("ap.queue_depth_bytes",
                     double(ap_->downlink_qdisc().byte_count()));
    ZHUGE_TRACE(sim_.now(), "app", "sample", {"rate_mbps", rate / 1e6},
                {"ap_queue_bytes", double(ap_->downlink_qdisc().byte_count())},
                {"sim_pending", double(sim_.pending())});
  }
  sim_.schedule_after(Duration::millis(50), [this] { sample_series(); });
}

void Scenario::client_send_uplink(Packet&& p) {
  if (uplink_wifi_ != nullptr) {
    uplink_wifi_->offer(std::move(p));
  } else {
    uplink_cell_->offer(std::move(p));
  }
}

void Scenario::server_receive(Packet&& p) {
  const TimePoint now = sim_.now();
  // Demux to the matching sender; update the uplink OWD estimate used by
  // the per-packet network-RTT metric.
  for (auto& f : rtc_flows_) {
    if (p.flow == f->flow.reversed()) {
      const double owd = (now - p.sent_time).to_millis();
      if (owd > 0 && owd < 10e3) f->last_uplink_owd_ms = owd;
      if (f->rtp_sender && p.is_rtcp()) {
        f->rtp_sender->on_rtcp(p);
      } else if (f->tcp_sender && p.is_tcp()) {
        f->tcp_sender->on_ack(p);
      }
      return;
    }
  }
  for (auto& b : bulk_flows_) {
    if (p.flow == b->flow.reversed() && p.is_tcp()) {
      b->sender->on_ack(p);
      return;
    }
  }
}

void Scenario::handle_delivery_metrics(const Packet& p, RtcFlow& f) {
  const TimePoint now = sim_.now();
  // RTP network RTT: measured downlink OWD plus the latest measured
  // uplink OWD (client -> AP -> server); uplink wireless contention is
  // included. TCP flows instead record sender-measured RTT samples (see
  // build_rtc_flow), matching a server-side packet capture.
  const bool is_tcp_flow = f.tcp_sender != nullptr;
  const double down_ms = (now - p.sent_time).to_millis();
  const double rtt_ms = down_ms + f.last_uplink_owd_ms;
  if (!is_tcp_flow && &f == rtc_flows_.front().get()) {
    result_.rtt_series_ms.record(now, rtt_ms);
  }
  if (!is_tcp_flow) {
    ZHUGE_METRIC_OBSERVE("app.rtt_ms", rtt_ms);
    ZHUGE_TRACE(now, "app", "rtt", {"rtt_ms", rtt_ms}, {"owd_ms", down_ms});
  }
  if (&f == rtc_flows_.front().get()) goodput_bucket_bytes_ += p.size_bytes;
  if (now >= warmup_end_) {
    if (!is_tcp_flow) f.network_rtt_ms.add(rtt_ms);
    f.downlink_owd_ms.add(down_ms);
    f.app_bytes_delivered += p.size_bytes;
    if (obs::attrib_enabled()) {
      result_.attrib.record_packet(f.span_key, f.optimized,
                                   p.sent_time.count_ns(),
                                   p.ap_enqueue_time.count_ns(),
                                   now.count_ns(), p.span);
    }
    if (p.predicted_delay_ms >= 0.0) {
      const double actual_ms = (now - p.ap_enqueue_time).to_millis();
      result_.prediction_error_ms.add(std::abs(p.predicted_delay_ms - actual_ms));
      result_.predicted_vs_real_ms.emplace_back(p.predicted_delay_ms, actual_ms);
      ZHUGE_METRIC_OBSERVE("fortune.abs_error_ms",
                           std::abs(p.predicted_delay_ms - actual_ms));
      ZHUGE_TRACE(now, "app", "delivery",
                  {"predicted_ms", p.predicted_delay_ms},
                  {"actual_ms", actual_ms}, {"owd_ms", down_ms});
    }
  }
}

void Scenario::client_receive(Packet&& p) {
  for (auto& f : rtc_flows_) {
    if (p.flow == f->flow) {
      handle_delivery_metrics(p, *f);
      if (f->rtp_receiver && p.is_rtp()) {
        f->rtp_receiver->on_rtp(p);
      } else if (f->tcp_receiver && p.is_tcp()) {
        f->tcp_receiver->on_data(p);
      }
      return;
    }
  }
  for (auto& b : bulk_flows_) {
    if (p.flow == b->flow && p.is_tcp()) {
      b->receiver->on_data(p);
      return;
    }
  }
}

ScenarioResult Scenario::run() {
  sim_.run_until(run_end_);

  // Drain every held feedback packet while the whole topology is still
  // alive — nothing Zhuge recorded may be stranded at teardown.
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
  }
  result_.invariant_violations =
      obs::invariants().total() - invariants_at_start_;

  const double measured_secs = (cfg_.duration - cfg_.warmup).to_seconds();
  const auto warm_sec = static_cast<std::size_t>(cfg_.warmup.to_seconds());
  const auto end_sec = static_cast<std::size_t>(cfg_.duration.to_seconds());

  for (auto& f : rtc_flows_) {
    FlowResult fr;
    fr.network_rtt_ms = std::move(f->network_rtt_ms);
    fr.downlink_owd_ms = std::move(f->downlink_owd_ms);
    fr.frame_delay_ms = f->frame_stats.frame_delays_ms();
    fr.frame_rate_fps = f->frame_stats.frame_rates(warm_sec, end_sec);
    // A run no longer than its warm-up measured nothing (as finalize_flow).
    fr.goodput_bps = measured_secs > 0.0
                         ? static_cast<double>(f->app_bytes_delivered) * 8.0 / measured_secs
                         : 0.0;
    fr.frames_decoded = f->frame_stats.frames_decoded();
    if (f->rtp_sender) {
      fr.frames_sent = f->rtp_sender->frames_sent();
    } else {
      fr.frames_sent = f->tcp_next_frame;  // frames offered to the socket
    }
    result_.flows.push_back(std::move(fr));

    // Flow 0 series: frame delay per decoded frame is folded in here.
  }
  result_.qdisc_drops = ap_->downlink_qdisc().drops();
  if (!rtc_flows_.empty() && rtc_flows_.front()->tcp_sender) {
    result_.tcp_retransmissions = rtc_flows_.front()->tcp_sender->retransmissions();
  }
  result_.events_executed = sim_.events_executed();

  // End-of-run summary gauges (simulator accounting + per-flow results).
  if (obs::metrics_enabled()) {
    ZHUGE_METRIC_SET("sim.events_executed", double(sim_.events_executed()));
    ZHUGE_METRIC_SET("sim.events_scheduled", double(sim_.events_scheduled()));
    ZHUGE_METRIC_SET("sim.events_cancelled", double(sim_.events_cancelled()));
    ZHUGE_METRIC_SET("ap.qdisc_drops", double(result_.qdisc_drops));
    for (std::size_t i = 0; i < result_.flows.size(); ++i) {
      const auto& fr = result_.flows[i];
      const std::string prefix = "app.flow" + std::to_string(i);
      ZHUGE_METRIC_SET(prefix + ".goodput_bps", fr.goodput_bps);
      ZHUGE_METRIC_SET(prefix + ".frames_decoded", double(fr.frames_decoded));
      if (fr.network_rtt_ms.count() > 0) {
        ZHUGE_METRIC_SET(prefix + ".rtt_p50_ms", fr.network_rtt_ms.quantile(0.5));
        ZHUGE_METRIC_SET(prefix + ".rtt_p95_ms", fr.network_rtt_ms.quantile(0.95));
      }
    }
  }
  return std::move(result_);
}

// ---------------------------------------------------------------------------
// Multi-station scenario engine
// ---------------------------------------------------------------------------

/// One live flow of a multi-station run: endpoints plus metric sinks. The
/// transport endpoints own timer-cancelling destructors, so destroying an
/// MFlow mid-run (churn departure) leaves no dangling callbacks.
struct MFlow {
  FlowEvent ev;
  FlowId flow;

  std::unique_ptr<transport::RtpSender> rtp_sender;
  std::unique_ptr<transport::RtpReceiver> rtp_receiver;
  std::unique_ptr<transport::TcpSender> tcp_sender;
  std::unique_ptr<transport::TcpReceiver> tcp_receiver;
  std::unique_ptr<rtc::VideoEncoder> tcp_encoder;
  std::uint32_t tcp_next_frame = 0;
  sim::EventId tick_id{};  ///< TCP frame tick; cancelled at departure

  rtc::FrameStats frame_stats;
  stats::Distribution network_rtt_ms;
  stats::Distribution downlink_owd_ms;
  std::uint64_t app_bytes_delivered = 0;  ///< post-warmup
  std::uint64_t packets_delivered = 0;
  double last_uplink_owd_ms = 0.0;
};

/// Everything alive during one multi-station run. Same construction-order
/// discipline as Scenario: declaration order is destruction-safety order.
class MultiScenario {
 public:
  MultiScenario(const ScenarioSpec& spec, std::uint64_t seed)
      : spec_(spec), seed_(seed) {
    build();
  }

  MultiStationResult run();

 private:
  void build();
  void build_station(int index);
  void arrive(const FlowEvent& ev);
  void depart(std::uint32_t index);
  void finalize_flow(MFlow& f);
  void sample_active();
  void set_station_mcs(int station, int mcs);
  void client_send_uplink(int station, Packet&& p);
  void server_receive(Packet&& p);
  void client_receive(Packet&& p);
  void handle_delivery_metrics(const Packet& p, MFlow& f);

  [[nodiscard]] static std::uint32_t station_ip(int station) {
    return static_cast<std::uint32_t>(100 + station);
  }

  ScenarioSpec spec_;
  std::uint64_t seed_;
  sim::Simulator sim_;
  std::unique_ptr<sim::Rng> rng_;           ///< stream 11, like Scenario
  std::unique_ptr<sim::Rng> scenario_rng_;  ///< stream 23: fade phases
  net::PacketUidSource uids_;

  std::unique_ptr<wireless::Channel> default_channel_;  ///< unused default link
  /// Synthetic ABW traces for trace-class stations. Declared before the
  /// channels, which keep raw pointers into them.
  std::vector<std::unique_ptr<trace::Trace>> station_traces_;
  std::vector<std::unique_ptr<wireless::Channel>> down_channels_;
  std::vector<std::unique_ptr<wireless::Channel>> up_channels_;
  std::unique_ptr<wireless::Medium> medium_;

  // Feedback-path fault injectors (spec "feedback_faults" section); both
  // run with only_feedback forced on. Declared before ap_ and the uplink
  // links whose handlers dereference them at call time.
  std::unique_ptr<fault::Injector> inj_ap_feedback_;  ///< AP-rewritten fb -> WAN
  std::unique_ptr<fault::Injector> inj_uplink_rtcp_;  ///< client RTCP -> AP

  std::unique_ptr<AccessPoint> ap_;
  std::unique_ptr<net::PointToPointLink> wan_down_;
  std::unique_ptr<net::PointToPointLink> wan_up_;

  /// Per-station client uplink over the shared medium.
  struct UplinkPath {
    std::unique_ptr<queue::DropTailFifo> qdisc;
    std::unique_ptr<wireless::WifiLink> link;
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
  default_channel_ = std::make_unique<wireless::Channel>(7);
  medium_ = std::make_unique<wireless::Medium>(sim_, *rng_,
                                               wireless::Medium::Config{});

  // AP -> servers wired uplink.
  net::PointToPointLink::Config wan_cfg;
  wan_cfg.rate_bps = spec_.wan_rate_mbps * 1e6;
  wan_cfg.prop_delay = Duration::from_seconds(spec_.wan_one_way_ms / 1e3);
  wan_up_ = std::make_unique<net::PointToPointLink>(
      sim_, wan_cfg, [this](Packet&& p) { server_receive(std::move(p)); });

  // Client->AP RTCP fault boundary, shared by every station uplink. Built
  // before the AP/stations so their delivery handlers can chain into it.
  if (spec_.uplink_rtcp_fault.any()) {
    fault::InjectorConfig fcfg = spec_.uplink_rtcp_fault;
    fcfg.only_feedback = true;
    inj_uplink_rtcp_ = std::make_unique<fault::Injector>(
        sim_, sim::Rng(seed_, sim::substreams::kFaultUplinkRtcp), fcfg,
        [this](Packet&& p) { ap_->from_client(std::move(p)); });
  }

  AccessPoint::Config apcfg;
  apcfg.mode = spec_.ap_mode;
  apcfg.qdisc = QdiscKind::kFifo;  // default link is unused; stations rule
  apcfg.link = LinkKind::kWifi;
  apcfg.zhuge.watchdog.initial_level = spec_.zhuge_initial_ladder;
  ap_ = std::make_unique<AccessPoint>(
      sim_, *rng_, *default_channel_, *medium_, apcfg,
      [this](Packet&& p) { client_receive(std::move(p)); },
      [this](Packet&& p) { wan_up_->send(std::move(p)); });

  // AP-rewritten-feedback fault boundary (same semantics as Scenario's):
  // the optimiser's emitted feedback detours through the injector before
  // the wired uplink towards the servers.
  if (spec_.ap_feedback_fault.any()) {
    fault::InjectorConfig fcfg = spec_.ap_feedback_fault;
    fcfg.only_feedback = true;
    inj_ap_feedback_ = std::make_unique<fault::Injector>(
        sim_, sim::Rng(seed_, sim::substreams::kFaultApFeedback), fcfg,
        [this](Packet&& p) { wan_up_->send(std::move(p)); });
    ap_->set_feedback_fault_hook(inj_ap_feedback_->as_handler());
  }

  // Servers -> AP wired downlink.
  wan_down_ = std::make_unique<net::PointToPointLink>(
      sim_, wan_cfg, [this](Packet&& p) { ap_->from_wan(std::move(p)); });

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
    sim_.schedule_at(TimePoint::zero() + Duration::from_seconds(ev.start_s),
                     [this, ev] { arrive(ev); });
    if (ev.stop_s < spec_.duration_s) {
      sim_.schedule_at(TimePoint::zero() + Duration::from_seconds(ev.stop_s),
                       [this, idx = ev.index] { depart(idx); });
    }
  }

  // Station departures (deassociation): quiesce at leave_s.
  for (int i = 0; i < n_stations; ++i) {
    const double leave = spec_.station_group(i).leave_s;
    if (leave > 0 && leave < spec_.duration_s) {
      sim_.schedule_at(TimePoint::zero() + Duration::from_seconds(leave),
                       [this, ip = station_ip(i)] {
                         ap_->unregister_station(ip);
                       });
    }
  }

  sim_.schedule_after(Duration::millis(100), [this] { sample_active(); });
  invariants_at_start_ = obs::invariants().total();
}

void MultiScenario::build_station(int index) {
  const StationGroupSpec& g = spec_.station_group(index);
  if (g.trace_class.has_value()) {
    // Trace-class station: the downlink ABW follows a synthetic trace of
    // the spec'd class, seeded per station so a dense group does not fade
    // in lockstep. The uplink stays in MCS mode (RTCP feedback is small;
    // the paper's trace-driven runs vary only the bottleneck direction).
    station_traces_.push_back(std::make_unique<trace::Trace>(trace::make_trace(
        *g.trace_class, seed_ + static_cast<std::uint64_t>(index),
        Duration::from_seconds(spec_.duration_s))));
    down_channels_.push_back(
        std::make_unique<wireless::Channel>(station_traces_.back().get()));
  } else {
    down_channels_.push_back(std::make_unique<wireless::Channel>(g.mcs));
  }
  up_channels_.push_back(std::make_unique<wireless::Channel>(g.mcs));

  AccessPoint::StationConfig scfg;
  scfg.qdisc = g.qdisc;
  scfg.queue_limit_bytes = g.queue_limit_bytes;
  ap_->register_station(station_ip(index), *down_channels_.back(), scfg);

  // Client-side uplink path over the same contended medium.
  UplinkPath up;
  up.qdisc = std::make_unique<queue::DropTailFifo>(200 * 1500);
  wireless::WifiLink::Config ul_cfg;
  ul_cfg.max_agg_packets = 8;  // feedback packets are small and few
  up.link = std::make_unique<wireless::WifiLink>(
      sim_, *rng_, *up_channels_.back(), *medium_, *up.qdisc, ul_cfg,
      [this](Packet&& p) {
        if (inj_uplink_rtcp_) {
          inj_uplink_rtcp_->handle(std::move(p));
        } else {
          ap_->from_client(std::move(p));
        }
      });
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

  if (ev.zhuge && spec_.ap_mode != ApMode::kNone) {
    ap_->register_rtc_flow(f->flow);
  }

  rtc::VideoConfig video;
  video.fps = ev.fps;
  video.max_bitrate_bps = ev.max_bitrate_mbps * 1e6;
  video.start_bitrate_bps =
      std::min(video.start_bitrate_bps, video.max_bitrate_bps);

  MFlow* fp = f.get();
  f->frame_stats.set_observer([this](TimePoint capture, TimePoint decode) {
    if (decode >= warmup_end_) {
      result_.agg_frame_delay_ms.add((decode - capture).to_millis());
    }
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
    std::unique_ptr<cca::CongestionControl> cca;
    switch (ev.kind) {
      case SpecFlowKind::kTcpCubic: cca = std::make_unique<cca::Cubic>(); break;
      case SpecFlowKind::kTcpAbc: cca = std::make_unique<cca::AbcSender>(); break;
      default: cca = std::make_unique<cca::Bbr>(); break;
    }
    f->tcp_sender = std::make_unique<transport::TcpSender>(
        sim_, f->flow, std::move(cca), scfg, uids_,
        [this](Packet&& p) { wan_down_->send(std::move(p)); });
    f->tcp_sender->set_rtt_observer([this, fp](Duration rtt, TimePoint now) {
      if (now >= warmup_end_) {
        fp->network_rtt_ms.add(rtt.to_millis());
        result_.agg_network_rtt_ms.add(rtt.to_millis());
      }
    });
    f->tcp_encoder = std::make_unique<rtc::VideoEncoder>(video, *rng_);
    transport::TcpReceiver::Config rcfg;
    f->tcp_receiver = std::make_unique<transport::TcpReceiver>(
        sim_, rcfg, uids_,
        [this, station](Packet&& p) { client_send_uplink(station, std::move(p)); },
        [fp](std::uint32_t frame_id, TimePoint capture, TimePoint now) {
          fp->frame_stats.on_frame_decoded(capture, now);
          if (obs::attrib_enabled()) {
            obs::FrameSpan s;
            s.flow_key = fp->ev.index + 1;
            s.frame_id = frame_id;
            s.capture_ns = capture.count_ns();
            s.decode_ns = now.count_ns();
            fp->frame_stats.on_frame_span(s);
          }
        });

    // Video-over-TCP frame tick (same backlog-limited source as Scenario's).
    struct FrameTick {
      MultiScenario* s;
      MFlow* f;
      void operator()() const {
        auto& sender = *f->tcp_sender;
        const double hint =
            std::max(sender.congestion_control().pacing_rate_bps() * 0.85,
                     sender.delivery_rate_bps(s->sim_.now()) * 0.95);
        double target = hint > 0 ? hint : f->tcp_encoder->encoder_rate_bps();
        // Upward probe while the socket keeps up (see Scenario's tick):
        // without it BBR's self-referential estimate pins the flow at
        // whatever rate a transient fault left it.
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
}

void MultiScenario::sample_active() {
  result_.active_flows.record(sim_.now(), static_cast<double>(active_.size()));
  ZHUGE_METRIC_SET("mstation.active_flows", double(active_.size()));
  sim_.schedule_after(Duration::millis(100), [this] { sample_active(); });
}

void MultiScenario::client_send_uplink(int station, Packet&& p) {
  uplinks_[static_cast<std::size_t>(station)].link->offer(std::move(p));
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

void MultiScenario::handle_delivery_metrics(const Packet& p, MFlow& f) {
  const TimePoint now = sim_.now();
  ++f.packets_delivered;
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
  for (const auto* inj : {inj_ap_feedback_.get(), inj_uplink_rtcp_.get()}) {
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
    if (auto* link = ap_->station_link(station_ip(i)); link != nullptr) {
      sr.airtime_s = link->airtime_used().to_seconds();
      sr.qdisc_drops = link->qdisc().drops();
      sr.delivered_packets = link->delivered_packets();
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

ScenarioResult run_scenario(const ScenarioConfig& cfg) {
  Scenario s(cfg);
  return s.run();
}

MultiStationResult run_multi_station(const ScenarioSpec& spec) {
  return run_multi_station(spec, spec.seed);
}

MultiStationResult run_multi_station(const ScenarioSpec& spec,
                                     std::uint64_t seed) {
  MultiScenario s(spec, seed);
  return s.run();
}

}  // namespace zhuge::app
