#include "transport/rtp_sender.hpp"

#include <algorithm>

namespace zhuge::transport {

RtpSender::RtpSender(sim::Simulator& simulator, sim::Rng& rng, net::FlowId flow,
                     Config cfg, net::PacketUidSource& uids, PacketHandler out)
    : sim_(simulator),
      rng_(rng),
      flow_(flow),
      cfg_(cfg),
      uids_(uids),
      out_(std::move(out)),
      encoder_(cfg.video, rng),
      gcc_(cfg.gcc) {}

RtpSender::~RtpSender() {
  sim_.cancel(frame_timer_);
  for (const sim::EventId id : pacing_timers_) sim_.cancel(id);
}

void RtpSender::start() { on_frame_tick(); }

double RtpSender::target_rate_bps() const { return gcc_.target_rate_bps(); }

void RtpSender::on_frame_tick() {
  // All of the previous frame's paced sends have fired (their offsets are
  // clamped strictly below the frame interval), so drop the stale ids.
  pacing_timers_.clear();
  const TimePoint capture = sim_.now();
  const std::uint64_t frame_bytes = encoder_.next_frame_bytes(target_rate_bps());
  const std::uint32_t frame_id = next_frame_id_++;
  ++frames_sent_;

  const auto n_packets = static_cast<std::uint16_t>(
      (frame_bytes + cfg_.max_payload - 1) / cfg_.max_payload);
  std::uint64_t remaining = frame_bytes;
  for (std::uint16_t i = 0; i < n_packets; ++i) {
    const auto payload = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(cfg_.max_payload, remaining));
    remaining -= payload;

    Packet p;
    p.uid = uids_.next();
    p.flow = flow_;
    p.size_bytes = payload + cfg_.header_bytes;
    p.sent_time = sim_.now();
    // Packetisation instant: the pacing stage measures from here to the
    // (possibly deferred) wire departure in send_packet's pacing timer.
    ZHUGE_SPAN_STAMP(p.span.paced_ns, sim_.now());
    net::RtpHeader h;
    h.ssrc = cfg_.ssrc;
    h.seq = next_rtp_seq_++;
    h.twcc_seq = next_twcc_seq_++;
    h.frame_id = frame_id;
    h.packet_in_frame = i;
    h.packets_in_frame = n_packets;
    h.marker = (i + 1 == n_packets);
    h.capture_time = capture;
    p.header = h;

    // Spread the frame's packets over a short pacing span (senders burst
    // frames out quickly to minimise latency, §3.1). Clamp the span below
    // the frame interval so paced sends never outlive the tick that
    // scheduled them (keeps pacing_timers_ bookkeeping one frame deep).
    const Duration span = std::min(cfg_.pacing_span, encoder_.frame_interval());
    const Duration offset =
        n_packets > 1 ? span * (static_cast<double>(i) /
                                static_cast<double>(n_packets))
                      : Duration::zero();
    send_packet(std::move(p), offset);
  }

  frame_timer_ =
      sim_.schedule_after(encoder_.frame_interval(), [this] { on_frame_tick(); });
}

void RtpSender::send_packet(Packet&& p, Duration offset) {
  // Record send history at the *scheduled* departure time.
  const TimePoint departure = sim_.now() + offset;
  ++rtp_sent_unwrapped_;
  ++twcc_sent_unwrapped_;
  twcc_history_.push_back(departure.count_ns(), p.size_bytes);

  // Keep what a retransmission needs; keys are monotone, so the oldest
  // entries are the front of the ring.
  rtp_history_.push_back(rtp_sent_unwrapped_, {p.rtp(), p.size_bytes});
  while (rtp_history_.size() > cfg_.history_packets) rtp_history_.pop_front();
  // Bound the TWCC history alongside: drop everything older than the
  // retained window.
  if (twcc_history_.size() > 4 * cfg_.history_packets) {
    const std::int64_t cutoff =
        twcc_sent_unwrapped_ - static_cast<std::int64_t>(2 * cfg_.history_packets);
    for (std::int64_t s = twcc_history_first(); s < cutoff; ++s) twcc_history_.pop_front();
  }

  ++packets_sent_;
  if (offset == Duration::zero()) {
    out_(std::move(p));
  } else {
    const sim::Pool<Packet>::Index idx = paced_pool_.put(std::move(p));
    pacing_timers_.push_back(sim_.schedule_after(offset, [this, idx] {
      Packet& pkt = paced_pool_.at(idx);  // handed on in place, freed after
      pkt.sent_time = sim_.now();
      out_(std::move(pkt));
      paced_pool_.release(idx);
    }));
  }
}

void RtpSender::on_rtcp(const Packet& p) {
  const auto& payload = p.rtcp().payload;
  if (const auto* fb = std::get_if<net::TwccFeedback>(&payload)) {
    handle_twcc(*fb);
  } else if (const auto* nack = std::get_if<net::RtcpNack>(&payload)) {
    handle_nack(*nack);
  } else if (const auto* rr = std::get_if<net::RtcpReceiverReport>(&payload)) {
    last_loss_fraction_ = rr->loss_fraction;
    gcc_.on_loss_report(rr->loss_fraction, sim_.now());
  }
}

void RtpSender::handle_twcc(const net::TwccFeedback& fb) {
  std::vector<cca::TwccObservation>& obs = twcc_obs_;
  obs.clear();
  std::int64_t min_seq = INT64_MAX;
  std::int64_t max_seq = INT64_MIN;
  for (const auto& e : fb.entries) {
    const std::int64_t unwrapped = twcc_unwrap_rx_.unwrap(e.twcc_seq);
    min_seq = std::min(min_seq, unwrapped);
    max_seq = std::max(max_seq, unwrapped);
    const std::int64_t pos = unwrapped - twcc_history_first();
    if (pos < 0 || pos >= static_cast<std::int64_t>(twcc_history_.size())) continue;
    const auto i = static_cast<std::size_t>(pos);
    cca::TwccObservation o;
    o.twcc_seq = e.twcc_seq;
    o.send_time = TimePoint{twcc_history_.t_at(i)};
    o.recv_time = e.recv_time;
    o.size_bytes = twcc_history_.v_at(i);
    obs.push_back(o);
  }
  if (obs.empty()) return;
  std::sort(obs.begin(), obs.end(), [](const auto& a, const auto& b) {
    return a.send_time < b.send_time;
  });

  // Transport-wide loss: sequence gaps between consecutive feedback ranges
  // are packets the path dropped (tail drops stay visible under Zhuge
  // because the AP never reports packets it discarded).
  // A much larger gap than any plausible drop burst means the *feedback*
  // stream was interrupted (uplink blackout, AP fail-open transition):
  // the unreported packets were delivered, their reports died. Rebase
  // instead of charging the gap as data loss.
  if (twcc_loss_base_ >= 0 &&
      min_seq - twcc_loss_base_ > cfg_.feedback_gap_forgive_pkts) {
    twcc_loss_base_ = min_seq;
  }
  if (twcc_loss_base_ >= 0 && max_seq >= twcc_loss_base_) {
    const std::int64_t expected = max_seq - twcc_loss_base_ + 1;
    const std::int64_t received = static_cast<std::int64_t>(fb.entries.size());
    // Pool reports until the window holds enough packets for the fraction
    // to be meaningful. At low send rates a report can cover 1-2 packets,
    // where a single missing report reads as 50-100% loss — one such
    // report right after a recovery re-triggers the loss cut and traps the
    // controller at its floor.
    twcc_loss_expected_ += expected;
    twcc_loss_received_ += std::min(received, expected);
    if (twcc_loss_expected_ >= cfg_.loss_window_min_pkts) {
      const double loss = std::max(
          0.0, 1.0 - static_cast<double>(twcc_loss_received_) /
                         static_cast<double>(twcc_loss_expected_));
      // Smooth across windows (one covers a few tens of ms only).
      last_loss_fraction_ = 0.7 * last_loss_fraction_ + 0.3 * loss;
      gcc_.on_loss_report(last_loss_fraction_, sim_.now());
      twcc_loss_expected_ = 0;
      twcc_loss_received_ = 0;
    }
  }
  twcc_loss_base_ = max_seq + 1;

  gcc_.on_feedback(obs, sim_.now());
}

void RtpSender::handle_nack(const net::RtcpNack& nack) {
  const double rtx_budget_bps = cfg_.max_rtx_rate_fraction * target_rate_bps();
  for (std::uint16_t seq : nack.seqs) {
    if (rtx_rate_.rate_bps(sim_.now()).value_or(0.0) > rtx_budget_bps) {
      // Retransmission budget exhausted; the receiver will NACK again.
      ++rtx_suppressed_;
      continue;
    }
    const std::int64_t unwrapped = rtp_unwrap_rx_.unwrap(seq);
    if (rtp_history_.empty() || unwrapped < rtp_history_.front_t() ||
        unwrapped > rtp_history_.back_t()) {
      continue;
    }
    const RtxRecord& rec = rtp_history_.v_at(
        static_cast<std::size_t>(unwrapped - rtp_history_.front_t()));
    Packet rtx;
    rtx.uid = uids_.next();
    rtx.flow = flow_;
    rtx.size_bytes = rec.size_bytes;
    rtx.sent_time = sim_.now();
    // A new wire journey, so a fresh span.
    ZHUGE_SPAN_STAMP(rtx.span.paced_ns, sim_.now());
    net::RtpHeader h = rec.header;
    h.retransmission = true;
    // Retransmissions travel with fresh TWCC sequence numbers.
    h.twcc_seq = next_twcc_seq_++;
    rtx.header = h;
    ++twcc_sent_unwrapped_;
    twcc_history_.push_back(sim_.now().count_ns(), rtx.size_bytes);
    ++retransmissions_;
    ++packets_sent_;
    rtx_rate_.record(sim_.now(), rtx.size_bytes);
    out_(std::move(rtx));
  }
}

}  // namespace zhuge::transport
