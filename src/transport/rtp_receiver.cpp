#include "transport/rtp_receiver.hpp"

#include <algorithm>

namespace zhuge::transport {

Packet RtpReceiver::make_rtcp(net::RtcpHeader h) {
  Packet p;
  p.uid = uids_.next();
  p.flow = reverse_flow_;
  p.size_bytes = cfg_.rtcp_bytes;
  p.sent_time = sim_.now();
  p.header = std::move(h);
  return p;
}

RtpReceiver::~RtpReceiver() {
  sim_.cancel(twcc_timer_);
  sim_.cancel(nack_timer_);
  sim_.cancel(rr_timer_);
}

void RtpReceiver::arm_timers() {
  arm_timers_twcc();
  arm_timers_nack();
  arm_timers_rr();
}

void RtpReceiver::arm_timers_twcc() {
  twcc_timer_ = sim_.schedule_after(cfg_.twcc_interval, [this] {
    send_twcc();
    arm_timers_twcc();
  });
}

void RtpReceiver::arm_timers_nack() {
  nack_timer_ = sim_.schedule_after(cfg_.nack_retry_interval, [this] {
    send_nacks();
    arm_timers_nack();
  });
}

void RtpReceiver::arm_timers_rr() {
  rr_timer_ = sim_.schedule_after(cfg_.rr_interval, [this] {
    send_rr();
    arm_timers_rr();
  });
}

void RtpReceiver::on_rtp(const Packet& p) {
  const TimePoint now = sim_.now();
  const net::RtpHeader& h = p.rtp();
  ++packets_received_;
  // Receiver-report loss counts *original* transmissions only: a packet
  // recovered by NACK retransmission was still lost on the path, and the
  // loss-based controllers need to see it.
  if (!h.retransmission) ++interval_received_;

  if (!flow_known_) {
    reverse_flow_ = p.flow.reversed();
    flow_known_ = true;
  }

  pending_twcc_.push_back({h.twcc_seq, now});

  // Loss tracking on unwrapped RTP seq.
  const std::int64_t seq = rtp_unwrap_.unwrap(h.seq);
  if (interval_expected_base_ < 0) interval_expected_base_ = seq;
  if (seq > highest_rtp_) {
    for (std::int64_t s = highest_rtp_ + 1; s < seq; ++s) {
      missing_.emplace(s, NackState{});
    }
    highest_rtp_ = seq;
  } else {
    missing_.erase(seq);  // retransmission or reordering filled a hole
  }

  // Frame reassembly.
  FrameState& fs = frames_[h.frame_id];
  fs.total = h.packets_in_frame;
  fs.capture = h.capture_time;
  if (!fs.seen) {
    fs.seen = true;
    fs.first_arrival = now;
  }
  fs.mark(h.packet_in_frame);
  if (!fs.complete && fs.total > 0 && fs.received >= fs.total) {
    fs.complete = true;
    fs.complete_time = now;
  }
  try_decode();
}

void RtpReceiver::try_decode() {
  // Strictly in-order decode: a frame decodes only when complete and all
  // previous frames have been decoded (reference dependency).
  while (true) {
    auto it = frames_.find(next_decode_frame_);
    if (it == frames_.end()) break;
    FrameState& fs = it->second;
    if (fs.total == 0 || fs.received < fs.total) break;
    stats_.on_frame_decoded(fs.capture, sim_.now());
    if (obs::attrib_enabled()) {
      obs::FrameSpan span;
      span.flow_key = cfg_.ssrc;
      span.frame_id = next_decode_frame_;
      span.capture_ns = fs.capture.count_ns();
      span.first_arrival_ns = fs.seen ? fs.first_arrival.count_ns() : -1;
      span.complete_ns = fs.complete ? fs.complete_time.count_ns() : -1;
      span.decode_ns = sim_.now().count_ns();
      span.packets = fs.total;
      stats_.on_frame_span(span);
    }
    frames_.erase(it);
    ++next_decode_frame_;
  }
  // Drop state of frames far in the past (already decoded duplicates).
  while (!frames_.empty() && frames_.begin()->first < next_decode_frame_) {
    frames_.erase(frames_.begin());
  }
}

void RtpReceiver::send_twcc() {
  if (flow_known_ && !pending_twcc_.empty()) {
    net::TwccFeedback fb;
    fb.ssrc = cfg_.ssrc;
    fb.entries.assign(pending_twcc_.begin(), pending_twcc_.end());
    pending_twcc_.clear();
    rtcp_out_(make_rtcp(net::RtcpHeader{std::move(fb)}));
  }
}

void RtpReceiver::maybe_skip_stalled() {
  // A permanently-lost frame (NACK budget exhausted at both ends) would
  // stall the in-order decoder forever; abandon it after stall_timeout.
  while (true) {
    auto it = frames_.find(next_decode_frame_);
    const bool have_newer =
        !frames_.empty() && frames_.rbegin()->first > next_decode_frame_;
    if (it == frames_.end()) {
      // Head frame entirely missing but newer frames exist and are aging.
      if (have_newer && sim_.now() - frames_.begin()->second.first_arrival >
                            cfg_.stall_timeout) {
        ++next_decode_frame_;
        continue;
      }
      break;
    }
    if (it->second.received >= it->second.total && it->second.total > 0) {
      try_decode();
      continue;
    }
    if (it->second.seen &&
        sim_.now() - it->second.first_arrival > cfg_.stall_timeout) {
      frames_.erase(it);
      ++next_decode_frame_;
      continue;
    }
    break;
  }
}

void RtpReceiver::send_nacks() {
  maybe_skip_stalled();
  if (!flow_known_ || missing_.empty()) return;
  const TimePoint now = sim_.now();
  net::RtcpNack nack;
  nack.ssrc = cfg_.ssrc;
  for (auto it = missing_.begin(); it != missing_.end();) {
    NackState& st = it->second;
    if (st.retries >= cfg_.max_nack_retries) {
      it = missing_.erase(it);  // give up; frame will stall until skipped
      continue;
    }
    if (st.retries == 0 || now - st.last_sent >= cfg_.nack_retry_interval) {
      nack.seqs.push_back(static_cast<std::uint16_t>(it->first & 0xFFFF));
      ++st.retries;
      st.last_sent = now;
    }
    ++it;
  }
  if (!nack.seqs.empty()) {
    ++nacks_sent_;
    rtcp_out_(make_rtcp(net::RtcpHeader{std::move(nack)}));
  }
}

void RtpReceiver::send_rr() {
  if (!flow_known_) return;
  net::RtcpReceiverReport rr;
  rr.ssrc = cfg_.ssrc;
  const std::int64_t expected =
      interval_expected_base_ >= 0 ? highest_rtp_ - interval_expected_base_ + 1 : 0;
  if (expected > 0) {
    const double lost = std::max<double>(
        0.0, static_cast<double>(expected) - static_cast<double>(interval_received_));
    rr.loss_fraction = lost / static_cast<double>(expected);
  }
  rr.highest_seq = static_cast<std::uint32_t>(std::max<std::int64_t>(highest_rtp_, 0));
  interval_received_ = 0;
  interval_expected_base_ = highest_rtp_ + 1;
  rtcp_out_(make_rtcp(net::RtcpHeader{rr}));
}

}  // namespace zhuge::transport
