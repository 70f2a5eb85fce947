#pragma once
// RTP receiver: jitter buffer with in-order decode, TWCC feedback
// construction (the packets Zhuge drops and replaces, §5.3), NACK-based
// loss recovery, and periodic receiver reports.

#include <cstdint>
#include <map>
#include <vector>

#include "net/packet.hpp"
#include "net/seq.hpp"
#include "rtc/video.hpp"
#include "sim/simulator.hpp"

namespace zhuge::transport {

using net::Packet;
using net::PacketHandler;
using sim::Duration;
using sim::TimePoint;

/// RTP receiver half.
class RtpReceiver {
 public:
  struct Config {
    std::uint32_t ssrc = 1;
    Duration twcc_interval = Duration::millis(25);
    Duration nack_retry_interval = Duration::millis(30);
    int max_nack_retries = 10;
    Duration rr_interval = Duration::millis(500);
    std::uint32_t rtcp_bytes = 80;
    /// A head-of-line frame older than this is abandoned (decoder resync;
    /// real decoders recover at the next I-frame). Skipped frames are not
    /// counted as decoded, so stalls show up in the frame-rate metric.
    Duration stall_timeout = Duration::seconds(2);
  };

  RtpReceiver(sim::Simulator& simulator, Config cfg, net::PacketUidSource& uids,
              PacketHandler rtcp_out, rtc::FrameStats& stats)
      : sim_(simulator),
        cfg_(cfg),
        uids_(uids),
        rtcp_out_(std::move(rtcp_out)),
        stats_(stats) {
    arm_timers();
  }

  /// Cancels the three periodic feedback timers so a receiver can be
  /// destroyed mid-run (flow churn) without dangling callbacks.
  ~RtpReceiver();

  RtpReceiver(const RtpReceiver&) = delete;
  RtpReceiver& operator=(const RtpReceiver&) = delete;

  /// Process one downlink RTP packet.
  void on_rtp(const Packet& p);

  [[nodiscard]] std::uint64_t packets_received() const { return packets_received_; }
  [[nodiscard]] std::uint64_t nacks_sent() const { return nacks_sent_; }
  [[nodiscard]] std::uint32_t next_decode_frame() const { return next_decode_frame_; }

 private:
  void arm_timers();
  void arm_timers_twcc();
  void arm_timers_nack();
  void arm_timers_rr();
  void send_twcc();
  void send_nacks();
  void send_rr();
  void try_decode();
  void maybe_skip_stalled();
  Packet make_rtcp(net::RtcpHeader h);

  sim::Simulator& sim_;
  Config cfg_;
  net::PacketUidSource& uids_;
  PacketHandler rtcp_out_;
  rtc::FrameStats& stats_;

  net::FlowId reverse_flow_;  ///< learned from the first RTP packet
  bool flow_known_ = false;

  // TWCC bookkeeping. Copied out into each report, so the buffer keeps
  // its capacity from one report to the next.
  std::vector<net::TwccFeedback::Entry> pending_twcc_;

  // Frame reassembly: frame_id -> (packets received, total, capture).
  struct FrameState {
    /// Bit i of the bitmap is set once packet_in_frame i arrived: packets
    /// 0-63 in `seen_lo` (every frame at the paper's bitrates), the rest
    /// in `seen_hi`. `received` counts the set bits, so duplicates and
    /// retransmissions count once.
    std::uint64_t seen_lo = 0;
    std::vector<std::uint64_t> seen_hi;
    std::uint32_t received = 0;
    void mark(std::uint16_t i) {
      std::uint64_t* word = &seen_lo;
      if (i >= 64) {
        const std::size_t k = i / 64 - 1;
        if (k >= seen_hi.size()) seen_hi.resize(k + 1);
        word = &seen_hi[k];
      }
      const std::uint64_t bit = std::uint64_t{1} << (i % 64);
      if ((*word & bit) == 0) ++received;
      *word |= bit;
    }
    std::uint16_t total = 0;
    TimePoint capture;
    TimePoint first_arrival;
    TimePoint complete_time;  ///< when the last missing packet arrived
    bool seen = false;
    bool complete = false;
  };
  std::map<std::uint32_t, FrameState> frames_;
  std::uint32_t next_decode_frame_ = 0;

  // Loss detection / NACK, on unwrapped RTP sequence numbers.
  net::SeqUnwrapper rtp_unwrap_;
  std::int64_t highest_rtp_ = -1;
  struct NackState {
    int retries = 0;
    TimePoint last_sent;
  };
  std::map<std::int64_t, NackState> missing_;

  // Receiver-report accounting over the current RR interval.
  std::uint64_t interval_received_ = 0;
  std::int64_t interval_expected_base_ = -1;

  std::uint64_t packets_received_ = 0;
  std::uint64_t nacks_sent_ = 0;

  // Periodic feedback timers (self-rescheduling; cancelled by the dtor).
  sim::EventId twcc_timer_{};
  sim::EventId nack_timer_{};
  sim::EventId rr_timer_{};
};

}  // namespace zhuge::transport
