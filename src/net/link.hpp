#pragma once
// Point-to-point wired link: serialization at a fixed rate plus a fixed
// propagation delay. Models the WAN segment and the AP's Ethernet uplink,
// which the paper treats as a stable pipe. Loss on a wired hop is a fault,
// not a link property: set_fault_hook() lets a fault::Injector interpose
// on the delivery path without the link knowing anything about fault
// plans.
//
// One event per packet. The link is FIFO, its rate is fixed and nothing
// is drawn between a packet's send and its serialization end, so that end
// is known at send time: max(now, busy_until) + tx. send() schedules the
// delivery straight at that instant plus prop_delay, the same integer
// nanosecond sum a serialization-end event followed by a propagation
// event would reach. The packet parks in a sim::Pool for the flight and
// the event carries only {this, slot index}. DESIGN.md §10 gives the
// argument in full; tests/net_test.cpp checks it against a two-event
// reference link.

#include <algorithm>

#include "net/packet.hpp"
#include "sim/pool.hpp"
#include "sim/simulator.hpp"

namespace zhuge::net {

/// FIFO wired link. A packet sent while the link is busy serializes right
/// after the packets ahead of it; delivery order is send order.
class PointToPointLink {
 public:
  struct Config {
    double rate_bps = 1e9;            ///< serialization rate
    Duration prop_delay = Duration::millis(1);
  };

  PointToPointLink(sim::Simulator& simulator, Config cfg, PacketHandler sink)
      : sim_(simulator), cfg_(cfg), sink_(std::move(sink)) {}

  /// Put a packet on the wire. The link never drops.
  void send(Packet&& p) {
    const Duration tx = Duration::from_seconds(
        static_cast<double>(p.size_bytes) * 8.0 / cfg_.rate_bps);
    busy_until_ = std::max(sim_.now(), busy_until_) + tx;
    const sim::Pool<Packet>::Index idx = pool_.put(std::move(p));
    sim_.schedule_at(busy_until_ + cfg_.prop_delay, [this, idx] {
      Packet& pkt = pool_.at(idx);  // handed on in place, freed after
      if (fault_hook_) {
        fault_hook_(std::move(pkt));
      } else if (sink_) {
        sink_(std::move(pkt));
      }
      pool_.release(idx);
    });
  }

  /// Attach/replace the delivery sink.
  void set_sink(PacketHandler sink) { sink_ = std::move(sink); }

  /// Interpose a handler between the wire and the sink (fault injection).
  /// Pass nullptr to remove. The hook receives every packet at its
  /// delivery instant, in place of the sink.
  void set_fault_hook(PacketHandler hook) { fault_hook_ = std::move(hook); }

  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  sim::Simulator& sim_;
  Config cfg_;
  PacketHandler sink_;
  PacketHandler fault_hook_;
  sim::Pool<Packet> pool_;  ///< packets on the wire (serializing or in flight)
  TimePoint busy_until_;    ///< serialization end of the last packet sent
};

}  // namespace zhuge::net
