#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>

#include "common.hpp"
#include "core/ack_scheduler.hpp"
#include "core/fortune_teller.hpp"
#include "queue/codel.hpp"
#include "queue/fifo.hpp"
#include "queue/fq_codel.hpp"
#include "sim/simulator.hpp"

namespace perfbench {
namespace {

namespace app = zhuge::app;
namespace obs = zhuge::obs;
using zhuge::net::Packet;
using zhuge::sim::Duration;
using zhuge::sim::TimePoint;

constexpr int kComponents = 3;
constexpr const char* kComponentNames[kComponents] = {"queue.fifo", "queue.codel",
                                                      "queue.fq_codel"};
constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

int component_of(const char* name) {
  for (int c = 0; c < kComponents; ++c) {
    if (std::strcmp(name, kComponentNames[c]) == 0) return c;
  }
  return -1;
}

int component_of(app::QdiscKind kind) {
  switch (kind) {
    case app::QdiscKind::kFifo: return 0;
    case app::QdiscKind::kCoDel: return 1;
    case app::QdiscKind::kFqCoDel: return 2;
  }
  return -1;
}

double field(const obs::TraceEvent& ev, const char* key) {
  for (std::uint8_t i = 0; i < ev.n_fields; ++i) {
    if (std::strcmp(ev.fields[i].key, key) == 0) return ev.fields[i].value;
  }
  return std::nan("");
}

/// Trace fields hold durations as Duration::to_millis() doubles; integer
/// nanoseconds of any realistic size round-trip exactly.
std::int64_t ms_to_ns(double ms) { return std::llround(ms * 1e6); }

// ---------------------------------------------------------------------------
// Trace parsing
// ---------------------------------------------------------------------------

enum class QOp : std::uint8_t { kEnq, kTailDrop, kHeadDrop, kDeq };

struct QEvent {
  QOp op = QOp::kEnq;
  std::int64_t t = 0;
  std::int64_t bytes = 0;
  std::int64_t depth = 0;  ///< depth_bytes after the operation
  std::int64_t pkts = 0;   ///< enqueue: depth_pkts after
  double sojourn_us = 0;   ///< dequeue
  bool predicted = false;  ///< directly follows a Fortune Teller prediction
};

struct Predict {
  std::int64_t t = 0;
  double q_long_ms = 0, q_short_ms = 0, tx_ms = 0;
  std::int64_t queue_bytes = 0;
  int comp = -1;          ///< qdisc kind of the predicted packet's queue
  std::size_t next_q = 0; ///< that packet's enqueue/tail drop in q[comp]
};

/// One out-of-band feedback event, in trace order: an ACK hold, or a
/// downlink delay delta (negative deltas retreat pending holds).
struct OobEvent {
  bool hold = false;
  std::int64_t t = 0;
  std::int64_t ns = 0;      ///< hold: total hold; delta: the delta
  std::int64_t floor_ns = 0;
  std::size_t pending = 0;
};

struct Parsed {
  std::vector<QEvent> q[kComponents];
  std::vector<Predict> predicts;
  std::vector<OobEvent> oob;
  bool ladder_moved = false;
};

Parsed parse(const obs::Tracer& tracer) {
  Parsed p;
  std::optional<std::size_t> open_predict;
  tracer.for_each([&](const obs::TraceEvent& ev) {
    const int comp = component_of(ev.component);
    if (comp >= 0) {
      QEvent e;
      e.t = ev.t_ns;
      e.bytes = std::llround(field(ev, "bytes"));
      e.depth = std::llround(field(ev, "depth_bytes"));
      if (std::strcmp(ev.name, "enqueue") == 0) {
        e.op = QOp::kEnq;
        e.pkts = std::llround(field(ev, "depth_pkts"));
      } else if (std::strcmp(ev.name, "tail_drop") == 0) {
        e.op = QOp::kTailDrop;
      } else if (std::strcmp(ev.name, "head_drop") == 0) {
        e.op = QOp::kHeadDrop;
      } else if (std::strcmp(ev.name, "dequeue") == 0) {
        e.op = QOp::kDeq;
        e.sojourn_us = field(ev, "sojourn_us");
      } else {
        return;
      }
      if (open_predict.has_value()) {
        // The AP predicts, then offers the packet to its station's qdisc:
        // the next queue event is that packet's enqueue or tail drop.
        if (e.op == QOp::kEnq || e.op == QOp::kTailDrop) {
          Predict& pr = p.predicts[*open_predict];
          pr.comp = comp;
          pr.next_q = p.q[comp].size();
          e.predicted = true;
        }
        open_predict.reset();
      }
      p.q[comp].push_back(e);
      return;
    }
    if (std::strcmp(ev.component, "fortune") == 0 && std::strcmp(ev.name, "predict") == 0) {
      Predict pr;
      pr.t = ev.t_ns;
      pr.q_long_ms = field(ev, "qLong_ms");
      pr.q_short_ms = field(ev, "qShort_ms");
      pr.tx_ms = field(ev, "tx_ms");
      pr.queue_bytes = std::llround(field(ev, "queue_bytes"));
      open_predict = p.predicts.size();
      p.predicts.push_back(pr);
    } else if (std::strcmp(ev.component, "feedback.oob") == 0) {
      OobEvent o;
      o.t = ev.t_ns;
      if (std::strcmp(ev.name, "ack_hold") == 0) {
        o.hold = true;
        o.ns = ms_to_ns(field(ev, "hold_ms"));
        o.floor_ns = ms_to_ns(field(ev, "floor_ms"));
        o.pending = static_cast<std::size_t>(std::llround(field(ev, "pending_holds")));
      } else if (std::strcmp(ev.name, "data_delta") == 0) {
        o.ns = ms_to_ns(field(ev, "delta_ms"));
      } else {
        return;
      }
      p.oob.push_back(o);
    } else if (std::strcmp(ev.component, "zhuge") == 0 && std::strcmp(ev.name, "ladder") == 0) {
      p.ladder_moved = true;
    }
  });
  return p;
}

// ---------------------------------------------------------------------------
// Owner stream: the events of the one Zhuge station of a qdisc kind
// ---------------------------------------------------------------------------

struct Pkt {
  std::int64_t enq_t = 0;
  std::int64_t bytes = 0;
  std::uint32_t enq = 0;  ///< index of its enqueue event
};

/// Which events of one qdisc kind belong to the owner's queue, and for each
/// dequeue or head drop the enqueue index of the packet it removes.
struct Owned {
  std::vector<bool> mine;
  std::vector<std::uint32_t> pkt_of;
};

/// Position of the packet a dequeue or head drop `e` would take from the
/// owner's queue. FIFO and CoDel serve the oldest packet; fq_codel serves
/// its sub-queues round robin, so any packet may leave. Head drops take the
/// oldest packet of that size; dequeues are identified by their exact
/// sojourn.
std::optional<std::size_t> removed_by(const std::vector<Pkt>& pkts, std::int64_t bytes,
                                      const QEvent& e, bool strict_fifo) {
  if (bytes - e.bytes != e.depth) return std::nullopt;
  const std::size_t scan = strict_fifo ? std::min<std::size_t>(1, pkts.size()) : pkts.size();
  for (std::size_t pos = 0; pos < scan; ++pos) {
    const Pkt& pk = pkts[pos];
    if (pk.bytes != e.bytes) continue;
    if (e.op == QOp::kDeq && Duration::nanos(e.t - pk.enq_t).to_micros() != e.sojourn_us) {
      continue;
    }
    return pos;
  }
  return std::nullopt;
}

/// The owner's enqueues are exactly the predicted ones; its dequeues and
/// head drops are those that remove one of its own packets. nullopt when a
/// predicted enqueue or tail drop does not fit the owner's queue.
std::optional<Owned> take_owner(const std::vector<QEvent>& evs, bool strict_fifo) {
  Owned d;
  d.mine.assign(evs.size(), false);
  d.pkt_of.assign(evs.size(), kNone);
  std::vector<Pkt> pkts;
  std::int64_t bytes = 0;
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const QEvent& e = evs[i];
    switch (e.op) {
      case QOp::kEnq:
        if (!e.predicted) continue;
        if (bytes + e.bytes != e.depth || static_cast<std::int64_t>(pkts.size()) + 1 != e.pkts) {
          return std::nullopt;
        }
        pkts.push_back({e.t, e.bytes, static_cast<std::uint32_t>(i)});
        bytes += e.bytes;
        d.pkt_of[i] = static_cast<std::uint32_t>(i);
        break;
      case QOp::kTailDrop:
        if (!e.predicted) continue;
        if (bytes != e.depth) return std::nullopt;
        break;
      case QOp::kHeadDrop:
      case QOp::kDeq: {
        const auto pos = removed_by(pkts, bytes, e, strict_fifo);
        if (!pos.has_value()) continue;
        d.pkt_of[i] = pkts[*pos].enq;
        bytes -= pkts[*pos].bytes;
        pkts.erase(pkts.begin() + static_cast<std::ptrdiff_t>(*pos));
        break;
      }
    }
    d.mine[i] = true;
  }
  return d;
}

// ---------------------------------------------------------------------------
// Queue replay
// ---------------------------------------------------------------------------

/// One qdisc call of a replayed queue instance, with what the trace says it
/// must produce.
struct QCall {
  bool enqueue = true;
  std::int64_t t = 0;
  std::uint32_t pkt = kNone;   ///< enqueue: packet; dequeue: expected packet
  bool accept = true;          ///< enqueue: expect accepted
  std::uint32_t head_drops = 0;
  std::int64_t depth = 0;      ///< byte count after the call
  std::size_t event = 0;       ///< source event (enqueue / tail drop)
};

std::vector<QCall> build_calls(const std::vector<QEvent>& evs, const Owned& d) {
  std::vector<QCall> calls;
  std::optional<QCall> open;  // dequeue call collecting head drops
  const auto close = [&]() {
    if (open.has_value()) calls.push_back(*open);
    open.reset();
  };
  for (std::size_t i = 0; i < evs.size(); ++i) {
    if (!d.mine[i]) continue;
    const QEvent& e = evs[i];
    if (open.has_value() && (open->t != e.t || e.op == QOp::kEnq || e.op == QOp::kTailDrop)) {
      close();
    }
    switch (e.op) {
      case QOp::kEnq:
      case QOp::kTailDrop:
        calls.push_back({true, e.t, static_cast<std::uint32_t>(i), e.op == QOp::kEnq, 0,
                         e.depth, i});
        break;
      case QOp::kHeadDrop:
        if (!open.has_value()) open = QCall{false, e.t, kNone, true, 0, e.depth, i};
        ++open->head_drops;
        open->depth = e.depth;
        break;
      case QOp::kDeq:
        if (!open.has_value()) open = QCall{false, e.t, kNone, true, 0, e.depth, i};
        open->pkt = d.pkt_of[i];
        open->depth = e.depth;
        close();
        break;
    }
  }
  close();
  return calls;
}

std::unique_ptr<zhuge::queue::Qdisc> make_qdisc(int comp, std::int64_t limit) {
  switch (comp) {
    case 0: return std::make_unique<zhuge::queue::DropTailFifo>(limit);
    case 1: {
      zhuge::queue::CoDelConfig cfg;
      cfg.limit_bytes = limit;
      return std::make_unique<zhuge::queue::CoDel>(cfg);
    }
    default: {
      zhuge::queue::FqCoDel::Config cfg;
      cfg.codel.limit_bytes = limit;
      cfg.total_limit_bytes = limit;
      return std::make_unique<zhuge::queue::FqCoDel>(cfg);
    }
  }
}

/// The tail-drop limit the trace implies: every accepted enqueue fits,
/// every tail drop overflows. nullopt when no single limit explains both.
std::optional<std::int64_t> infer_limit(const std::vector<QEvent>& evs,
                                        const std::vector<QCall>& calls) {
  std::int64_t lo = 0;
  std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  for (const QCall& c : calls) {
    if (!c.enqueue) continue;
    if (c.accept) {
      lo = std::max(lo, c.depth);
    } else {
      hi = std::min(hi, c.depth + evs[c.event].bytes);
    }
  }
  if (hi == std::numeric_limits<std::int64_t>::max()) return lo;
  if (lo > hi - 1) return std::nullopt;
  return hi - 1;
}

/// Replayed packets all belong to one flow: the owner station carries one.
const zhuge::net::FlowId kReplayFlow{1, 100, 5000, 6000, 17};

Packet make_packet(std::int64_t bytes, std::uint32_t uid) {
  Packet p;
  p.uid = uid;
  p.size_bytes = static_cast<std::uint32_t>(bytes);
  p.flow = kReplayFlow;
  return p;
}

struct TellerOp {
  bool predict = false;
  std::int64_t t = 0;
  std::int64_t bytes = 0;                  ///< feed: departed bytes; predict: queue bytes
  bool empty_after = false;                ///< feed
  std::optional<TimePoint> head_since;     ///< predict
  const Predict* expect = nullptr;         ///< predict
};

/// Collects the teller's inputs while the owner queue is verified: the
/// queue state before each predicted enqueue, and every departure.
class TellerRecorder {
 public:
  TellerRecorder(const std::vector<Predict>& predicts, int comp) {
    for (const Predict& p : predicts) {
      if (p.comp == comp) by_event_.emplace_back(p.next_q, &p);
    }
  }
  void before_enqueue(std::size_t event, const zhuge::queue::Qdisc& q,
                      std::int64_t t) {
    while (next_ < by_event_.size() && by_event_[next_].first < event) ++next_;
    if (next_ == by_event_.size() || by_event_[next_].first != event) return;
    TellerOp op;
    op.predict = true;
    op.t = t;
    op.bytes = q.byte_count_flow(kReplayFlow);
    op.head_since = q.head_since_flow(kReplayFlow);
    op.expect = by_event_[next_].second;
    ops.push_back(op);
    ++next_;
  }
  void after_dequeue(const Packet& p, const zhuge::queue::Qdisc& q, std::int64_t t) {
    TellerOp op;
    op.t = t;
    op.bytes = p.size_bytes;
    op.empty_after = q.byte_count_flow(kReplayFlow) == 0;
    ops.push_back(op);
  }
  std::vector<TellerOp> ops;

 private:
  std::vector<std::pair<std::size_t, const Predict*>> by_event_;
  std::size_t next_ = 0;
};

/// Run `calls` against `q`, checking every output. Returns the first
/// mismatch, or an empty string.
std::string verify_calls(zhuge::queue::Qdisc& q, const std::vector<QEvent>& evs,
                         const std::vector<QCall>& calls, TellerRecorder* teller) {
  for (std::size_t k = 0; k < calls.size(); ++k) {
    const QCall& c = calls[k];
    const TimePoint now(c.t);
    if (c.enqueue) {
      if (teller != nullptr) teller->before_enqueue(c.event, q, c.t);
      const bool accepted = q.enqueue(make_packet(evs[c.event].bytes, c.pkt), now);
      if (accepted != c.accept) return "call " + std::to_string(k) + ": tail-drop decision differs";
    } else {
      const std::uint64_t drops = q.drops();
      const auto p = q.dequeue(now);
      if (q.drops() - drops != c.head_drops) {
        return "call " + std::to_string(k) + ": head drops differ";
      }
      const std::uint32_t got = p.has_value() ? static_cast<std::uint32_t>(p->uid) : kNone;
      if (got != c.pkt) return "call " + std::to_string(k) + ": dequeue order differs";
      if (p.has_value() && teller != nullptr) teller->after_dequeue(*p, q, c.t);
    }
    if (q.byte_count() != c.depth) return "call " + std::to_string(k) + ": depth differs";
  }
  return {};
}

/// Timed replay on a fresh instance; returns elapsed ns, or -1 if the
/// dequeue order differs from the verified one.
double time_calls(int comp, std::int64_t limit, const std::vector<QEvent>& evs,
                  const std::vector<QCall>& calls) {
  std::vector<Packet> pkts;
  std::vector<std::uint32_t> expected;
  for (const QCall& c : calls) {
    if (c.enqueue) pkts.push_back(make_packet(evs[c.event].bytes, c.pkt));
    if (!c.enqueue) expected.push_back(c.pkt);
  }
  std::vector<std::uint32_t> got;
  got.reserve(expected.size());
  const auto q = make_qdisc(comp, limit);
  std::size_t next_pkt = 0;
  const auto t0 = Clock::now();
  for (const QCall& c : calls) {
    if (c.enqueue) {
      (void)q->enqueue(std::move(pkts[next_pkt++]), TimePoint(c.t));
    } else {
      const auto p = q->dequeue(TimePoint(c.t));
      got.push_back(p.has_value() ? static_cast<std::uint32_t>(p->uid) : kNone);
    }
  }
  const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  return got == expected ? ns : -1.0;
}

// ---------------------------------------------------------------------------
// Fortune Teller replay
// ---------------------------------------------------------------------------

using Prediction = zhuge::core::FortuneTeller::Prediction;

std::vector<Prediction> run_teller(const std::vector<TellerOp>& ops, double* ns) {
  std::vector<Prediction> out;
  out.reserve(ops.size());
  zhuge::core::FortuneTeller teller;
  const auto t0 = Clock::now();
  for (const TellerOp& op : ops) {
    if (op.predict) {
      out.push_back(teller.predict(TimePoint(op.t), op.bytes, op.head_since));
    } else {
      teller.on_dequeue(op.bytes, TimePoint(op.t), op.empty_after);
    }
  }
  if (ns != nullptr) {
    *ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  }
  return out;
}

std::string check_predictions(const std::vector<TellerOp>& ops,
                              const std::vector<Prediction>& got) {
  std::size_t k = 0;
  for (const TellerOp& op : ops) {
    if (!op.predict) continue;
    const Prediction& p = got[k++];
    const Predict& e = *op.expect;
    // zlint-allow(float-equality): the replay must be bit-identical
    if (op.bytes != e.queue_bytes || p.q_long.to_millis() != e.q_long_ms ||
        p.q_short.to_millis() != e.q_short_ms || p.tx.to_millis() != e.tx_ms) {
      return "prediction " + std::to_string(k - 1) + " at t=" + std::to_string(op.t) +
             "ns differs";
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// AckScheduler replay
// ---------------------------------------------------------------------------

/// Replay the holds and retreats of the run's one Zhuge TCP flow on a fresh
/// simulator. Returns the first mismatch (pending count or floor at a
/// hold), or an empty string.
std::string replay_acks(const std::vector<OobEvent>& evs, double* ns, std::uint64_t* holds) {
  zhuge::sim::Simulator sim;
  std::uint64_t released = 0;
  std::vector<std::pair<std::size_t, std::int64_t>> seen;
  std::vector<std::pair<std::size_t, std::int64_t>> expected;
  zhuge::core::AckScheduler sched(sim, [&released](Packet) { ++released; });
  for (const OobEvent& e : evs) {
    if (e.hold) {
      expected.emplace_back(e.pending, e.floor_ns);
      sim.schedule_at(TimePoint(e.t), [&sim, &sched, &seen, hold = e.ns] {
        const TimePoint now = sim.now();
        seen.emplace_back(sched.pending(),
                          std::max<std::int64_t>(0, (sched.last_release(now) - now).count_ns()));
        sched.hold(Packet{}, now + Duration::nanos(hold));
      });
    } else if (e.ns < 0) {
      sim.schedule_at(TimePoint(e.t), [&sched, amount = -e.ns] {
        (void)sched.retreat(Duration::nanos(amount));
      });
    }
  }
  seen.reserve(expected.size());
  const auto t0 = Clock::now();
  sim.run();
  *ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  *holds = expected.size();
  if (seen != expected) {
    for (std::size_t j = 0; j < std::min(seen.size(), expected.size()); ++j) {
      if (seen[j] != expected[j]) return "hold " + std::to_string(j) + " differs";
    }
    return "hold count differs";
  }
  if (released != expected.size()) return "released count differs";
  return {};
}

}  // namespace

void replay_run(const obs::Tracer& tracer, const app::ScenarioSpec& spec,
                const std::vector<app::FlowEvent>& schedule, ReplayTotals& totals) {
  const Parsed parsed = parse(tracer);

  // Owners: qdisc kinds with exactly one Zhuge station, carrying one flow.
  const int n_stations = spec.station_count();
  std::vector<int> flows(static_cast<std::size_t>(n_stations), 0);
  std::vector<bool> zhuge_station(static_cast<std::size_t>(n_stations), false);
  int zhuge_tcp_flows = 0;
  for (const app::FlowEvent& ev : schedule) {
    ++flows[static_cast<std::size_t>(ev.station)];
    if (!ev.zhuge || spec.ap_mode != app::ApMode::kZhuge) continue;
    zhuge_station[static_cast<std::size_t>(ev.station)] = true;
    zhuge_tcp_flows += ev.kind != app::SpecFlowKind::kRtpGcc;
  }
  int zhuge_stations[kComponents] = {};
  bool one_flow[kComponents] = {};
  for (int s = 0; s < n_stations; ++s) {
    if (!zhuge_station[static_cast<std::size_t>(s)]) continue;
    const int c = component_of(spec.station_group(s).qdisc);
    ++zhuge_stations[c];
    one_flow[c] = flows[static_cast<std::size_t>(s)] == 1;
  }

  for (int c = 0; c < kComponents; ++c) {
    const std::vector<QEvent>& evs = parsed.q[c];
    if (evs.empty() || zhuge_stations[c] != 1 || !one_flow[c]) continue;
    const std::string where = kComponentNames[c];
    std::size_t comp_predicts = 0;
    for (const Predict& p : parsed.predicts) comp_predicts += p.comp == c;

    // FIFO and CoDel serve in arrival order; fq_codel may serve any packet.
    const auto owned = take_owner(evs, c != 2);
    if (!owned.has_value()) {
      totals.mismatches.push_back(where + ": a predicted enqueue does not fit the owner's queue");
      continue;
    }
    const std::vector<QCall> calls = build_calls(evs, *owned);
    std::size_t n_offered = 0;
    for (const QCall& call : calls) n_offered += call.enqueue;
    const auto limit = infer_limit(evs, calls);
    if (!limit.has_value()) {
      totals.mismatches.push_back(where + ": no tail-drop limit explains the trace");
      continue;
    }
    TellerRecorder teller(parsed.predicts, c);
    std::string err = verify_calls(*make_qdisc(c, *limit), evs, calls, &teller);
    const double ns = err.empty() ? time_calls(c, *limit, evs, calls) : 0.0;
    if (err.empty() && ns < 0) err = "timed replay dequeued a different order";
    if (!err.empty()) {
      totals.mismatches.push_back(where + ": " + err);
      continue;
    }
    totals.queue_ns += ns;
    totals.queue_pkts += n_offered;

    std::size_t recorded = 0;
    for (const TellerOp& op : teller.ops) recorded += op.predict;
    std::string terr = recorded == comp_predicts
                           ? check_predictions(teller.ops, run_teller(teller.ops, nullptr))
                           : "predictions not linked to the owner queue";
    double tns = 0.0;
    if (terr.empty()) terr = check_predictions(teller.ops, run_teller(teller.ops, &tns));
    if (!terr.empty()) {
      totals.mismatches.push_back("fortune teller on " + where + ": " + terr);
      continue;
    }
    totals.predicts += comp_predicts;
    totals.predict_ns += tns;
  }

  // ACK holds carry no flow id: they are attributed exactly only when the
  // run has one Zhuge TCP flow and the degradation ladder never moved
  // (floor-only holds are not traced).
  if (zhuge_tcp_flows != 1 || parsed.ladder_moved) return;
  double ns = 0.0;
  std::uint64_t holds = 0;
  const std::string err = replay_acks(parsed.oob, &ns, &holds);
  if (!err.empty()) {
    totals.mismatches.push_back("ack scheduler: " + err);
    return;
  }
  totals.ack_holds += holds;
  totals.ack_ns += ns;
}

}  // namespace perfbench
