#pragma once
// Layer replays: the traced run records each layer's input stream with the
// existing tracer; these functions replay the streams of one run into fresh
// instances of the layers' public classes, time the calls, and check that
// the replay reproduces what the run traced.
//
//  * queue: the enqueue/dequeue stream of a Zhuge station's qdisc
//    (DropTailFifo, CoDel, FqCoDel), checked on dequeue order, head drops,
//    tail drops and depth.
//  * core::FortuneTeller: the same station's departures and predictions,
//    checked on the predicted qLong, qShort and tx.
//  * core::AckScheduler: the out-of-band ACK holds and drain retreats of a
//    Zhuge TCP flow, checked on pending holds and the order-keeping floor.
//
// Trace events carry no station or flow id, so only streams the trace
// attributes exactly are replayed. A Zhuge station's queue stream is exact
// when it is the only Zhuge station on its qdisc kind and carries one flow:
// each of its enqueues directly follows a Fortune Teller prediction, and
// each of its dequeues removes one of its packets at an exact sojourn. ACK
// holds are exact when the run has one Zhuge TCP flow. Other streams are
// not replayed; the replayed counts are the metrics' bases.

#include <cstdint>
#include <string>
#include <vector>

#include "app/spec.hpp"
#include "obs/tracer.hpp"

namespace perfbench {

struct ReplayTotals {
  std::uint64_t queue_pkts = 0;  ///< offered packets replayed and timed
  double queue_ns = 0.0;
  std::uint64_t predicts = 0;    ///< Fortune Teller predictions replayed
  double predict_ns = 0.0;
  std::uint64_t ack_holds = 0;   ///< AckScheduler holds replayed
  double ack_ns = 0.0;
  /// Replays that did not reproduce the trace: each one fails its run.
  std::vector<std::string> mismatches;
};

/// Replay the layer streams recorded in `tracer` for one run of `spec` whose
/// expanded flow schedule is `schedule`. Observability switches must be off.
void replay_run(const zhuge::obs::Tracer& tracer,
                const zhuge::app::ScenarioSpec& spec,
                const std::vector<zhuge::app::FlowEvent>& schedule,
                ReplayTotals& totals);

}  // namespace perfbench
