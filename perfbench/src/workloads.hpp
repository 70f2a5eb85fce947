#pragma once
// The three benchmark workloads. Each invocation is a closed loop: set-up,
// a serial check pass with invariants on, then timed runs back to back for
// the requested seconds, each compared against the check pass. With
// --trace 1 a separate traced pass follows and reports per-layer metrics.

#include <cstdint>
#include <string>
#include <vector>

#include "app/eval.hpp"
#include "app/scenario.hpp"
#include "common.hpp"
#include "obs/attrib.hpp"

namespace perfbench {

/// Run the workload `args.workload`; throws std::invalid_argument for an
/// unknown name and std::runtime_error when its inputs cannot be loaded.
[[nodiscard]] Outcome run_workload(const Args& args);

/// Simulated-time outputs of one multi-station run (Zhuge flows only where
/// noted). Deterministic in (spec, seed), obs switches included.
struct RunModel {
  double p50_ms = 0.0;         ///< Zhuge-flow frame delay, after warm-up
  double p99_ms = 0.0;
  double frames = 0.0;         ///< Zhuge-flow frames decoded after warm-up
  double delayed_frames = 0.0; ///< of which slower than 400 ms
  double bytes = 0.0;          ///< application bytes, all flows, after warm-up
  double post_warmup_s = 0.0;
  /// Frame delays (us) of the Zhuge flows and of their zhuge-off controls:
  /// flows of the kinds that run both with and without Zhuge.
  zhuge::obs::Histogram zhuge_e2e{zhuge::obs::StageSet::stage_spec()};
  zhuge::obs::Histogram control_e2e{zhuge::obs::StageSet::stage_spec()};

  [[nodiscard]] bool same_bits(const RunModel& o) const;
};

[[nodiscard]] RunModel model_run(const zhuge::app::ScenarioSpec& spec,
                                 const zhuge::app::MultiStationResult& r);

/// A multi-station spec workload after set-up and the untraced phases.
struct MsContext {
  std::string name;
  zhuge::app::ScenarioSpec spec;
  std::vector<std::uint64_t> seeds;       ///< check pass: all of them
  std::size_t timed = 0;                  ///< timed pass: the first `timed`
  std::size_t traced = 0;                 ///< traced pass: the first `traced`
  std::vector<std::uint64_t> check_fp;    ///< per seed
  std::vector<RunModel> check_model;      ///< per seed
  std::vector<std::uint64_t> events;      ///< per seed
  std::vector<double> untraced_wall_s;    ///< per timed seed, fastest repetition
  double spec_load_s = 0.0;
  double expand_s = 0.0;
};

/// The eval-matrix workload after set-up and the untraced phases.
struct EvalContext {
  std::vector<std::vector<zhuge::app::EvalCellSpec>> matrices;
  std::vector<std::vector<std::uint64_t>> check_fp;  ///< per matrix, per cell
  double expand_s = 0.0;
};

/// Frame-delay tail metrics that are reported but not gated: across
/// benchmark seeds they spread far wider than any 25% bound (see
/// perfbench/glossary.json).
struct TailMetrics {
  double p99_ms = 0.0;
  double delayed_ratio = 0.0;
  double frames = 0.0;
};

[[nodiscard]] TailMetrics tail_metrics(const MsContext& ctx);
[[nodiscard]] TailMetrics tail_metrics(const std::vector<zhuge::app::EvalCell>& cells);

/// multi_result_fingerprint over a canonical sample order. The fingerprint
/// hashes distribution samples in storage order, and Distribution::quantile
/// sorts them in place; the eval runner queries both aggregate
/// distributions before fingerprinting and the engine queries the RTT one
/// when the metrics registry is on. Sorting both first makes the hash
/// independent of which of those paths ran.
[[nodiscard]] std::uint64_t canonical_fingerprint(const zhuge::app::MultiStationResult& r);

/// Traced passes (layers.cpp): append every per-layer metric to `out`.
void traced_ms_pass(const MsContext& ctx, Outcome& out);
void traced_eval_pass(const EvalContext& ctx, Outcome& out);

}  // namespace perfbench
