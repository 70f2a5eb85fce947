#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <exception>
#include <stdexcept>

#include "app/spec.hpp"
#include "app/sweep.hpp"
#include "obs/attrib.hpp"
#include "obs/invariants.hpp"
#include "obs/spans.hpp"

namespace perfbench {
namespace {

using zhuge::app::EvalCellSpec;
using zhuge::app::EvalMatrixResult;
using zhuge::app::MultiStationResult;
using zhuge::app::ScenarioSpec;
namespace obs = zhuge::obs;

/// Set-up is sub-millisecond work whose time on a shared host swings by
/// half from one second to the next, so it is repeated kSetupRepeats times
/// before every timed run (eval_matrix: timed slice). Each block keeps its
/// fastest repetition (other tenants only ever slow a repetition down),
/// divided by the reference kernel run just before it; the median over the
/// blocks, which spread over the whole timed pass, is reported in seconds
/// at the nominal reference speed (kNominalReferenceS).
constexpr int kSetupRepeats = 32;

/// A multi-station workload: its spec, how many simulation seeds the check
/// pass runs (the modelled metrics summarise them, so this sets
/// how steady they are from one benchmark seed to the next), and how many
/// of those the timed and the traced pass repeat. Under churn the work of a
/// run depends strongly on its seed, so dense64_churn times every seed.
struct MsDef {
  const char* name;
  const char* spec_file;
  int seeds;
  std::size_t timed;
  std::size_t traced;
};

constexpr MsDef kDense{"dense64_churn", "dense_64sta_churn.json", 64, 64, 8};
constexpr MsDef kFeedback{"zhuge_feedback", "zhuge_feedback.json", 192, 8, 8};
/// Eval matrices per benchmark run, each 120 cells at its own seed.
constexpr int kEvalMatrices = 2;

/// Serial check-pass switches: invariants and attribution on, for the
/// duration of one scope.
class CheckScope {
 public:
  CheckScope()
      : invariants_was_(obs::invariants_enabled()),
        attrib_was_(obs::attrib_enabled()) {
    obs::set_invariants_enabled(true);
    obs::set_attrib_enabled(true);
  }
  ~CheckScope() {
    obs::set_invariants_enabled(invariants_was_);
    obs::set_attrib_enabled(attrib_was_);
  }
  CheckScope(const CheckScope&) = delete;
  CheckScope& operator=(const CheckScope&) = delete;

 private:
  bool invariants_was_;
  bool attrib_was_;
};

/// Share of a stage histogram's samples above `us`: the histogram's own
/// quantile function inverted by bisection.
double share_above(const obs::Histogram& h, double us) {
  if (h.count() == 0 || h.max() <= us) return 0.0;
  if (h.min() > us) return 1.0;
  double lo = 0.0;
  double hi = 1.0;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (h.quantile(mid) > us) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return 1.0 - lo;
}

/// Check one run's invariants and drained feedback; record failures.
void check_run(const MultiStationResult& r, const std::string& label, Outcome& out) {
  if (r.invariant_violations > 0) {
    out.fail(label + ": " + std::to_string(r.invariant_violations) +
             " invariant violation(s): " + obs::invariants().summary());
    obs::invariants().clear();
  }
  if (r.stranded_acks > 0) {
    out.fail(label + ": " + std::to_string(r.stranded_acks) + " stranded ack(s)");
  }
}

/// Time of the fastest of `n` set-up repetitions.
template <typename SetUp>
double fastest_set_up(int n, const SetUp& set_up, const std::vector<double>& times) {
  double best = 0.0;
  for (int k = 0; k < n; ++k) {
    (void)set_up();
    best = k == 0 ? times.back() : std::min(best, times.back());
  }
  return best;
}

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Host speed of the timed pass: throughput in host wall time and the
/// reference kernel that sim_s_per_ref divides by. Per-layer metrics with
/// --trace 1, printed as notes otherwise.
void report_host_speed(double sim_s_per_wall_s, const RefClock& ref_clock, bool per_layer,
                       Outcome& out) {
  const auto put = per_layer ? &Outcome::add : &Outcome::note;
  (out.*put)("sim.sim_s_per_wall_s", sim_s_per_wall_s, "sim_s/s");
  (out.*put)("host.ref_kernel_ms", ref_clock.median_probe_s() * 1e3, "ms");
}

double ok_share(const Outcome& out) {
  return 1.0 - static_cast<double>(out.failed) / static_cast<double>(out.attempted);
}

// ---------------------------------------------------------------------------
// Multi-station spec workloads (dense64_churn, zhuge_feedback)
// ---------------------------------------------------------------------------

Outcome run_ms_workload(const Args& args, const MsDef& def) {
  Outcome out;
  MsContext ctx;
  ctx.name = def.name;
  ctx.seeds = derive_seeds(args.seed, def.seeds);
  ctx.timed = def.timed;
  ctx.traced = def.traced;
  const std::string path = args.spec_dir + "/" + def.spec_file;

  // Set-up: spec load + validation, then one flow schedule per seed.
  std::vector<double> setup_s;
  std::vector<double> load_s;
  std::vector<double> expand_s;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    std::string err;
    auto spec = zhuge::app::load_scenario_spec(path, &err);
    if (!spec.has_value()) throw std::runtime_error(path + ": " + err);
    const double t_load = seconds_since(t0);
    std::size_t flows = 0;
    for (const std::uint64_t s : ctx.seeds) {
      flows += zhuge::app::expand_flow_schedule(*spec, s).size();
    }
    const double t_all = seconds_since(t0);
    if (flows == 0) throw std::runtime_error(path + ": spec schedules no flows");
    setup_s.push_back(t_all);
    load_s.push_back(t_load);
    expand_s.push_back(t_all - t_load);
    return std::move(*spec);
  };
  ctx.spec = set_up();

  // Check pass: serial, invariants and attribution on.
  {
    const CheckScope scope;
    for (const std::uint64_t s : ctx.seeds) {
      ++out.attempted;
      const std::string label = ctx.name + "/s" + std::to_string(s);
      try {
        const MultiStationResult r = zhuge::app::run_multi_station(ctx.spec, s);
        check_run(r, label, out);
        ctx.check_fp.push_back(canonical_fingerprint(r));
        ctx.check_model.push_back(model_run(ctx.spec, r));
        ctx.events.push_back(r.events_executed);
      } catch (const std::exception& e) {
        out.fail(label + ": check run threw: " + e.what());
        ctx.check_fp.push_back(0);
        ctx.check_model.emplace_back();
        ctx.events.push_back(0);
      }
    }
  }

  // Timed pass: the first `timed` seeds in turn, each at least once, until
  // the time is up; each run is compared against its check run.
  std::vector<std::vector<double>> walls(ctx.timed);
  std::vector<std::vector<double>> refs(ctx.timed);
  std::vector<double> setup_blocks;
  std::vector<double> setup_refs;
  RefClock ref_clock;
  const auto t_start = Clock::now();
  for (std::size_t k = 0; k < ctx.timed || seconds_since(t_start) < args.seconds; ++k) {
    const std::size_t i = k % ctx.timed;
    setup_blocks.push_back(fastest_set_up(kSetupRepeats, set_up, setup_s));
    setup_refs.push_back(setup_blocks.back() / ref_clock.last_probe_s());
    ++out.attempted;
    const std::string label = ctx.name + "/s" + std::to_string(ctx.seeds[i]);
    const auto t0 = Clock::now();
    const auto timed = [&] {
      walls[i].push_back(seconds_since(t0));
      refs[i].push_back(ref_clock.to_refs(walls[i].back()));
    };
    try {
      const MultiStationResult r = zhuge::app::run_multi_station(ctx.spec, ctx.seeds[i]);
      timed();
      if (canonical_fingerprint(r) != ctx.check_fp[i]) {
        out.fail(label + ": timed-run fingerprint differs from the check run");
      }
    } catch (const std::exception& e) {
      timed();
      out.fail(label + ": timed run threw: " + e.what());
    }
  }
  ctx.spec_load_s = median(load_s);
  ctx.expand_s = median(expand_s);

  // Reference units: median repetition per seed. Host wall: fastest
  // repetition per seed.
  double refs_sum = 0.0;
  double wall_sum = 0.0;
  for (std::size_t i = 0; i < ctx.timed; ++i) {
    refs_sum += median(refs[i]);
    ctx.untraced_wall_s.push_back(*std::min_element(walls[i].begin(), walls[i].end()));
    wall_sum += ctx.untraced_wall_s.back();
  }
  const double sim_s = ctx.spec.duration_s * static_cast<double>(ctx.timed);

  if (args.trace) {
    traced_ms_pass(ctx, out);
    report_host_speed(sim_s / wall_sum, ref_clock, true, out);
    return out;
  }

  // The p95 ratio pools the frames of every check run: per-run ratios
  // cluster by fade phase, so their median jumps between clusters.
  std::vector<double> p50;
  obs::Histogram on_e2e(obs::StageSet::stage_spec());
  obs::Histogram off_e2e(obs::StageSet::stage_spec());
  double bytes = 0.0;
  double post_warmup_s = 0.0;
  for (const RunModel& m : ctx.check_model) {
    p50.push_back(m.p50_ms);
    on_e2e.merge(m.zhuge_e2e);
    off_e2e.merge(m.control_e2e);
    bytes += m.bytes;
    post_warmup_s += m.post_warmup_s;
  }
  const TailMetrics tail = tail_metrics(ctx);
  out.add("setup_s", median(setup_refs) * kNominalReferenceS, "s");
  out.add("sim_s_per_ref", sim_s / refs_sum, "sim_s/ref");
  out.add("peak_rss_mb", peak_rss_mib(), "MiB");
  out.add("frame_delay_p50_ms", median(p50), "sim_ms");
  out.add("zhuge_p95_ratio", per(on_e2e.quantile(0.95), off_e2e.quantile(0.95)), "ratio");
  out.add("goodput_mbps", post_warmup_s > 0 ? bytes * 8.0 / 1e6 / post_warmup_s : 0.0,
          "sim_Mbit/s");
  out.add("ok_share", ok_share(out), "fraction");
  report_host_speed(sim_s / wall_sum, ref_clock, false, out);
  out.note("setup_wall_s", median(setup_blocks), "s");
  out.note("frame_delay_p99_ms", tail.p99_ms, "sim_ms");
  out.note("delayed_frame_ratio", tail.delayed_ratio, "fraction");
  out.note("frame_samples", tail.frames, "count");
  return out;
}

// ---------------------------------------------------------------------------
// Eval matrix
// ---------------------------------------------------------------------------

/// The timed pass runs each matrix in slices of kEvalSlice cells, one
/// run_eval_matrix call each. A slice takes well under a second, short
/// enough that the reference kernels on either side of it see the host at
/// the speed it ran at.
constexpr std::size_t kEvalSlice = 8;

/// The timed slices run on one pool worker. On a shared 4-vCPU host the
/// throughput of two workers swung by a third between quarter hours, one
/// worker's by a sixth; the pool's parallel behaviour is reported by the
/// traced pass (app.pool_busy_share, app.pool_tail_s).
constexpr unsigned kTimedThreads = 1;

struct Slice {
  std::vector<EvalCellSpec> cells;
  std::vector<std::uint64_t> check_fp;
  std::vector<double> walls;
  std::vector<double> refs;
};

/// `cells` on the pooled matrix runner; every cell's fingerprint must equal
/// its serial check run's.
EvalMatrixResult run_pooled(const std::vector<EvalCellSpec>& cells,
                            const std::vector<std::uint64_t>& check_fp, unsigned threads,
                            Outcome& out) {
  out.attempted += cells.size();
  try {
    EvalMatrixResult res = zhuge::app::run_eval_matrix(cells, threads);
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c >= res.cells.size() || res.cells[c].result_fingerprint != check_fp[c]) {
        out.fail("eval_matrix/s" + std::to_string(cells[c].scenario.seed) + "/" +
                 cells[c].name + ": pooled fingerprint differs from the serial check run");
      }
    }
    return res;
  } catch (const std::exception& e) {
    for (const EvalCellSpec& cs : cells) {
      out.fail("eval_matrix/" + cs.name + ": pooled run threw: " + e.what());
    }
    return {};
  }
}

Outcome run_eval_workload(const Args& args) {
  Outcome out;
  EvalContext ctx;
  const std::vector<std::uint64_t> seeds = derive_seeds(args.seed, kEvalMatrices);

  std::vector<double> setup_s;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    std::vector<std::vector<EvalCellSpec>> matrices;
    for (const std::uint64_t s : seeds) {
      zhuge::app::EvalSpec spec;
      spec.seed = s;
      matrices.push_back(zhuge::app::expand_eval_matrix(spec));
      if (matrices.back().empty()) throw std::runtime_error("eval: empty matrix");
    }
    setup_s.push_back(seconds_since(t0));
    return matrices;
  };
  ctx.matrices = set_up();

  // Check pass: every cell serially on the engine, invariants on. The
  // pooled matrix runner freezes invariant checking, so this is the only
  // pass that can see a violation.
  {
    const CheckScope scope;
    for (const auto& cells : ctx.matrices) {
      std::vector<std::uint64_t> fps;
      for (const EvalCellSpec& cs : cells) {
        ++out.attempted;
        const std::string label =
            "eval_matrix/s" + std::to_string(cs.scenario.seed) + "/" + cs.name;
        try {
          const MultiStationResult r = zhuge::app::run_multi_station(cs.scenario);
          check_run(r, label, out);
          fps.push_back(canonical_fingerprint(r));
        } catch (const std::exception& e) {
          out.fail(label + ": check run threw: " + e.what());
          fps.push_back(0);
        }
      }
      ctx.check_fp.push_back(std::move(fps));
    }
  }

  // Every matrix once on the pooled matrix runner, untimed: its cells and
  // headline give the modelled metrics.
  const unsigned threads = pool_threads();
  std::vector<EvalMatrixResult> first;
  for (std::size_t m = 0; m < ctx.matrices.size(); ++m) {
    first.push_back(run_pooled(ctx.matrices[m], ctx.check_fp[m], threads, out));
  }

  // Timed pass: slices of every matrix on the pooled runner, back to back,
  // with a set-up block before each.
  std::vector<Slice> slices;
  for (std::size_t m = 0; m < ctx.matrices.size(); ++m) {
    const auto& cells = ctx.matrices[m];
    for (std::size_t b = 0; b < cells.size(); b += kEvalSlice) {
      const std::size_t e = std::min(cells.size(), b + kEvalSlice);
      Slice sl;
      sl.cells.assign(cells.begin() + static_cast<std::ptrdiff_t>(b),
                      cells.begin() + static_cast<std::ptrdiff_t>(e));
      sl.check_fp.assign(ctx.check_fp[m].begin() + static_cast<std::ptrdiff_t>(b),
                         ctx.check_fp[m].begin() + static_cast<std::ptrdiff_t>(e));
      slices.push_back(std::move(sl));
    }
  }
  std::vector<double> setup_blocks;
  std::vector<double> setup_refs;
  RefClock ref_clock;
  const auto t_start = Clock::now();
  for (std::size_t k = 0; k < slices.size() || seconds_since(t_start) < args.seconds; ++k) {
    Slice& sl = slices[k % slices.size()];
    setup_blocks.push_back(fastest_set_up(kSetupRepeats, set_up, setup_s));
    setup_refs.push_back(setup_blocks.back() / ref_clock.last_probe_s());
    const auto t0 = Clock::now();
    (void)run_pooled(sl.cells, sl.check_fp, kTimedThreads, out);
    sl.walls.push_back(seconds_since(t0));
    sl.refs.push_back(ref_clock.to_refs(sl.walls.back()));
  }
  ctx.expand_s = median(setup_s);

  // Reference units: median repetition per slice. Host wall: fastest
  // repetition per slice.
  double refs_sum = 0.0;
  double wall_sum = 0.0;
  double sim_s = 0.0;
  for (const Slice& sl : slices) {
    refs_sum += median(sl.refs);
    wall_sum += *std::min_element(sl.walls.begin(), sl.walls.end());
    for (const EvalCellSpec& cs : sl.cells) sim_s += cs.scenario.duration_s;
  }

  if (args.trace) {
    traced_eval_pass(ctx, out);
    report_host_speed(sim_s / wall_sum, ref_clock, true, out);
    return out;
  }

  // Modelled metrics: medians over the Zhuge cells and the headline pairs.
  std::vector<zhuge::app::EvalCell> zhuge_cells;
  std::vector<double> p50;
  std::vector<double> ratio;
  double goodput_bps = 0.0;
  std::size_t n_cells = 0;
  for (const EvalMatrixResult& res : first) {
    for (const zhuge::app::EvalCell& c : res.cells) {
      goodput_bps += c.goodput_bps;
      ++n_cells;
      if (c.mechanism != "zhuge") continue;
      p50.push_back(c.frame_delay_p50_ms);
      zhuge_cells.push_back(c);
    }
    for (const zhuge::app::EvalHeadline& h : res.headline) {
      if (h.vanilla_p95_ms > 0.0) ratio.push_back(h.zhuge_p95_ms / h.vanilla_p95_ms);
    }
  }
  const TailMetrics tail = tail_metrics(zhuge_cells);
  out.add("setup_s", median(setup_refs) * kNominalReferenceS, "s");
  out.add("sim_s_per_ref", sim_s / refs_sum, "sim_s/ref");
  out.add("peak_rss_mb", peak_rss_mib(), "MiB");
  out.add("frame_delay_p50_ms", median(p50), "sim_ms");
  out.add("zhuge_p95_ratio", median(ratio), "ratio");
  out.add("goodput_mbps", n_cells > 0 ? goodput_bps / 1e6 / static_cast<double>(n_cells) : 0.0,
          "sim_Mbit/s");
  out.add("ok_share", ok_share(out), "fraction");
  report_host_speed(sim_s / wall_sum, ref_clock, false, out);
  out.note("setup_wall_s", median(setup_blocks), "s");
  out.note("frame_delay_p99_ms", tail.p99_ms, "sim_ms");
  out.note("delayed_frame_ratio", tail.delayed_ratio, "fraction");
  out.note("frame_samples", tail.frames, "count");
  return out;
}

}  // namespace

bool RunModel::same_bits(const RunModel& o) const {
  const auto eq = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  return eq(p50_ms, o.p50_ms) && eq(p99_ms, o.p99_ms) && eq(frames, o.frames) &&
         eq(delayed_frames, o.delayed_frames) &&
         eq(zhuge_e2e.quantile(0.95), o.zhuge_e2e.quantile(0.95)) &&
         eq(control_e2e.quantile(0.95), o.control_e2e.quantile(0.95)) &&
         eq(bytes, o.bytes) && eq(post_warmup_s, o.post_warmup_s);
}

RunModel model_run(const ScenarioSpec& spec, const MultiStationResult& r) {
  RunModel m;
  // Zhuge-flow frame delay comes from the attribution's frame_e2e stage
  // (capture -> decode), which only counts frames decoded after warm-up.
  const obs::Histogram& fd = r.attrib.group(true).stage(obs::Stage::kFrameE2e);
  m.p50_ms = fd.quantile(0.50) / 1e3;
  m.p99_ms = fd.quantile(0.99) / 1e3;
  m.frames = static_cast<double>(fd.count());
  m.delayed_frames = share_above(fd, 400e3) * m.frames;

  // The p95 comparison uses flows of the kinds that run both with and
  // without Zhuge: RTP in dense64_churn (churned TCP is never optimised),
  // RTP and CUBIC in zhuge_feedback (each has an identical zhuge-off twin).
  bool kind_on[4] = {};
  bool kind_off[4] = {};
  for (const auto& f : r.flows) {
    (f.zhuge ? kind_on : kind_off)[static_cast<int>(f.kind)] = true;
    const double lo = std::max(f.start_s, spec.warmup_s);
    const double hi = std::min(f.stop_s, spec.duration_s);
    if (hi > lo) m.bytes += f.goodput_bps * (hi - lo) / 8.0;
  }
  obs::StageSet on;
  obs::StageSet off;
  for (const auto& [key, set] : r.attrib.flows()) {
    if (key == 0 || key > r.flows.size()) continue;
    const auto& f = r.flows[key - 1];
    const int k = static_cast<int>(f.kind);
    if (kind_on[k] && kind_off[k]) (f.zhuge ? on : off).merge(set);
  }
  m.zhuge_e2e = on.stage(obs::Stage::kFrameE2e);
  m.control_e2e = off.stage(obs::Stage::kFrameE2e);
  m.post_warmup_s = spec.duration_s - spec.warmup_s;
  return m;
}

TailMetrics tail_metrics(const MsContext& ctx) {
  TailMetrics t;
  std::vector<double> p99;
  double delayed = 0.0;
  for (const RunModel& m : ctx.check_model) {
    p99.push_back(m.p99_ms);
    delayed += m.delayed_frames;
    t.frames += m.frames;
  }
  t.p99_ms = median(p99);
  t.delayed_ratio = t.frames > 0 ? delayed / t.frames : 0.0;
  return t;
}

TailMetrics tail_metrics(const std::vector<zhuge::app::EvalCell>& cells) {
  TailMetrics t;
  std::vector<double> p99;
  double delayed = 0.0;
  for (const zhuge::app::EvalCell& c : cells) {
    p99.push_back(c.frame_delay_p99_ms);
    delayed += c.delayed_frame_ratio * static_cast<double>(c.frames_decoded);
    t.frames += static_cast<double>(c.frames_decoded);
  }
  t.p99_ms = median(p99);
  t.delayed_ratio = t.frames > 0 ? delayed / t.frames : 0.0;
  return t;
}

std::uint64_t canonical_fingerprint(const MultiStationResult& r) {
  (void)r.agg_frame_delay_ms.quantile(0.5);
  (void)r.agg_network_rtt_ms.quantile(0.5);
  return zhuge::app::multi_result_fingerprint(r);
}

Outcome run_workload(const Args& args) {
  if (args.workload == kDense.name) return run_ms_workload(args, kDense);
  if (args.workload == kFeedback.name) return run_ms_workload(args, kFeedback);
  if (args.workload == "eval_matrix") return run_eval_workload(args);
  throw std::invalid_argument("unknown workload '" + args.workload +
                              "' (expected dense64_churn, zhuge_feedback or eval_matrix)");
}

}  // namespace perfbench
