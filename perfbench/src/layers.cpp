// Traced passes: per-layer metrics. Metrics registry, tracer and latency
// attribution are switched on together; every traced run must reproduce
// its check run bit for bit, and its trace is replayed into the queue,
// Fortune Teller and AckScheduler classes (replay.hpp) before the next run.

#include <algorithm>
#include <map>
#include <thread>
#include <unordered_map>

#include "app/spec.hpp"
#include "app/sweep.hpp"
#include "obs/attrib.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "obs/tracer.hpp"
#include "replay.hpp"
#include "stats/distribution.hpp"
#include "trace/synthetic.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace app = zhuge::app;
namespace obs = zhuge::obs;
using app::MultiStationResult;

/// Ring size for one run's trace. The ring only grows as events arrive, so
/// a generous cap costs nothing until used; a run that overflows it marks
/// the replays partial (obs.trace_overwritten > 0).
constexpr std::size_t kTraceCapacity = std::size_t{1} << 24;

/// Metrics registry, tracer and attribution on for one scope.
class TraceScope {
 public:
  TraceScope() {
    obs::metrics().clear();
    obs::tracer().set_capacity(kTraceCapacity);
    set(true);
  }
  ~TraceScope() {
    set(false);
    obs::tracer().set_capacity(std::size_t{1} << 20);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  /// Replays drive instrumented classes; keep them out of the run's trace.
  static void set(bool on) {
    obs::set_metrics_enabled(on);
    obs::set_tracing_enabled(on);
    obs::set_attrib_enabled(on);
  }
};

/// Everything the traced runs of one workload add up to.
struct LayerAcc {
  obs::Attribution attrib;
  zhuge::stats::Distribution prediction_err_ms;
  std::uint64_t events = 0;
  double sim_s = 0.0;
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
  double frames_sent = 0.0;
  double frames_decoded = 0.0;
  double kind_bytes[4] = {};  ///< post-warm-up application bytes per flow kind
  double post_warmup_s = 0.0;
  std::uint64_t enqueued = 0;
  std::uint64_t tail_drops = 0;
  std::uint64_t head_drops = 0;
  std::uint64_t overwritten = 0;
  double traced_wall_s = 0.0;
  double fingerprint_s = 0.0;
  ReplayTotals replay;

  /// Fold one traced run in, then replay its trace. The tracer must hold
  /// exactly this run.
  void add(const app::ScenarioSpec& spec, std::uint64_t seed,
           const MultiStationResult& r, const std::string& label, Outcome& out) {
    attrib.merge(r.attrib);
    for (const double v : r.prediction_error_ms.samples()) prediction_err_ms.add(v);
    events += r.events_executed;
    sim_s += spec.duration_s;
    arrivals += r.arrivals;
    departures += r.departures;
    for (const auto& f : r.flows) {
      frames_sent += static_cast<double>(f.frames_sent);
      frames_decoded += static_cast<double>(f.frames_decoded);
      const double lo = std::max(f.start_s, spec.warmup_s);
      const double hi = std::min(f.stop_s, spec.duration_s);
      if (hi > lo) kind_bytes[static_cast<int>(f.kind)] += f.goodput_bps * (hi - lo) / 8.0;
    }
    post_warmup_s += spec.duration_s - spec.warmup_s;

    const obs::Tracer& tr = obs::tracer();
    tr.for_each([this](const obs::TraceEvent& ev) {
      const std::string_view comp = ev.component;
      if (comp.substr(0, 6) != "queue.") return;
      const std::string_view name = ev.name;
      enqueued += name == "enqueue";
      tail_drops += name == "tail_drop";
      head_drops += name == "head_drop";
    });
    overwritten += tr.overwritten();
    if (tr.overwritten() > 0) return;  // incomplete stream: nothing to replay

    TraceScope::set(false);
    const std::size_t before = replay.mismatches.size();
    replay_run(tr, spec, app::expand_flow_schedule(spec, seed), replay);
    for (std::size_t i = before; i < replay.mismatches.size(); ++i) {
      out.fail(label + ": replay did not reproduce the trace: " + replay.mismatches[i]);
    }
    TraceScope::set(true);
  }
};

std::uint64_t counter(const char* name) {
  const auto& m = obs::metrics().counters();
  const auto it = m.find(name);
  return it == m.end() ? 0 : it->second.value();
}

const obs::Histogram* histogram(const char* name) {
  const auto& m = obs::metrics().histograms();
  const auto it = m.find(name);
  return it == m.end() ? nullptr : &it->second;
}

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

double stage_ms(const obs::Attribution& a, obs::Stage s, double q) {
  return a.all().stage(s).quantile(q) / 1e3;
}

/// Share of cells or runs whose result fingerprint equals another's.
double duplicate_share(const std::vector<std::uint64_t>& fps) {
  std::vector<std::uint64_t> v = fps;
  std::sort(v.begin(), v.end());
  const auto distinct = static_cast<double>(std::unique(v.begin(), v.end()) - v.begin());
  return per(static_cast<double>(fps.size()) - distinct, static_cast<double>(fps.size()));
}

/// Host time to synthesise the ABW traces of trace-class stations, as the
/// engine does when it builds them (one per station, seed + index).
double trace_synth_ms(const app::ScenarioSpec& spec, std::uint64_t seed) {
  double ms = 0.0;
  for (int i = 0; i < spec.station_count(); ++i) {
    const auto& g = spec.station_group(i);
    if (!g.trace_class.has_value()) continue;
    const auto t0 = Clock::now();
    const auto tr = zhuge::trace::make_trace(*g.trace_class,
                                             seed + static_cast<std::uint64_t>(i),
                                             zhuge::sim::Duration::from_seconds(spec.duration_s));
    ms += seconds_since(t0) * 1e3;
  }
  return ms;
}

/// Pool timings of the eval matrix (zero for the serial workloads).
struct PoolStats {
  std::vector<double> cell_wall_ms;
  double busy_share = 0.0;
  double tail_s = 0.0;
  double vanilla_p50_ms = 0.0;
  double zhuge_p50_ms = 0.0;
  double fastack_p50_ms = 0.0;
  double abc_p50_ms = 0.0;
};

/// Append every per-layer metric, in the order BENCHMARK.json lists them.
void report(const LayerAcc& a, const TailMetrics& tail, const PoolStats& pool,
            double untraced_wall_s, std::uint64_t untraced_events, double spec_load_s,
            double expand_s, double duplicate, double synth_ms, Outcome& out) {
  const double predictions = static_cast<double>(counter("fortune.predictions"));
  const double downlink = static_cast<double>(counter("ap.downlink_packets"));
  const obs::Histogram* ampdu = histogram("wireless.wifi.ampdu_packets");
  const obs::Histogram* hold = histogram("feedback.oob.ack_hold_ms");
  const ReplayTotals& r = a.replay;

  out.add("sim.events", static_cast<double>(a.events), "count");
  out.add("sim.events_per_sim_s", per(static_cast<double>(a.events), a.sim_s), "1/sim_s");
  out.add("sim.host_ns_per_event",
          per(untraced_wall_s * 1e9, static_cast<double>(untraced_events)), "ns");
  out.add("wireless.wifi.frames", static_cast<double>(counter("wireless.wifi.frames")), "count");
  out.add("wireless.wifi.ampdu_pkts_mean", ampdu != nullptr ? ampdu->mean() : 0.0, "count");
  out.add("wireless.wifi.retries", static_cast<double>(counter("wireless.wifi.retries")), "count");
  out.add("wireless.cellular.ttis", static_cast<double>(counter("wireless.cellular.ttis")),
          "count");
  out.add("wireless.air_p95_ms", stage_ms(a.attrib, obs::Stage::kAir, 0.95), "sim_ms");
  out.add("queue.enqueued", static_cast<double>(a.enqueued), "count");
  out.add("queue.drop_share",
          per(static_cast<double>(a.tail_drops + a.head_drops),
              static_cast<double>(a.enqueued + a.tail_drops)),
          "fraction");
  out.add("queue.sojourn_p95_us", a.attrib.all().stage(obs::Stage::kApQueue).quantile(0.95),
          "sim_us");
  out.add("queue.replay_ns_per_pkt", per(r.queue_ns, static_cast<double>(r.queue_pkts)), "ns");
  out.add("queue.replay_pkts", static_cast<double>(r.queue_pkts), "count");
  out.add("core.predictions", predictions, "count");
  out.add("core.predictions_per_downlink_pkt", per(predictions, downlink), "ratio");
  out.add("core.replay_ns_per_predict", per(r.predict_ns, static_cast<double>(r.predicts)), "ns");
  out.add("core.replay_predicts", static_cast<double>(r.predicts), "count");
  out.add("core.replay_ns_per_ack_hold", per(r.ack_ns, static_cast<double>(r.ack_holds)), "ns");
  out.add("core.replay_ack_holds", static_cast<double>(r.ack_holds), "count");
  out.add("core.prediction_err_p95_ms", a.prediction_err_ms.quantile(0.95), "sim_ms");
  out.add("core.twcc_built", static_cast<double>(counter("feedback.inband.twcc_sent")), "count");
  out.add("core.rtp_recorded", static_cast<double>(counter("feedback.inband.rtp_recorded")),
          "count");
  out.add("core.acks_held",
          static_cast<double>(counter("feedback.oob.acks") + counter("feedback.oob.floor_acks")),
          "count");
  out.add("core.ack_hold_p95_ms", hold != nullptr ? hold->quantile(0.95) : 0.0, "sim_ms");
  out.add("core.ladder_escalations", static_cast<double>(counter("zhuge.degrade")), "count");
  out.add("core.zhuge_cell_wall_ms_p50", pool.zhuge_p50_ms, "ms");
  out.add("transport.pacing_p95_ms", stage_ms(a.attrib, obs::Stage::kPacing, 0.95), "sim_ms");
  out.add("rtc.reassembly_p95_ms", stage_ms(a.attrib, obs::Stage::kReassembly, 0.95), "sim_ms");
  out.add("rtc.decode_wait_p95_ms", stage_ms(a.attrib, obs::Stage::kDecodeWait, 0.95), "sim_ms");
  out.add("rtc.stall_share", 1.0 - per(a.frames_decoded, a.frames_sent), "fraction");
  out.add("rtc.frame_delay_p99_ms", tail.p99_ms, "sim_ms");
  out.add("rtc.delayed_frame_ratio", tail.delayed_ratio, "fraction");
  out.add("rtc.frame_samples", tail.frames, "count");
  out.add("net.wan_p95_ms", stage_ms(a.attrib, obs::Stage::kWan, 0.95), "sim_ms");
  const auto mbps = [&](app::SpecFlowKind k) {
    return per(a.kind_bytes[static_cast<int>(k)] * 8.0 / 1e6, a.post_warmup_s);
  };
  out.add("cca.gcc_goodput_mbps", mbps(app::SpecFlowKind::kRtpGcc), "sim_Mbit/s");
  out.add("cca.cubic_goodput_mbps", mbps(app::SpecFlowKind::kTcpCubic), "sim_Mbit/s");
  out.add("cca.bbr_goodput_mbps", mbps(app::SpecFlowKind::kTcpBbr), "sim_Mbit/s");
  out.add("app.spec_load_ms", spec_load_s * 1e3, "ms");
  out.add("app.expand_ms", expand_s * 1e3, "ms");
  out.add("app.flow_arrivals", static_cast<double>(a.arrivals), "count");
  out.add("app.flow_departures", static_cast<double>(a.departures), "count");
  out.add("app.ap_downlink_pkts", downlink, "count");
  out.add("app.ap_uplink_delayed", static_cast<double>(counter("ap.uplink_delayed")), "count");
  out.add("app.ap_uplink_forwarded", static_cast<double>(counter("ap.uplink_forwarded")),
          "count");
  out.add("app.cell_wall_ms_p50", median(pool.cell_wall_ms), "ms");
  out.add("app.cell_wall_ms_p90", quantile(pool.cell_wall_ms, 0.9), "ms");
  out.add("app.pool_busy_share", pool.busy_share, "fraction");
  out.add("app.pool_tail_s", pool.tail_s, "s");
  out.add("app.duplicate_cell_share", duplicate, "fraction");
  out.add("app.fingerprint_ms", a.fingerprint_s * 1e3, "ms");
  out.add("app.vanilla_cell_wall_ms_p50", pool.vanilla_p50_ms, "ms");
  out.add("trace.synth_ms", synth_ms, "ms");
  out.add("baseline.fastack_cell_wall_ms_p50", pool.fastack_p50_ms, "ms");
  out.add("baseline.abc_cell_wall_ms_p50", pool.abc_p50_ms, "ms");
  out.add("obs.tracing_overhead_pct", (per(a.traced_wall_s, untraced_wall_s) - 1.0) * 100.0, "%");
  out.add("obs.trace_overwritten", static_cast<double>(a.overwritten), "count");
  out.add("obs.replay_partial", a.overwritten > 0 ? 1.0 : 0.0, "flag");
}

}  // namespace

void traced_ms_pass(const MsContext& ctx, Outcome& out) {
  LayerAcc acc;
  {
    const TraceScope scope;
    for (std::size_t i = 0; i < ctx.traced; ++i) {
      ++out.attempted;
      const std::string label = ctx.name + "/s" + std::to_string(ctx.seeds[i]) + " (traced)";
      obs::tracer().clear();
      const auto t0 = Clock::now();
      const MultiStationResult r = app::run_multi_station(ctx.spec, ctx.seeds[i]);
      acc.traced_wall_s += seconds_since(t0);
      const auto t_fp = Clock::now();
      const std::uint64_t fp = canonical_fingerprint(r);
      acc.fingerprint_s += seconds_since(t_fp);
      if (fp != ctx.check_fp[i]) out.fail(label + ": fingerprint differs with tracing on");
      if (!model_run(ctx.spec, r).same_bits(ctx.check_model[i])) {
        out.fail(label + ": modelled metrics differ with tracing on");
      }
      acc.add(ctx.spec, ctx.seeds[i], r, label, out);
    }
    obs::tracer().clear();
  }
  double untraced = 0.0;
  std::uint64_t events = 0;
  PoolStats pool;
  for (std::size_t i = 0; i < ctx.traced; ++i) {
    untraced += ctx.untraced_wall_s[i];
    events += ctx.events[i];
    pool.cell_wall_ms.push_back(ctx.untraced_wall_s[i] * 1e3);
  }
  double synth = 0.0;
  for (std::size_t i = 0; i < ctx.traced; ++i) synth += trace_synth_ms(ctx.spec, ctx.seeds[i]);
  report(acc, tail_metrics(ctx), pool, untraced, events, ctx.spec_load_s, ctx.expand_s,
         duplicate_share(ctx.check_fp), synth, out);
}

void traced_eval_pass(const EvalContext& ctx, Outcome& out) {
  // One matrix: pooled with per-cell timing, then serial untraced, then
  // serial traced.
  const auto& cells = ctx.matrices.front();
  const std::vector<std::uint64_t>& check = ctx.check_fp.front();
  const std::size_t n = cells.size();

  PoolStats pool;
  {
    const unsigned threads = pool_threads();
    std::vector<Clock::time_point> end(n);
    std::vector<std::thread::id> worker(n);
    std::vector<std::uint64_t> fps(n);
    pool.cell_wall_ms.resize(n);
    const auto t0 = Clock::now();
    app::run_indexed_pool(n, threads, [&](std::size_t i) {
      const auto c0 = Clock::now();
      const MultiStationResult r = app::run_multi_station(cells[i].scenario);
      fps[i] = canonical_fingerprint(r);
      end[i] = Clock::now();
      worker[i] = std::this_thread::get_id();
      pool.cell_wall_ms[i] = std::chrono::duration<double, std::milli>(end[i] - c0).count();
    });
    const auto t_end = Clock::now();
    const double wall_s = std::chrono::duration<double>(t_end - t0).count();
    double busy_ms = 0.0;
    std::unordered_map<std::thread::id, Clock::time_point> last;
    for (std::size_t i = 0; i < n; ++i) {
      busy_ms += pool.cell_wall_ms[i];
      auto& l = last[worker[i]];
      l = std::max(l, end[i]);
      if (fps[i] != check[i]) {
        out.fail("eval_matrix/" + cells[i].name + ": pooled fingerprint differs (per-layer pass)");
      }
    }
    out.attempted += n;
    pool.busy_share = per(busy_ms / 1e3, wall_s * std::min<double>(threads, n));
    Clock::time_point first_idle = t_end;
    for (const auto& [id, t] : last) first_idle = std::min(first_idle, t);
    pool.tail_s = std::chrono::duration<double>(t_end - first_idle).count();
    std::map<std::string, std::vector<double>> by_mech;
    for (std::size_t i = 0; i < n; ++i) {
      by_mech[app::eval_mechanism_name(cells[i].mechanism)].push_back(pool.cell_wall_ms[i]);
    }
    pool.vanilla_p50_ms = median(by_mech["vanilla"]);
    pool.zhuge_p50_ms = median(by_mech["zhuge"]);
    pool.fastack_p50_ms = median(by_mech["fastack"]);
    pool.abc_p50_ms = median(by_mech["abc"]);
  }

  double untraced = 0.0;
  std::uint64_t events = 0;
  for (const auto& cs : cells) {
    const auto t0 = Clock::now();
    const MultiStationResult r = app::run_multi_station(cs.scenario);
    untraced += seconds_since(t0);
    events += r.events_executed;
  }

  LayerAcc acc;
  std::vector<app::EvalCell> zhuge_cells;
  {
    const TraceScope scope;
    for (std::size_t i = 0; i < n; ++i) {
      ++out.attempted;
      const std::string label = "eval_matrix/" + cells[i].name + " (traced)";
      obs::tracer().clear();
      const auto t0 = Clock::now();
      MultiStationResult r = app::run_multi_station(cells[i].scenario);
      acc.traced_wall_s += seconds_since(t0);
      const auto t_fp = Clock::now();
      const std::uint64_t fp = canonical_fingerprint(r);
      acc.fingerprint_s += seconds_since(t_fp);
      if (fp != check[i]) out.fail(label + ": fingerprint differs with tracing on");
      if (cells[i].mechanism == app::ApMode::kZhuge) {
        app::EvalCell c;
        c.frame_delay_p99_ms = r.agg_frame_delay_ms.quantile(0.99);
        c.delayed_frame_ratio = r.agg_frame_delay_ms.ratio_above(400.0);
        for (const auto& f : r.flows) c.frames_decoded += f.frames_decoded;
        zhuge_cells.push_back(c);
      }
      acc.add(cells[i].scenario, cells[i].scenario.seed, r, label, out);
    }
    obs::tracer().clear();
  }
  double synth = 0.0;
  for (const auto& cs : cells) synth += trace_synth_ms(cs.scenario, cs.scenario.seed);
  report(acc, tail_metrics(zhuge_cells), pool, untraced, events, 0.0, ctx.expand_s,
         duplicate_share(check), synth, out);
}

}  // namespace perfbench
