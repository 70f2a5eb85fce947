// sweep_run — run a scenario × seed grid on a thread pool.
//
//   sweep_run [--threads N] [--seeds N] [--duration SECS] [--metrics PATH]
//             [--verify-serial] [--attrib] [--list]
//
// The built-in scenario axis covers the four AP modes the paper compares
// (none / Zhuge / FastAck, RTP; plus Zhuge over TCP-Copa) on the
// restaurant-WiFi trace; crossing it with --seeds gives the grid. Per-run
// determinism is independent of --threads: --verify-serial re-runs the
// grid serially and fails (exit 1) if any per-run fingerprint differs
// from the parallel run — the same check tests/sweep_test.cpp applies.
// --metrics writes the aggregated per-run headline metrics as JSON via
// the obs registry exporter.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "app/sweep.hpp"
#include "obs/attrib.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "trace/synthetic.hpp"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--threads N] [--seeds N] [--duration SECS] [--metrics PATH]\n"
      "          [--verify-serial] [--attrib] [--list]\n"
      "  --threads N      worker threads (default 1 = serial)\n"
      "  --seeds N        seeds per scenario, 1..N (default 4)\n"
      "  --duration SECS  simulated seconds per run, more than the 5 s warm-up\n"
      "                   (default 10)\n"
      "  --metrics PATH   write aggregated per-run metrics JSON to PATH\n"
      "  --verify-serial  re-run serially, fail on any fingerprint mismatch\n"
      "  --attrib         record latency attribution, print the merged report\n"
      "  --list           print the grid point names and exit\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace zhuge;

  unsigned threads = 1;
  std::uint64_t n_seeds = 4;
  long duration_s = 10;
  std::string metrics_path;
  bool verify_serial = false;
  bool attrib = false;
  bool list = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--seeds" && i + 1 < argc) {
      n_seeds = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--duration" && i + 1 < argc) {
      duration_s = std::strtol(argv[++i], nullptr, 10);
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--verify-serial") {
      verify_serial = true;
    } else if (arg == "--attrib") {
      attrib = true;
    } else if (arg == "--list") {
      list = true;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  // Every metric is measured after the warm-up: a run no longer than it
  // has no samples, and its goodput divides by a zero-length window.
  const long warmup_s = static_cast<long>(app::ScenarioConfig{}.warmup.to_seconds());
  if (duration_s <= warmup_s) {
    std::fprintf(stderr, "sweep_run: --duration must exceed the %ld s warm-up\n", warmup_s);
    usage(argv[0]);
    return 2;
  }

  // Channel traces outlive the runs and are shared read-only across
  // threads (ScenarioConfig holds a const pointer).
  const trace::Trace wifi = trace::make_trace(
      trace::TraceKind::kRestaurantWifi, 7, sim::Duration::seconds(duration_s));

  std::vector<app::SweepPoint> scenarios;
  const auto add = [&](std::string name, app::ApMode mode, app::Protocol proto) {
    app::SweepPoint p;
    p.name = std::move(name);
    p.config.protocol = proto;
    p.config.ap.mode = mode;
    p.config.channel_trace = &wifi;
    p.config.duration = sim::Duration::seconds(duration_s);
    scenarios.push_back(std::move(p));
  };
  add("rtp-none", app::ApMode::kNone, app::Protocol::kRtp);
  add("rtp-zhuge", app::ApMode::kZhuge, app::Protocol::kRtp);
  add("rtp-fastack", app::ApMode::kFastAck, app::Protocol::kRtp);
  add("tcp-zhuge", app::ApMode::kZhuge, app::Protocol::kTcp);

  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 1; s <= n_seeds; ++s) seeds.push_back(s);
  const std::vector<app::SweepPoint> grid = app::cross_seeds(scenarios, seeds);

  if (list) {
    for (const auto& p : grid) std::printf("%s\n", p.name.c_str());
    return 0;
  }

  std::printf("sweep: %zu points, %u thread(s)\n", grid.size(), threads);
  const auto runs = app::run_sweep(grid, {.threads = threads, .attrib = attrib});

  for (const auto& run : runs) {
    const auto& flow = run.result.primary();
    std::printf("%-20s fp=%016llx p50=%7.1fms p99=%7.1fms goodput=%6.2fMbps %6.2fs\n",
                run.name.c_str(),
                static_cast<unsigned long long>(run.fingerprint),
                flow.network_rtt_ms.quantile(0.50),
                flow.network_rtt_ms.quantile(0.99),
                flow.goodput_bps / 1e6, run.wall_seconds);
  }

  int rc = 0;
  if (attrib) {
    obs::Attribution merged;
    for (const auto& run : runs) merged.merge(run.result.attrib);
    std::printf("\n");
    obs::write_attrib_report_text(merged, std::cout);
  }
  if (verify_serial) {
    const auto serial = app::run_sweep(grid, {.threads = 1, .attrib = attrib});
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (serial[i].fingerprint != runs[i].fingerprint) {
        std::printf("MISMATCH %s: parallel %016llx != serial %016llx\n",
                    runs[i].name.c_str(),
                    static_cast<unsigned long long>(runs[i].fingerprint),
                    static_cast<unsigned long long>(serial[i].fingerprint));
        rc = 1;
      }
    }
    if (rc == 0) std::printf("verify-serial: all %zu fingerprints match\n", runs.size());
  }

  if (!metrics_path.empty()) {
    obs::Registry registry;
    app::export_sweep_metrics(runs, registry);
    if (!obs::write_metrics_file(registry, metrics_path)) {
      std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
      rc = rc == 0 ? 3 : rc;
    } else {
      std::printf("metrics: %s\n", metrics_path.c_str());
    }
  }
  return rc;
}
