// zhuge_perfbench: end-to-end benchmark of the Zhuge simulator.
//
//   zhuge_perfbench --workload <dense64_churn|zhuge_feedback|eval_matrix>
//                   --seed <n> --seconds <s> --trace <0|1> [--spec-dir <dir>]
//
// Prints one "name value unit" line per metric, then, as the last line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.
// Exits 1 when any run failed (each failure is named on stderr) and 2 on a
// usage or input error, printing no result.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Args;
using perfbench::Outcome;

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& s) {
  std::uint64_t v = 0;
  const auto res = std::from_chars(s.data(), s.data() + s.size(), v);
  if (res.ec != std::errc{} || res.ptr != s.data() + s.size()) {
    throw std::invalid_argument(flag + " expects a non-negative integer, got '" + s + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(flag, value));
      if (a.seconds < 1 || a.seconds > 600) {
        throw std::invalid_argument("--seconds must be in [1, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace expects 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--spec-dir") {
      a.spec_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  Outcome out;
  try {
    args = parse_args(argc, argv);
    out = perfbench::run_workload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  for (const std::string& e : out.errors) std::fprintf(stderr, "FAILED %s\n", e.c_str());

  std::string json = "{\"correct\": ";
  json += out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const perfbench::Metric& m : out.metrics) {
    std::printf("%-40s %-16s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
    json += first ? "" : ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + number(m.value) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  for (const perfbench::Metric& m : out.notes) {
    std::printf("%-40s %-16s %s (not gated)\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return out.failed == 0 ? 0 : 1;
}
