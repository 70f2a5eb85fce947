#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <unordered_map>

namespace perfbench {

void Outcome::fail(const std::string& what) {
  ++failed;
  if (errors.size() < 16) errors.push_back(what);
}

void Outcome::add(const std::string& name, double value, const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void Outcome::note(const std::string& name, double value, const std::string& unit) {
  notes.push_back({name, value, unit});
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

std::vector<std::uint64_t> derive_seeds(std::uint64_t seed, int n) {
  std::vector<std::uint64_t> out;
  for (int i = 0; i < n; ++i) {
    // splitmix64: the simulator's PCG32 streams seeded with consecutive
    // integers gave visibly correlated runs, so the seeds are scattered.
    std::uint64_t z = seed * 1000 + static_cast<std::uint64_t>(i) + 1 + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    out.push_back((z ^ (z >> 31)) >> 16);
  }
  return out;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {
volatile double g_reference_sink = 0.0;
}  // namespace

double reference_kernel_s() {
  struct Packet {
    std::uint64_t id;
    std::uint32_t size;
    double sent;
    std::vector<std::uint8_t> header;
  };
  struct Event {
    double t;
    std::uint64_t seq;
    std::function<void()> fire;
  };
  const auto later = [](const Event& a, const Event& b) {
    return a.t > b.t || (a.t == b.t && a.seq > b.seq);
  };

  const auto t0 = Clock::now();
  std::uint64_t x = 0x243f6a8885a308d3ULL;  // xorshift64, fixed start
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::priority_queue<Event, std::vector<Event>, decltype(later)> events(later);
  std::vector<std::deque<std::unique_ptr<Packet>>> queues(64);
  std::unordered_map<std::uint64_t, double> delay;
  double now = 0.0;
  double bytes = 0.0;
  std::uint64_t seq = 0;
  // Each arrival queues a packet, schedules its departure within 500 us
  // and the flow's next arrival within 400 us.
  std::function<void(std::size_t)> arrive = [&](std::size_t f) {
    auto p = std::make_unique<Packet>();
    p->id = seq;
    p->size = static_cast<std::uint32_t>(64 + next() % 1400);
    p->sent = now;
    p->header.resize(16 + next() % 48);
    queues[f].push_back(std::move(p));
    events.push({now + static_cast<double>(1 + next() % 500) * 1e-6, seq++, [&, f] {
                   auto& q = queues[f];
                   if (q.empty()) return;
                   delay[q.front()->id % 8192] += now - q.front()->sent;
                   bytes += q.front()->size;
                   q.pop_front();
                 }});
    events.push({now + static_cast<double>(1 + next() % 400) * 1e-6, seq++,
                 [&arrive, f] { arrive(f); }});
  };
  for (std::size_t f = 0; f < queues.size(); ++f) arrive(f);
  for (int i = 0; i < 60000; ++i) {
    const Event e = events.top();
    events.pop();
    now = e.t;
    e.fire();
  }
  g_reference_sink = bytes;
  return seconds_since(t0);
}

double RefClock::to_refs(double wall_s) {
  const double now_s = reference_kernel_s();
  const double refs = wall_s / (0.5 * (last_s_ + now_s));
  last_s_ = now_s;
  probes_s_.push_back(now_s);
  return refs;
}

unsigned pool_threads() {
  return std::clamp(std::thread::hardware_concurrency() / 2, 1u, 4u);
}

}  // namespace perfbench
