// Tests for the declarative scenario-spec layer: the minimal JSON
// parser/serialiser, spec validation, and the deterministic flow-schedule
// expansion (draw-stability under max_concurrent skips included).

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "app/spec.hpp"
#include "prop.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace.hpp"

namespace zhuge::app {
namespace {

// ---------------------------------------------------------------------------
// Json
// ---------------------------------------------------------------------------

TEST(Json, ParsesScalarsArraysObjects) {
  std::string err;
  const auto j = Json::parse(
      R"({"a": 1.5, "b": [true, null, "x\n"], "c": {"d": -3}})", &err);
  ASSERT_TRUE(j.has_value()) << err;
  EXPECT_DOUBLE_EQ(j->find("a")->number_or(0), 1.5);
  const auto& arr = j->find("b")->array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_TRUE(arr[0].bool_or(false));
  EXPECT_EQ(arr[1].kind(), Json::Kind::kNull);
  EXPECT_EQ(arr[2].string_or(""), "x\n");
  EXPECT_DOUBLE_EQ(j->find("c")->find("d")->number_or(0), -3.0);
  EXPECT_EQ(j->find("missing"), nullptr);
}

TEST(Json, RejectsMalformedInputWithLineNumbers) {
  for (const char* bad : {"{", "[1,]", "{\"a\" 1}", "tru", "\"unterminated",
                          "{\"a\":1} extra", "01", "\"\\u0041\""}) {
    std::string err;
    EXPECT_FALSE(Json::parse(bad, &err).has_value()) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
  std::string err;
  EXPECT_FALSE(Json::parse("{\n  \"a\": 1,\n  !\n}", &err).has_value());
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
}

TEST(Json, DumpParseRoundTrip) {
  Json doc = Json::make_object();
  doc.set("name", Json::make_string("round \"trip\"\n"));
  doc.set("value", Json::make_number(0.1));
  doc.set("count", Json::make_number(48));
  Json arr = Json::make_array();
  arr.push(Json::make_bool(true));
  arr.push(Json::make_number(-2.5e-9));
  doc.set("items", std::move(arr));

  for (const int indent : {0, 2}) {
    std::string err;
    const auto back = Json::parse(doc.dump(indent), &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(back->find("name")->string_or(""), "round \"trip\"\n");
    EXPECT_DOUBLE_EQ(back->find("value")->number_or(0), 0.1);
    EXPECT_DOUBLE_EQ(back->find("count")->number_or(0), 48.0);
    EXPECT_DOUBLE_EQ(back->find("items")->array()[1].number_or(0), -2.5e-9);
  }
}

TEST(Json, RandomDoublesSurviveRoundTrip) {
  prop::for_all({.iterations = 100}, [](sim::Rng& rng, int) {
    const double v = rng.uniform(-1e12, 1e12) *
                     (rng.chance(0.5) ? 1.0 : 1e-9);
    Json doc = Json::make_object();
    doc.set("v", Json::make_number(v));
    std::string err;
    const auto back = Json::parse(doc.dump(), &err);
    ASSERT_TRUE(back.has_value()) << err;
    // %.17g + from_chars must round-trip doubles bit-exactly.
    EXPECT_EQ(back->find("v")->number_or(0), v);
  });
}

// ---------------------------------------------------------------------------
// ScenarioSpec parsing
// ---------------------------------------------------------------------------

constexpr const char* kMinimalSpec = R"({
  "name": "t",
  "duration_s": 10,
  "stations": [ { "count": 3, "mcs": 5 } ],
  "flows": [ { "kind": "rtp_gcc", "station": 2, "zhuge": true } ]
})";

TEST(ScenarioSpecParse, MinimalSpec) {
  std::string err;
  const auto spec = parse_scenario_spec(kMinimalSpec, &err);
  ASSERT_TRUE(spec.has_value()) << err;
  EXPECT_EQ(spec->name, "t");
  EXPECT_EQ(spec->station_count(), 3);
  EXPECT_EQ(spec->station_group(2).mcs, 5);
  ASSERT_EQ(spec->flows.size(), 1u);
  EXPECT_EQ(spec->flows[0].kind, SpecFlowKind::kRtpGcc);
  EXPECT_TRUE(spec->flows[0].zhuge);
  EXPECT_FALSE(spec->churn.enabled);
}

TEST(ScenarioSpecParse, RejectsStructuralErrors) {
  const char* bad[] = {
      R"({"stations": []})",                                    // no stations
      R"({"stations": [{"count": 0}]})",                        // bad count
      R"({"stations": [{"mcs": 9}]})",                          // bad MCS
      R"({"stations": [{}], "flows": [{"station": 5}]})",       // OOB station
      R"({"stations": [{}], "flows": [{"kind": "quic"}]})",     // bad kind
      R"({"stations": [{"qdisc": "red"}]})",                    // bad qdisc
      R"({"stations": [{}], "ap_mode": "turbo"})",              // bad mode
      R"({"stations": [{}], "duration_s": 0})",                 // bad duration
      R"({"stations": [{}], "warmup_s": 99})",                  // warmup >= dur
      R"({"stations": [{}], "churn": {"enabled": true,
          "mix_rtp_gcc": 0, "mix_tcp_cubic": 0, "mix_tcp_bbr": 0}})",
  };
  for (const char* text : bad) {
    std::string err;
    EXPECT_FALSE(parse_scenario_spec(text, &err).has_value()) << text;
    EXPECT_FALSE(err.empty()) << text;
  }
}

TEST(ScenarioSpecParse, RejectsUnknownKeysEverywhere) {
  // Strict grammar: a typo in any section fails instead of silently
  // running a different scenario.
  const char* bad[] = {
      R"({"stations": [{}], "new_top": {}})",
      R"({"stations": [{"count": 1, "future_knob": 3}]})",
      R"({"stations": [{"fade": {"period": 2}}]})",
      R"({"stations": [{}], "flows": [{"kind": "rtp_gcc", "zhuge_on": true}]})",
      R"({"stations": [{}], "churn": {"mix_rtp": 1}})",
      R"({"stations": [{}], "faults": {"downlink_wan": {"los_prob": 0.1}}})",
      R"({"stations": [{}], "faults": {"clock_jumps": [{"at": 1}]}})",
  };
  for (const char* text : bad) {
    std::string err;
    EXPECT_FALSE(parse_scenario_spec(text, &err).has_value()) << text;
    EXPECT_NE(err.find("unknown key '"), std::string::npos) << err;
  }
}

TEST(ScenarioSpecParse, NewKeysParse) {
  std::string err;
  const auto spec = parse_scenario_spec(R"({
    "name": "keys", "duration_s": 40, "interferers": 5, "series_flow": 1,
    "zhuge_initial_ladder": "hold_only",
    "stations": [ { "count": 2, "link": "cellular", "mcs_reroll_s": 30 } ],
    "flows": [ { "kind": "tcp_copa" }, { "kind": "tcp_bulk", "start_s": 3 } ],
    "faults": {
      "downlink_wan": { "burst": { "p_enter_bad": 0.02, "p_exit_bad": 0.25,
                                   "loss_good": 0, "loss_bad": 0.5 },
                        "start_s": 10, "end_s": 13 },
      "uplink_wireless": { "blackouts": [ [ 10, 12 ] ] },
      "downlink_wireless": { "loss_prob": 0.01 },
      "uplink_wan": { "fade_delay_ms": 60, "fades": [ [ 10, 13 ] ] },
      "ap_feedback": { "dup_prob": 0.3 },
      "uplink_rtcp": { "spike_prob": 0.9, "spike_delay_ms": 120 },
      "clock_jumps": [ { "at_s": 10.5, "delta_ms": 300 } ],
      "ap_restarts": [ 11 ]
    }
  })", &err);
  ASSERT_TRUE(spec.has_value()) << err;
  EXPECT_EQ(spec->interferers, 5);
  EXPECT_EQ(spec->series_flow, 1);
  EXPECT_EQ(spec->zhuge.watchdog.initial_level, obs::LadderLevel::kHoldOnly);
  EXPECT_EQ(spec->stations[0].link, LinkKind::kCellular);
  EXPECT_DOUBLE_EQ(spec->stations[0].mcs_reroll_s, 30.0);
  EXPECT_EQ(spec->flows[0].kind, SpecFlowKind::kTcpCopa);
  EXPECT_EQ(spec->flows[1].kind, SpecFlowKind::kTcpBulk);
  ASSERT_NE(spec->faults, nullptr);
  const fault::FaultPlan& f = *spec->faults;
  EXPECT_DOUBLE_EQ(f.downlink_wan.burst.p_enter_bad, 0.02);
  EXPECT_DOUBLE_EQ(f.downlink_wan.burst.loss_bad, 0.5);
  ASSERT_EQ(f.downlink_wan.active.size(), 1u);
  EXPECT_EQ(f.downlink_wan.active[0].start,
            sim::TimePoint::zero() + sim::Duration::seconds(10));
  ASSERT_EQ(f.uplink_wireless.blackouts.size(), 1u);
  EXPECT_EQ(f.uplink_wireless.blackouts[0].end,
            sim::TimePoint::zero() + sim::Duration::seconds(12));
  EXPECT_DOUBLE_EQ(f.downlink_wireless.loss_prob, 0.01);
  EXPECT_FALSE(f.downlink_wireless.only_feedback);
  EXPECT_EQ(f.uplink_wan.fade_delay, sim::Duration::millis(60));
  EXPECT_TRUE(f.ap_feedback.only_feedback);
  EXPECT_TRUE(f.uplink_rtcp.only_feedback);
  EXPECT_EQ(f.uplink_rtcp.spike_delay, sim::Duration::millis(120));
  ASSERT_EQ(f.clock_jumps.size(), 1u);
  EXPECT_EQ(f.clock_jumps[0].delta, sim::Duration::millis(300));
  ASSERT_EQ(f.ap_restarts.size(), 1u);
  EXPECT_EQ(f.ap_restarts[0], sim::TimePoint::zero() + sim::Duration::seconds(11));
}

TEST(ScenarioSpecParse, ShippedSpecsParse) {
  // Every spec the repo ships must stay valid under the strict grammar.
  for (const char* path :
       {ZHUGE_SPEC_DIR "/basic_rtp.json", ZHUGE_SPEC_DIR "/dense_64sta_churn.json",
        ZHUGE_SPEC_DIR "/tcp_mix_fade.json",
        ZHUGE_PERFBENCH_SPEC_DIR "/dense_64sta_churn.json",
        ZHUGE_PERFBENCH_SPEC_DIR "/zhuge_feedback.json"}) {
    std::string err;
    EXPECT_TRUE(load_scenario_spec(path, &err).has_value()) << err;
  }
}

TEST(ScenarioSpecParse, TraceCsvLoadsTheStationTrace) {
  const std::string path = ::testing::TempDir() + "spec_test_trace.csv";
  trace::save_csv(trace::constant_trace(12e6, sim::Duration::seconds(5)), path);
  std::string err;
  const auto spec = parse_scenario_spec(
      R"({"stations": [{"trace_csv": ")" + path + R"("}]})", &err);
  ASSERT_TRUE(spec.has_value()) << err;
  ASSERT_NE(spec->stations[0].trace, nullptr);
  EXPECT_NEAR(spec->stations[0].trace->mean_rate_bps(), 12e6, 1e3);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// expand_flow_schedule
// ---------------------------------------------------------------------------

ScenarioSpec churn_spec() {
  ScenarioSpec spec;
  spec.duration_s = 40.0;
  spec.warmup_s = 2.0;
  spec.stations.push_back(StationGroupSpec{.count = 8});
  SpecFlow f;
  f.kind = SpecFlowKind::kTcpCubic;
  spec.flows.push_back(f);
  spec.churn.enabled = true;
  spec.churn.mean_interarrival_s = 0.5;
  spec.churn.mean_lifetime_s = 5.0;
  spec.churn.max_concurrent = 6;
  spec.churn.mix_rtp_gcc = 0.5;
  spec.churn.mix_tcp_cubic = 0.3;
  spec.churn.mix_tcp_bbr = 0.2;
  spec.churn.zhuge_fraction = 0.5;
  return spec;
}

TEST(FlowSchedule, DeterministicAndSeedSensitive) {
  const ScenarioSpec spec = churn_spec();
  const auto a = expand_flow_schedule(spec, 3);
  const auto b = expand_flow_schedule(spec, 3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].station, b[i].station);
    EXPECT_EQ(a[i].zhuge, b[i].zhuge);
    EXPECT_EQ(a[i].start_s, b[i].start_s);
    EXPECT_EQ(a[i].stop_s, b[i].stop_s);
  }
  const auto c = expand_flow_schedule(spec, 4);
  EXPECT_NE(a.size(), 1u);  // churn actually produced arrivals
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].start_s != c[i].start_s;
  }
  EXPECT_TRUE(differs) << "seed change produced an identical schedule";
}

TEST(FlowSchedule, RespectsInvariants) {
  const ScenarioSpec spec = churn_spec();
  prop::for_all({.iterations = 25}, [&spec](sim::Rng& rng, int) {
    const std::uint64_t seed = rng.next_u32();
    const auto schedule = expand_flow_schedule(spec, seed);
    ASSERT_FALSE(schedule.empty());
    std::set<std::uint32_t> indices;
    for (const auto& ev : schedule) {
      EXPECT_TRUE(indices.insert(ev.index).second) << "duplicate index";
      EXPECT_GE(ev.start_s, 0.0);
      EXPECT_GT(ev.stop_s, ev.start_s);
      EXPECT_LE(ev.stop_s, spec.duration_s);
      EXPECT_GE(ev.station, 0);
      EXPECT_LT(ev.station, spec.station_count());
      if (ev.kind != SpecFlowKind::kRtpGcc) {
        EXPECT_FALSE(ev.zhuge);
      }
    }
    // max_concurrent: at every arrival instant, the number of admitted
    // flows whose window contains it stays within the cap (+1: the
    // static flow is not subject to the churn cap).
    for (const auto& ev : schedule) {
      int live = 0;
      for (const auto& other : schedule) {
        if (other.start_s <= ev.start_s && ev.start_s < other.stop_s) ++live;
      }
      EXPECT_LE(live, spec.churn.max_concurrent + 1)
          << "cap violated at t=" << ev.start_s;
    }
  });
}

TEST(FlowSchedule, StaticFlowsComeFirstAndClampToRun) {
  ScenarioSpec spec;
  spec.duration_s = 10.0;
  spec.stations.push_back(StationGroupSpec{.count = 1});
  SpecFlow f;
  f.start_s = 2.0;
  f.stop_s = 99.0;  // clamps to duration
  spec.flows.push_back(f);
  SpecFlow g;
  g.start_s = 4.0;
  g.stop_s = 6.0;
  spec.flows.push_back(g);
  const auto schedule = expand_flow_schedule(spec, 1);
  ASSERT_EQ(schedule.size(), 2u);
  EXPECT_EQ(schedule[0].index, 0u);
  EXPECT_DOUBLE_EQ(schedule[0].start_s, 2.0);
  EXPECT_DOUBLE_EQ(schedule[0].stop_s, 10.0);
  EXPECT_DOUBLE_EQ(schedule[1].stop_s, 6.0);
}

// ---------------------------------------------------------------------------
// Known-bad fixtures: one file per strict-validation rejection path
// ---------------------------------------------------------------------------

// The whole grammar is validated strictly (a typo would silently run a
// different scenario — for a fault section, a *clean* one claiming chaos
// coverage), so every rejection path gets a checked-in fixture pinning
// both the message and the "line N:" source anchor a user needs to find
// the mistake.
TEST(ScenarioSpecParse, KnownBadFixturesRejectWithLineNumbers) {
  struct Case {
    const char* file;
    const char* expect;  ///< full parse error, line prefix included
  };
  const Case cases[] = {
      {"unknown_top_key.json", "line 5: unknown key 'warmup' in spec"},
      {"unknown_station_key.json",
       "line 6: unknown key 'queue_limit' in stations[]"},
      {"unknown_fade_key.json",
       "line 6: unknown key 'depth' in stations[].fade"},
      {"unknown_flow_key.json", "line 7: unknown key 'stop' in flows[]"},
      {"unknown_churn_key.json",
       "line 7: unknown key 'mean_interarrival' in churn"},
      {"unknown_burst_key.json",
       "line 7: unknown key 'p_exit' in faults.downlink_wan.burst"},
      {"fault_unknown_key.json",
       "line 6: unknown key 'los_prob' in faults.ap_feedback"},
      {"fault_value_not_number.json",
       "line 6: faults.ap_feedback: \"loss_prob\" must be a number"},
      {"fault_prob_out_of_range.json",
       "line 6: faults.uplink_rtcp: \"loss_prob\" must be in [0, 1]"},
      {"fault_negative_delay.json",
       "line 6: faults.ap_feedback: \"spike_delay_ms\" must be >= 0"},
      {"fault_negative_start.json",
       "line 6: faults.uplink_rtcp: \"start_s\" must be >= 0"},
      {"fault_window_inverted.json",
       "line 6: faults.uplink_rtcp: \"end_s\" must be > start_s"},
      {"fault_blackout_inverted.json",
       "line 7: faults.downlink_wireless: \"blackouts\" must be a list of "
       "[start_s, end_s] pairs with 0 <= start_s < end_s"},
      {"fault_unknown_boundary.json",
       "line 6: unknown key 'client_rtcp' in faults"},
      {"fault_section_not_object.json",
       "line 5: \"faults\" must be an object"},
      {"fault_boundary_not_object.json",
       "line 6: faults.ap_feedback: must be an object"},
      {"ladder_unknown_level.json",
       "line 5: zhuge_initial_ladder must be "
       "full|clamped_predict|hold_only|pass_through"},
      {"bad_link.json", "line 4: stations[].link must be wifi|cellular"},
      {"series_flow_out_of_range.json",
       "line 6: series_flow must be -1 or the index of a flows[] entry"},
      {"station_csv_missing.json",
       "line 5: stations[].trace_csv: trace: cannot open no/such/trace.csv"},
      {"wrong_type_mcs.json", "line 4: key 'mcs' in stations[] must be a number"},
      {"wrong_type_zhuge.json", "line 7: key 'zhuge' in flows[] must be a boolean"},
  };
  for (const auto& c : cases) {
    const std::string path =
        std::string(ZHUGE_SPEC_FIXTURE_DIR) + "/" + c.file;
    std::string err;
    const auto spec = load_scenario_spec(path, &err);
    EXPECT_FALSE(spec.has_value()) << c.file;
    // load_scenario_spec prefixes the path; the rest must match exactly.
    EXPECT_EQ(err, path + ": " + c.expect) << c.file;
  }
}

}  // namespace
}  // namespace zhuge::app
