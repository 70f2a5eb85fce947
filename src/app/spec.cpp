#include "app/spec.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <sstream>

#include "obs/slo.hpp"
#include "sim/random.hpp"
#include "sim/substreams.hpp"
#include "trace/trace.hpp"

namespace zhuge::app {

// ---------------------------------------------------------------------------
// Json
// ---------------------------------------------------------------------------

Json Json::make_bool(bool b) {
  Json j;
  j.kind_ = Kind::kBool;
  j.b_ = b;
  return j;
}

Json Json::make_number(double v) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.num_ = v;
  return j;
}

Json Json::make_string(std::string s) {
  Json j;
  j.kind_ = Kind::kString;
  j.str_ = std::move(s);
  return j;
}

Json Json::make_array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::make_object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = obj_.find(key);
  return it == obj_.end() ? nullptr : &it->second;
}

Json& Json::set(const std::string& key, Json v) {
  kind_ = Kind::kObject;
  obj_[key] = std::move(v);
  return *this;
}

Json& Json::push(Json v) {
  kind_ = Kind::kArray;
  arr_.push_back(std::move(v));
  return *this;
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  // %.17g round-trips every finite double; integers print without a dot.
  char buf[32];
  // zlint-allow(float-equality): exact test for "is an integer value" —
  // the round-trip cast is the idiomatic way to pick the %lld rendering.
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  out += buf;
}

void append_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull: out += "null"; return;
    case Kind::kBool: out += b_ ? "true" : "false"; return;
    case Kind::kNumber: append_number(out, num_); return;
    case Kind::kString: append_escaped(out, str_); return;
    case Kind::kArray: {
      out += '[';
      bool first = true;
      for (const auto& v : arr_) {
        if (!first) out += indent > 0 ? "," : ", ";
        first = false;
        append_indent(out, indent, depth + 1);
        v.dump_to(out, indent, depth + 1);
      }
      if (!arr_.empty()) append_indent(out, indent, depth);
      out += ']';
      return;
    }
    case Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out += indent > 0 ? "," : ", ";
        first = false;
        append_indent(out, indent, depth + 1);
        append_escaped(out, k);
        out += ": ";
        v.dump_to(out, indent, depth + 1);
      }
      if (!obj_.empty()) append_indent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  if (indent > 0) out += '\n';
  return out;
}

namespace {

/// Recursive-descent parser over the JSON subset. Tracks line numbers for
/// the same path:line diagnostics the trace readers emit.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<Json> run(std::string* err) {
    std::optional<Json> v = parse_value();
    if (v.has_value()) {
      skip_ws();
      if (pos_ != text_.size()) {
        fail("trailing content after document");
        v.reset();
      }
    }
    if (!v.has_value() && err != nullptr) *err = error_;
    return v;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  std::string error_;

  void fail(const std::string& msg) {
    if (error_.empty()) {
      error_ = "line " + std::to_string(line_) + ": " + msg;
    }
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') ++line_;
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool consume(char expected) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::optional<Json> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    // Stamp the line the value starts on: spec validation reuses it for
    // "line N:" diagnostics on *semantic* errors (unknown key, range).
    const int at = line_;
    std::optional<Json> v = parse_value_here();
    if (v.has_value()) v->set_line(at);
    return v;
  }

  std::optional<Json> parse_value_here() {
    const char c = text_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      auto s = parse_string();
      if (!s.has_value()) return std::nullopt;
      return Json::make_string(std::move(*s));
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return Json{};
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return Json::make_bool(true);
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return Json::make_bool(false);
    }
    return parse_number();
  }

  std::optional<Json> parse_number() {
    // JSON grammar checks from_chars is laxer about: the integer part is
    // mandatory (no ".5"), and a leading zero may not be followed by
    // another digit (no "01").
    std::size_t p = pos_;
    if (p < text_.size() && text_[p] == '-') ++p;
    const auto is_digit = [this](std::size_t i) {
      return i < text_.size() && text_[i] >= '0' && text_[i] <= '9';
    };
    if (!is_digit(p) || (text_[p] == '0' && is_digit(p + 1))) {
      fail("invalid value");
      return std::nullopt;
    }
    const char* begin = text_.data() + pos_;
    const char* end = text_.data() + text_.size();
    double v = 0.0;
    // from_chars: locale-independent, exact round-trip.
    const auto [ptr, ec] = std::from_chars(begin, end, v);
    if (ec != std::errc{} || ptr == begin) {
      fail("invalid value");
      return std::nullopt;
    }
    pos_ += static_cast<std::size_t>(ptr - begin);
    return Json::make_number(v);
  }

  std::optional<std::string> parse_string() {
    if (!consume('"')) {
      fail("expected string");
      return std::nullopt;
    }
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\n') {
        fail("unterminated string");
        return std::nullopt;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        default:
          fail(std::string("unsupported escape \\") + esc);
          return std::nullopt;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<Json> parse_array() {
    consume('[');
    Json arr = Json::make_array();
    skip_ws();
    if (consume(']')) return arr;
    while (true) {
      auto v = parse_value();
      if (!v.has_value()) return std::nullopt;
      arr.push(std::move(*v));
      if (consume(',')) continue;
      if (consume(']')) return arr;
      fail("expected ',' or ']' in array");
      return std::nullopt;
    }
  }

  std::optional<Json> parse_object() {
    consume('{');
    Json obj = Json::make_object();
    skip_ws();
    if (consume('}')) return obj;
    while (true) {
      skip_ws();
      auto key = parse_string();
      if (!key.has_value()) return std::nullopt;
      if (!consume(':')) {
        fail("expected ':' after object key");
        return std::nullopt;
      }
      auto v = parse_value();
      if (!v.has_value()) return std::nullopt;
      obj.set(std::move(*key), std::move(*v));
      if (consume(',')) continue;
      if (consume('}')) return obj;
      fail("expected ',' or '}' in object");
      return std::nullopt;
    }
  }
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text, std::string* err) {
  return JsonParser(text).run(err);
}

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

const char* to_string(SpecFlowKind kind) {
  switch (kind) {
    case SpecFlowKind::kRtpGcc: return "rtp_gcc";
    case SpecFlowKind::kTcpCubic: return "tcp_cubic";
    case SpecFlowKind::kTcpBbr: return "tcp_bbr";
    case SpecFlowKind::kTcpAbc: return "tcp_abc";
    case SpecFlowKind::kTcpCopa: return "tcp_copa";
    case SpecFlowKind::kTcpBulk: return "tcp_bulk";
  }
  return "?";
}

int ScenarioSpec::station_count() const {
  int n = 0;
  for (const auto& g : stations) n += g.count;
  return n;
}

const StationGroupSpec& ScenarioSpec::station_group(int station) const {
  for (const auto& g : stations) {
    if (station < g.count) return g;
    station -= g.count;
  }
  return stations.back();
}

namespace {

bool parse_flow_kind(const std::string& s, SpecFlowKind& out) {
  if (s == "rtp_gcc") out = SpecFlowKind::kRtpGcc;
  else if (s == "tcp_cubic") out = SpecFlowKind::kTcpCubic;
  else if (s == "tcp_bbr") out = SpecFlowKind::kTcpBbr;
  else if (s == "tcp_abc") out = SpecFlowKind::kTcpAbc;
  else if (s == "tcp_copa") out = SpecFlowKind::kTcpCopa;
  else if (s == "tcp_bulk") out = SpecFlowKind::kTcpBulk;
  else return false;
  return true;
}

bool parse_qdisc_kind(const std::string& s, QdiscKind& out) {
  if (s == "fifo") out = QdiscKind::kFifo;
  else if (s == "codel") out = QdiscKind::kCoDel;
  else if (s == "fq_codel") out = QdiscKind::kFqCoDel;
  else return false;
  return true;
}

bool parse_link_kind(const std::string& s, LinkKind& out) {
  if (s == "wifi") out = LinkKind::kWifi;
  else if (s == "cellular") out = LinkKind::kCellular;
  else return false;
  return true;
}

bool parse_ap_mode(const std::string& s, ApMode& out) {
  if (s == "none") out = ApMode::kNone;
  else if (s == "zhuge") out = ApMode::kZhuge;
  else if (s == "fastack") out = ApMode::kFastAck;
  else if (s == "abc") out = ApMode::kAbc;  // pair with tcp_abc flows
  else return false;
  return true;
}

}  // namespace

bool parse_trace_class(const std::string& s, trace::TraceKind& out) {
  static constexpr trace::TraceKind kAll[] = {
      trace::TraceKind::kRestaurantWifi, trace::TraceKind::kOfficeWifi,
      trace::TraceKind::kIndoorMixed45G, trace::TraceKind::kCity4G,
      trace::TraceKind::kCity5G,         trace::TraceKind::kEthernet,
      trace::TraceKind::kLegacyCellular};
  for (const trace::TraceKind k : kAll) {
    if (s == trace::short_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

namespace {

// Value of an optional key, or `fallback` when it is absent. Sections check
// their values' types first (known_fields), so the fallback never stands in
// for a value of the wrong type.
double num_field(const Json& obj, const char* key, double fallback) {
  const Json* v = obj.find(key);
  return v != nullptr ? v->number_or(fallback) : fallback;
}

bool bool_field(const Json& obj, const char* key, bool fallback) {
  const Json* v = obj.find(key);
  return v != nullptr ? v->bool_or(fallback) : fallback;
}

std::string str_field(const Json& obj, const char* key, std::string fallback) {
  const Json* v = obj.find(key);
  return v != nullptr ? v->string_or(std::move(fallback)) : fallback;
}

/// "line N: " prefix from a value's recorded source line (empty for built
/// documents, which carry line 0).
std::string at_line(const Json& v) {
  return v.line() > 0 ? "line " + std::to_string(v.line()) + ": " : "";
}

/// Strict key check shared by every spec section: the first key of `obj`
/// not in `known` fails with "line N: unknown key '<k>' in <section>".
bool known_keys(const Json& obj, std::initializer_list<std::string_view> known,
                const std::string& section, std::string* err) {
  for (const auto& [key, value] : obj.object()) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      if (err != nullptr) {
        *err = at_line(value) + "unknown key '" + key + "' in " + section;
      }
      return false;
    }
  }
  return true;
}

/// A known key of a spec section and the JSON type its value must have.
/// kSection marks a nested section, which is checked on its own (with its
/// own "must be an object/array" diagnostic).
struct Field {
  std::string_view key;
  Json::Kind kind;
};
constexpr Json::Kind kSection = Json::Kind::kNull;

const char* kind_name(Json::Kind kind) {
  switch (kind) {
    case Json::Kind::kBool: return "a boolean";
    case Json::Kind::kNumber: return "a number";
    case Json::Kind::kString: return "a string";
    case Json::Kind::kArray: return "an array";
    case Json::Kind::kObject: return "an object";
    case Json::Kind::kNull: break;
  }
  return "null";
}

/// known_keys() plus a type check, so a value of the wrong type fails with
/// "line N: key '<k>' in <section> must be a <type>" instead of silently
/// falling back to the key's default ("mcs": "3" running MCS 7).
bool known_fields(const Json& obj, std::initializer_list<Field> known,
                  const std::string& section, std::string* err) {
  for (const auto& [key, value] : obj.object()) {
    const auto it = std::find_if(known.begin(), known.end(),
                                 [&](const Field& f) { return f.key == key; });
    if (it == known.end()) {
      if (err != nullptr) {
        *err = at_line(value) + "unknown key '" + key + "' in " + section;
      }
      return false;
    }
    if (it->kind != kSection && value.kind() != it->kind) {
      if (err != nullptr) {
        *err = at_line(value) + "key '" + key + "' in " + section + " must be " +
               kind_name(it->kind);
      }
      return false;
    }
  }
  return true;
}

sim::TimePoint at_seconds(double seconds) {
  return sim::TimePoint::zero() + sim::Duration::from_seconds(seconds);
}

/// One strictly validated fault boundary ("faults.<boundary>"): every key
/// must be known and every value in range, with the offending value's
/// source line in the diagnostic — a typo here would silently run a
/// *clean* scenario while claiming chaos coverage.
bool parse_injector(const Json& obj, const std::string& path, double duration_s,
                    fault::InjectorConfig& out, std::string* err) {
  const auto fail = [&](const Json& v, const std::string& msg) {
    if (err != nullptr) *err = at_line(v) + path + ": " + msg;
    return false;
  };
  if (!obj.is_object()) return fail(obj, "must be an object");
  if (!known_keys(obj,
                  {"loss_prob", "dup_prob", "reorder_prob", "reorder_delay_ms",
                   "spike_prob", "spike_delay_ms", "start_s", "end_s", "burst",
                   "blackouts", "fade_delay_ms", "fades"},
                  path, err)) {
    return false;
  }
  for (const auto& [key, value] : obj.object()) {
    const bool structured = key == "burst" || key == "blackouts" || key == "fades";
    if (!structured && value.kind() != Json::Kind::kNumber) {
      return fail(value, "\"" + key + "\" must be a number");
    }
  }

  const auto prob = [&](const Json& o, const char* key, double& dst) {
    const Json* v = o.find(key);
    if (v == nullptr) return true;
    dst = v->number_or(-1.0);
    if (dst < 0.0 || dst > 1.0) {
      return fail(*v, std::string("\"") + key + "\" must be in [0, 1]");
    }
    return true;
  };
  const auto delay = [&](const char* key, sim::Duration& dst) {
    const Json* v = obj.find(key);
    if (v == nullptr) return true;
    const double ms = v->number_or(0.0);
    if (ms < 0.0) {
      return fail(*v, std::string("\"") + key + "\" must be >= 0");
    }
    dst = sim::Duration::from_seconds(ms / 1e3);
    return true;
  };
  /// [[start_s, end_s], ...] -> absolute windows.
  const auto windows = [&](const char* key, std::vector<fault::Window>& dst) {
    const Json* v = obj.find(key);
    if (v == nullptr) return true;
    const std::string what = std::string("\"") + key +
                             "\" must be a list of [start_s, end_s] pairs";
    if (!v->is_array()) return fail(*v, what);
    for (const Json& w : v->array()) {
      if (!w.is_array() || w.array().size() != 2 ||
          w.array()[0].kind() != Json::Kind::kNumber ||
          w.array()[1].kind() != Json::Kind::kNumber) {
        return fail(w, what);
      }
      const double a = w.array()[0].number_or(0.0);
      const double b = w.array()[1].number_or(0.0);
      if (a < 0.0 || b <= a) return fail(w, what + " with 0 <= start_s < end_s");
      dst.push_back(fault::Window{at_seconds(a), at_seconds(b)});
    }
    return true;
  };

  if (!prob(obj, "loss_prob", out.loss_prob)) return false;
  if (!prob(obj, "dup_prob", out.dup_prob)) return false;
  if (!prob(obj, "reorder_prob", out.reorder_prob)) return false;
  if (!prob(obj, "spike_prob", out.spike_prob)) return false;
  if (!delay("reorder_delay_ms", out.reorder_delay)) return false;
  if (!delay("spike_delay_ms", out.spike_delay)) return false;
  if (!delay("fade_delay_ms", out.fade_delay)) return false;
  if (!windows("blackouts", out.blackouts)) return false;
  if (!windows("fades", out.fades)) return false;

  if (const Json* b = obj.find("burst"); b != nullptr) {
    const std::string bpath = path + ".burst";
    if (!b->is_object()) {
      if (err != nullptr) *err = at_line(*b) + bpath + ": must be an object";
      return false;
    }
    if (!known_keys(*b, {"p_enter_bad", "p_exit_bad", "loss_good", "loss_bad"},
                    bpath, err)) {
      return false;
    }
    if (!prob(*b, "p_enter_bad", out.burst.p_enter_bad) ||
        !prob(*b, "p_exit_bad", out.burst.p_exit_bad) ||
        !prob(*b, "loss_good", out.burst.loss_good) ||
        !prob(*b, "loss_bad", out.burst.loss_bad)) {
      return false;
    }
  }

  // Optional active window [start_s, end_s) for the probabilistic faults;
  // defaults span the whole run. Only materialised when at least one bound
  // is given, so an unwindowed section keeps InjectorConfig::active empty
  // (always-on semantics).
  const Json* start_j = obj.find("start_s");
  const Json* end_j = obj.find("end_s");
  if (start_j != nullptr || end_j != nullptr) {
    const double start_s = start_j != nullptr ? start_j->number_or(0.0) : 0.0;
    const double end_s = end_j != nullptr ? end_j->number_or(0.0) : duration_s;
    if (start_s < 0.0) {
      return fail(*start_j, "\"start_s\" must be >= 0");
    }
    if (end_s <= start_s) {
      return fail(end_j != nullptr ? *end_j : *start_j,
                  "\"end_s\" must be > start_s");
    }
    out.active = {fault::Window{at_seconds(start_s), at_seconds(end_s)}};
  }
  return true;
}

/// The "faults" section: six injector boundaries plus scheduled AP clock
/// jumps ([{"at_s", "delta_ms"}, ...]) and optimiser restarts ([at_s, ...]).
bool parse_faults(const Json& obj, double duration_s, fault::FaultPlan& out,
                  std::string* err) {
  const auto fail = [&](const Json& v, const std::string& msg) {
    if (err != nullptr) *err = at_line(v) + "faults: " + msg;
    return false;
  };
  if (!obj.is_object()) {
    if (err != nullptr) *err = at_line(obj) + "\"faults\" must be an object";
    return false;
  }
  if (!known_keys(obj,
                  {"downlink_wan", "uplink_wireless", "downlink_wireless",
                   "uplink_wan", "ap_feedback", "uplink_rtcp", "clock_jumps",
                   "ap_restarts"},
                  "faults", err)) {
    return false;
  }
  const std::pair<const char*, fault::InjectorConfig*> boundaries[] = {
      {"downlink_wan", &out.downlink_wan},
      {"uplink_wireless", &out.uplink_wireless},
      {"downlink_wireless", &out.downlink_wireless},
      {"uplink_wan", &out.uplink_wan},
      {"ap_feedback", &out.ap_feedback},
      {"uplink_rtcp", &out.uplink_rtcp}};
  for (const auto& [key, cfg] : boundaries) {
    if (const Json* b = obj.find(key); b != nullptr) {
      if (!parse_injector(*b, std::string("faults.") + key, duration_s, *cfg,
                          err)) {
        return false;
      }
    }
  }
  // The control-loop boundaries only ever see feedback; the engine forces
  // this again when it builds the injectors.
  out.ap_feedback.only_feedback = true;
  out.uplink_rtcp.only_feedback = true;

  if (const Json* jumps = obj.find("clock_jumps"); jumps != nullptr) {
    if (!jumps->is_array()) return fail(*jumps, "\"clock_jumps\" must be an array");
    for (const Json& j : jumps->array()) {
      if (!j.is_object()) return fail(j, "clock_jumps[] must be objects");
      if (!known_fields(j, {{"at_s", Json::Kind::kNumber}, {"delta_ms", Json::Kind::kNumber}},
                        "faults.clock_jumps[]", err)) {
        return false;
      }
      const double at = num_field(j, "at_s", -1.0);
      if (at < 0.0) return fail(j, "clock_jumps[].at_s must be >= 0");
      out.clock_jumps.push_back(fault::ClockJump{
          at_seconds(at),
          sim::Duration::from_seconds(num_field(j, "delta_ms", 0.0) / 1e3)});
    }
  }
  if (const Json* restarts = obj.find("ap_restarts"); restarts != nullptr) {
    if (!restarts->is_array()) {
      return fail(*restarts, "\"ap_restarts\" must be an array of times (s)");
    }
    for (const Json& r : restarts->array()) {
      if (r.kind() != Json::Kind::kNumber || r.number_or(-1.0) < 0.0) {
        return fail(r, "ap_restarts[] must be times >= 0 (s)");
      }
      out.ap_restarts.push_back(at_seconds(r.number_or(0.0)));
    }
  }
  return true;
}

}  // namespace

std::optional<ScenarioSpec> parse_scenario_spec(std::string_view text,
                                                std::string* err) {
  auto fail = [err](const std::string& msg) -> std::optional<ScenarioSpec> {
    if (err != nullptr) *err = msg;
    return std::nullopt;
  };
  std::string kerr;
  const auto strict = [&kerr](const Json& obj, std::initializer_list<Field> known,
                              const char* section) {
    if (!obj.is_object()) {
      kerr = at_line(obj) + section + " must be an object";
      return false;
    }
    return known_fields(obj, known, section, &kerr);
  };
  constexpr Json::Kind kNum = Json::Kind::kNumber;
  constexpr Json::Kind kStr = Json::Kind::kString;
  constexpr Json::Kind kBool = Json::Kind::kBool;

  std::string jerr;
  const auto doc = Json::parse(text, &jerr);
  if (!doc.has_value()) return fail(jerr);
  if (!doc->is_object()) return fail("spec must be a JSON object");
  if (!strict(*doc,
              {{"name", kStr}, {"duration_s", kNum}, {"warmup_s", kNum},
               {"seed", kNum}, {"ap_mode", kStr}, {"wan_one_way_ms", kNum},
               {"wan_rate_mbps", kNum}, {"interferers", kNum},
               {"stations", kSection}, {"flows", kSection}, {"churn", kSection},
               {"faults", kSection}, {"series_flow", kNum},
               {"zhuge_initial_ladder", kStr}},
              "spec")) {
    return fail(kerr);
  }

  ScenarioSpec spec;
  spec.name = str_field(*doc, "name", spec.name);
  spec.duration_s = num_field(*doc, "duration_s", spec.duration_s);
  spec.warmup_s = num_field(*doc, "warmup_s", spec.warmup_s);
  spec.seed = static_cast<std::uint64_t>(
      num_field(*doc, "seed", static_cast<double>(spec.seed)));
  if (spec.duration_s <= 0) return fail("duration_s must be > 0");
  if (spec.warmup_s < 0 || spec.warmup_s >= spec.duration_s) {
    return fail("warmup_s must be in [0, duration_s)");
  }

  if (!parse_ap_mode(str_field(*doc, "ap_mode", "zhuge"), spec.ap_mode)) {
    return fail("ap_mode must be none|zhuge|fastack|abc");
  }
  spec.wan_one_way_ms = num_field(*doc, "wan_one_way_ms", spec.wan_one_way_ms);
  spec.wan_rate_mbps = num_field(*doc, "wan_rate_mbps", spec.wan_rate_mbps);
  if (spec.wan_one_way_ms < 0 || spec.wan_rate_mbps <= 0) {
    return fail("wan_one_way_ms must be >= 0 and wan_rate_mbps > 0");
  }
  spec.interferers = static_cast<int>(num_field(*doc, "interferers", 0));
  if (spec.interferers < 0) return fail("interferers must be >= 0");

  const Json* stations = doc->find("stations");
  if (stations == nullptr || !stations->is_array() ||
      stations->array().empty()) {
    return fail("spec needs a non-empty \"stations\" array");
  }
  for (const auto& sj : stations->array()) {
    if (!strict(sj,
                {{"count", kNum}, {"mcs", kNum}, {"qdisc", kStr},
                 {"queue_limit_pkts", kNum}, {"leave_s", kNum}, {"trace", kStr},
                 {"trace_csv", kStr}, {"link", kStr}, {"mcs_reroll_s", kNum},
                 {"fade", kSection}},
                "stations[]")) {
      return fail(kerr);
    }
    StationGroupSpec g;
    g.count = static_cast<int>(num_field(sj, "count", 1));
    g.mcs = static_cast<int>(num_field(sj, "mcs", 7));
    if (g.count < 1) return fail("stations[].count must be >= 1");
    if (g.mcs < 0 || g.mcs > 7) return fail("stations[].mcs must be 0..7");
    if (!parse_qdisc_kind(str_field(sj, "qdisc", "fifo"), g.qdisc)) {
      return fail("stations[].qdisc must be fifo|codel|fq_codel");
    }
    if (const Json* link = sj.find("link");
        link != nullptr && !parse_link_kind(link->string_or(""), g.link)) {
      return fail(at_line(*link) + "stations[].link must be wifi|cellular");
    }
    g.queue_limit_bytes = static_cast<std::int64_t>(
        num_field(sj, "queue_limit_pkts", 300.0) * 1500.0);
    g.leave_s = num_field(sj, "leave_s", -1.0);
    g.mcs_reroll_s = num_field(sj, "mcs_reroll_s", 0.0);
    if (g.mcs_reroll_s < 0) return fail("stations[].mcs_reroll_s must be >= 0");
    const Json* tc = sj.find("trace");
    const Json* csv = sj.find("trace_csv");
    if (tc != nullptr && csv != nullptr) {
      return fail(at_line(*csv) +
                  "stations[]: \"trace\" and \"trace_csv\" are exclusive");
    }
    if (tc != nullptr) {
      trace::TraceKind kind{};
      if (!parse_trace_class(tc->string_or(""), kind)) {
        return fail(at_line(*tc) +
                    "stations[].trace must be W1|W2|C1|C2|C3|ETH|ABC");
      }
      g.trace_class = kind;
    }
    if (csv != nullptr) {
      const std::string path = csv->string_or("");
      try {
        g.trace = std::make_shared<const trace::Trace>(trace::load_csv(path, path));
      } catch (const std::exception& e) {
        return fail(at_line(*csv) + "stations[].trace_csv: " + e.what());
      }
    }
    if (const Json* fade = sj.find("fade"); fade != nullptr) {
      if (!strict(*fade, {{"period_s", kNum}, {"depth_mcs", kNum}, {"duty", kNum}},
                  "stations[].fade")) {
        return fail(kerr);
      }
      g.fade.period_s = num_field(*fade, "period_s", 0.0);
      g.fade.depth_mcs = static_cast<int>(num_field(*fade, "depth_mcs", 0));
      g.fade.duty = num_field(*fade, "duty", 0.5);
      if (g.fade.period_s < 0 || g.fade.duty < 0 || g.fade.duty > 1) {
        return fail("stations[].fade: period_s >= 0, duty in [0,1]");
      }
    }
    spec.stations.push_back(std::move(g));
  }
  const int n_stations = spec.station_count();

  if (const Json* flows = doc->find("flows"); flows != nullptr) {
    if (!flows->is_array()) return fail("\"flows\" must be an array");
    for (const auto& fj : flows->array()) {
      if (!strict(fj,
                  {{"kind", kStr}, {"station", kNum}, {"zhuge", kBool},
                   {"start_s", kNum}, {"stop_s", kNum},
                   {"max_bitrate_mbps", kNum}, {"fps", kNum}},
                  "flows[]")) {
        return fail(kerr);
      }
      SpecFlow f;
      if (!parse_flow_kind(str_field(fj, "kind", "rtp_gcc"), f.kind)) {
        return fail(
            "flows[].kind must be "
            "rtp_gcc|tcp_cubic|tcp_bbr|tcp_copa|tcp_abc|tcp_bulk");
      }
      f.station = static_cast<int>(num_field(fj, "station", 0));
      if (f.station < 0 || f.station >= n_stations) {
        return fail("flows[].station out of range");
      }
      f.zhuge = bool_field(fj, "zhuge", false);
      f.start_s = num_field(fj, "start_s", 0.0);
      f.stop_s = num_field(fj, "stop_s", -1.0);
      f.max_bitrate_mbps = num_field(fj, "max_bitrate_mbps", 2.5);
      f.fps = num_field(fj, "fps", 30.0);
      spec.flows.push_back(f);
    }
  }

  if (const Json* churn = doc->find("churn"); churn != nullptr) {
    if (!strict(*churn,
                {{"enabled", kBool}, {"mean_interarrival_s", kNum},
                 {"mean_lifetime_s", kNum}, {"max_lifetime_s", kNum},
                 {"max_concurrent", kNum}, {"mix_rtp_gcc", kNum},
                 {"mix_tcp_cubic", kNum}, {"mix_tcp_bbr", kNum},
                 {"zhuge_fraction", kNum}, {"start_s", kNum}, {"stop_s", kNum},
                 {"max_bitrate_mbps", kNum}, {"fps", kNum}},
                "churn")) {
      return fail(kerr);
    }
    ChurnSpec& c = spec.churn;
    c.enabled = bool_field(*churn, "enabled", true);
    c.mean_interarrival_s =
        num_field(*churn, "mean_interarrival_s", c.mean_interarrival_s);
    c.mean_lifetime_s = num_field(*churn, "mean_lifetime_s", c.mean_lifetime_s);
    c.max_lifetime_s = num_field(*churn, "max_lifetime_s", c.max_lifetime_s);
    c.max_concurrent =
        static_cast<int>(num_field(*churn, "max_concurrent", c.max_concurrent));
    if (c.mean_interarrival_s <= 0 || c.mean_lifetime_s <= 0 ||
        c.max_concurrent < 1) {
      return fail("churn: interarrival/lifetime > 0, max_concurrent >= 1");
    }
    c.mix_rtp_gcc = num_field(*churn, "mix_rtp_gcc", c.mix_rtp_gcc);
    c.mix_tcp_cubic = num_field(*churn, "mix_tcp_cubic", c.mix_tcp_cubic);
    c.mix_tcp_bbr = num_field(*churn, "mix_tcp_bbr", c.mix_tcp_bbr);
    if (c.mix_rtp_gcc < 0 || c.mix_tcp_cubic < 0 || c.mix_tcp_bbr < 0 ||
        c.mix_rtp_gcc + c.mix_tcp_cubic + c.mix_tcp_bbr <= 0) {
      return fail("churn mix_* weights must be >= 0 and sum to > 0");
    }
    c.zhuge_fraction = num_field(*churn, "zhuge_fraction", c.zhuge_fraction);
    c.start_s = num_field(*churn, "start_s", 0.0);
    c.stop_s = num_field(*churn, "stop_s", -1.0);
    c.max_bitrate_mbps = num_field(*churn, "max_bitrate_mbps", 2.5);
    c.fps = num_field(*churn, "fps", 30.0);
  }

  if (const Json* sf = doc->find("series_flow"); sf != nullptr) {
    spec.series_flow = static_cast<int>(sf->number_or(-2.0));
    if (spec.series_flow < -1 ||
        spec.series_flow >= static_cast<int>(spec.flows.size())) {
      return fail(at_line(*sf) +
                  "series_flow must be -1 or the index of a flows[] entry");
    }
  }

  if (const Json* ladder = doc->find("zhuge_initial_ladder");
      ladder != nullptr) {
    const std::string name = ladder->string_or("");
    if (!obs::parse_ladder_level(name, &spec.zhuge.watchdog.initial_level)) {
      return fail(at_line(*ladder) +
                  "zhuge_initial_ladder must be "
                  "full|clamped_predict|hold_only|pass_through");
    }
  }

  if (const Json* faults = doc->find("faults"); faults != nullptr) {
    fault::FaultPlan plan;
    std::string ferr;
    if (!parse_faults(*faults, spec.duration_s, plan, &ferr)) return fail(ferr);
    spec.faults = std::make_shared<const fault::FaultPlan>(std::move(plan));
  }

  return spec;
}

std::optional<ScenarioSpec> load_scenario_spec(const std::string& path,
                                               std::string* err) {
  std::ifstream in(path);
  if (!in) {
    if (err != nullptr) *err = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  auto spec = parse_scenario_spec(ss.str(), err);
  if (!spec.has_value() && err != nullptr) *err = path + ": " + *err;
  return spec;
}

// ---------------------------------------------------------------------------
// Schedule expansion
// ---------------------------------------------------------------------------

std::vector<FlowEvent> expand_flow_schedule(const ScenarioSpec& spec,
                                            std::uint64_t seed) {
  std::vector<FlowEvent> out;
  const double end = spec.duration_s;

  for (const auto& f : spec.flows) {
    FlowEvent ev;
    ev.index = static_cast<std::uint32_t>(out.size());
    ev.kind = f.kind;
    ev.station = f.station;
    ev.zhuge = f.zhuge;
    ev.start_s = std::max(0.0, f.start_s);
    ev.stop_s = f.stop_s < 0 ? end : std::min(f.stop_s, end);
    ev.max_bitrate_mbps = f.max_bitrate_mbps;
    ev.fps = f.fps;
    if (ev.start_s < ev.stop_s && ev.start_s < end) out.push_back(ev);
  }

  const ChurnSpec& c = spec.churn;
  if (!c.enabled) return out;

  // Dedicated substream: the same spec on a different seed gets a different
  // schedule, and the main scenario RNG (kScenarioMain/kScenarioAux)
  // never shifts.
  sim::Rng rng(seed, sim::substreams::kSpecFlowChurn);
  const int n_stations = spec.station_count();
  const double churn_end = c.stop_s < 0 ? end : std::min(c.stop_s, end);
  const double w_total = c.mix_rtp_gcc + c.mix_tcp_cubic + c.mix_tcp_bbr;

  // Admitted churn windows, for the concurrency cap.
  std::vector<std::pair<double, double>> admitted;

  double t = c.start_s;
  while (true) {
    // Fixed draw order per arrival; all five draws happen whether or not
    // the arrival is admitted (see header).
    t += rng.exponential(c.mean_interarrival_s);
    const double lifetime =
        std::min(rng.exponential(c.mean_lifetime_s), c.max_lifetime_s);
    const double kind_roll = rng.uniform() * w_total;
    const int station = static_cast<int>(
        rng.uniform_int(static_cast<std::uint32_t>(n_stations)));
    const bool zhuge = rng.chance(c.zhuge_fraction);
    if (t >= churn_end) break;

    int concurrent = 0;
    for (const auto& [s, e] : admitted) {
      if (s <= t && t < e) ++concurrent;
    }
    if (concurrent >= c.max_concurrent) continue;

    FlowEvent ev;
    ev.index = static_cast<std::uint32_t>(out.size());
    ev.kind = kind_roll < c.mix_rtp_gcc ? SpecFlowKind::kRtpGcc
              : kind_roll < c.mix_rtp_gcc + c.mix_tcp_cubic
                  ? SpecFlowKind::kTcpCubic
                  : SpecFlowKind::kTcpBbr;
    ev.station = station;
    ev.zhuge = ev.kind == SpecFlowKind::kRtpGcc && zhuge;
    ev.start_s = t;
    ev.stop_s = std::min(t + std::max(lifetime, 0.1), end);
    ev.max_bitrate_mbps = c.max_bitrate_mbps;
    ev.fps = c.fps;
    if (ev.start_s < ev.stop_s) {
      admitted.emplace_back(ev.start_s, ev.stop_s);
      out.push_back(ev);
    }
  }
  return out;
}

}  // namespace zhuge::app
