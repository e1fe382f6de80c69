#include "obs/metrics.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/trace.h"

namespace tca::obs {

namespace {

template <typename Map>
auto& find_or_create(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), typename Map::mapped_type{}).first;
  }
  return it->second;
}

// JSON number formatting: integers render without a fraction so counter
// values round-trip exactly; non-finite doubles (empty histogram min/max)
// degrade to 0, as JSON has no Inf/NaN.
void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "0";
    return;
  }
  if (v == std::floor(v) && std::abs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out += buf;
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
}

// --- Minimal recursive-descent reader for the documents this module emits --

struct JsonReader {
  std::string_view text;
  std::size_t pos = 0;
  bool failed = false;

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    failed = true;
    return false;
  }

  [[nodiscard]] bool peek(char c) {
    skip_ws();
    return pos < text.size() && text[pos] == c;
  }

  std::string parse_string() {
    std::string out;
    if (!consume('"')) return out;
    while (pos < text.size() && text[pos] != '"') {
      char c = text[pos++];
      if (c == '\\' && pos < text.size()) {
        char e = text[pos++];
        switch (e) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          default: out += e;
        }
      } else {
        out += c;
      }
    }
    if (pos >= text.size()) {
      failed = true;
      return out;
    }
    ++pos;  // closing quote
    return out;
  }

  double parse_number() {
    skip_ws();
    std::size_t start = pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '-' || text[pos] == '+' || text[pos] == '.' ||
            text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
    }
    if (pos == start) {
      failed = true;
      return 0;
    }
    return std::strtod(std::string(text.substr(start, pos - start)).c_str(),
                       nullptr);
  }

  /// Walks `{ "key": <number>, ... }` invoking `fn(key, value)`.
  template <typename Fn>
  void parse_number_object(Fn&& fn) {
    if (!consume('{')) return;
    if (peek('}')) {
      ++pos;
      return;
    }
    while (!failed) {
      std::string key = parse_string();
      if (!consume(':')) return;
      double v = parse_number();
      if (failed) return;
      fn(key, v);
      if (peek(',')) {
        ++pos;
        continue;
      }
      consume('}');
      return;
    }
  }
};

}  // namespace

Counter& MetricRegistry::counter(std::string_view name) {
  return find_or_create(counters_, name);
}

Gauge& MetricRegistry::gauge(std::string_view name) {
  return find_or_create(gauges_, name);
}

Histogram& MetricRegistry::histogram(std::string_view name) {
  return find_or_create(histograms_, name);
}

std::uint64_t MetricRegistry::counter_value(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

MetricsSnapshot MetricRegistry::snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c.value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g.value();
  for (const auto& [name, h] : histograms_) {
    HistogramSummary s;
    s.count = h.count();
    s.mean = h.mean();
    s.min = h.min();
    s.max = h.max();
    if (s.count > 0) {
      s.p50 = h.percentile(50.0);
      s.p95 = h.percentile(95.0);
      s.p99 = h.percentile(99.0);
    }
    snap.histograms[name] = s;
  }
  return snap;
}

std::string MetricRegistry::to_json() const {
  const MetricsSnapshot snap = snapshot();
  std::string out;
  out.reserve(256 + 64 * (counters_.size() + gauges_.size()) +
              192 * histograms_.size());
  out += "{\n  \"meta\": {\"schema\": \"tca-metrics-v1\"},\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_quoted(out, name);
    out += ": ";
    append_number(out, static_cast<double>(v));
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_quoted(out, name);
    out += ": ";
    append_number(out, v);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_quoted(out, name);
    out += ": {\"count\": ";
    append_number(out, static_cast<double>(h.count));
    out += ", \"mean\": ";
    append_number(out, h.mean);
    out += ", \"min\": ";
    append_number(out, h.min);
    out += ", \"max\": ";
    append_number(out, h.max);
    out += ", \"p50\": ";
    append_number(out, h.p50);
    out += ", \"p95\": ";
    append_number(out, h.p95);
    out += ", \"p99\": ";
    append_number(out, h.p99);
    out += "}";
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

Status MetricRegistry::write_json(const std::string& path) const {
  return write_file(path, to_json());
}

void MetricRegistry::emit_trace_counters(Trace& trace, TimePs at) const {
  const Trace::StrId track = trace.intern("metrics");
  for (const auto& [name, c] : counters_) {
    trace.counter(track, trace.intern(name), at,
                  static_cast<double>(c.value()));
  }
  for (const auto& [name, g] : gauges_) {
    trace.counter(track, trace.intern(name), at, g.value());
  }
}

Result<MetricsSnapshot> MetricsSnapshot::from_json(std::string_view json) {
  MetricsSnapshot snap;
  JsonReader r{json};
  if (!r.consume('{')) {
    return Status{ErrorCode::kInvalidArgument, "metrics JSON: expected '{'"};
  }
  bool saw_meta = false;
  while (!r.failed) {
    std::string section = r.parse_string();
    if (r.failed || !r.consume(':')) break;
    if (section == "meta") {
      bool schema_ok = false;
      // meta values are strings, not numbers; walk it by hand.
      if (r.consume('{')) {
        while (!r.failed && !r.peek('}')) {
          std::string key = r.parse_string();
          if (!r.consume(':')) break;
          std::string value = r.parse_string();
          if (key == "schema" && value == "tca-metrics-v1") schema_ok = true;
          if (r.peek(',')) ++r.pos;
        }
        r.consume('}');
      }
      if (!schema_ok) {
        return Status{ErrorCode::kInvalidArgument,
                      "metrics JSON: missing or unknown schema"};
      }
      saw_meta = true;
    } else if (section == "counters") {
      r.parse_number_object([&snap](const std::string& k, double v) {
        snap.counters[k] = static_cast<std::uint64_t>(v);
      });
    } else if (section == "gauges") {
      r.parse_number_object(
          [&snap](const std::string& k, double v) { snap.gauges[k] = v; });
    } else if (section == "histograms") {
      if (!r.consume('{')) break;
      if (r.peek('}')) {
        ++r.pos;
      } else {
        while (!r.failed) {
          std::string name = r.parse_string();
          if (!r.consume(':')) break;
          HistogramSummary h;
          r.parse_number_object([&h](const std::string& k, double v) {
            if (k == "count") h.count = static_cast<std::uint64_t>(v);
            else if (k == "mean") h.mean = v;
            else if (k == "min") h.min = v;
            else if (k == "max") h.max = v;
            else if (k == "p50") h.p50 = v;
            else if (k == "p95") h.p95 = v;
            else if (k == "p99") h.p99 = v;
          });
          snap.histograms[name] = h;
          if (r.peek(',')) {
            ++r.pos;
            continue;
          }
          r.consume('}');
          break;
        }
      }
    } else {
      return Status{ErrorCode::kInvalidArgument,
                    "metrics JSON: unknown section '" + section + "'"};
    }
    if (r.peek(',')) {
      ++r.pos;
      continue;
    }
    r.consume('}');
    break;
  }
  if (r.failed) {
    return Status{ErrorCode::kInvalidArgument, "metrics JSON: parse error"};
  }
  if (!saw_meta) {
    return Status{ErrorCode::kInvalidArgument,
                  "metrics JSON: missing meta section"};
  }
  return snap;
}

}  // namespace tca::obs
