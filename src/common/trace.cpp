#include "common/trace.h"

#include <cstdio>
#include <map>

namespace tca {

Trace::StrId Trace::intern(std::string_view s) {
  if (auto it = index_.find(s); it != index_.end()) return it->second;
  const StrId id = static_cast<StrId>(strings_.size());
  strings_.emplace_back(s);
  index_.emplace(strings_.back(), id);
  return id;
}

void Trace::duration(std::string_view track, std::string_view name,
                     TimePs begin, TimePs end) {
  duration(intern(track), intern(name), begin, end);
}

void Trace::duration(StrId track, StrId name, TimePs begin, TimePs end) {
  events_.push_back(Event{Kind::kDuration, track, name, begin, end, 0});
}

void Trace::instant(std::string_view track, std::string_view name, TimePs at) {
  instant(intern(track), intern(name), at);
}

void Trace::instant(StrId track, StrId name, TimePs at) {
  events_.push_back(Event{Kind::kInstant, track, name, at, at, 0});
}

void Trace::counter(StrId track, StrId name, TimePs at, double value) {
  events_.push_back(Event{Kind::kCounter, track, name, at, at, value});
}

namespace {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string Trace::to_json() const {
  // Trace Event Format: ts/dur in microseconds (fractional allowed; we use
  // nanosecond precision = ps/1000). Tracks become tid values under one pid.
  // tid assignment (first appearance in event order) and the sorted-by-name
  // metadata block reproduce the pre-interning output byte for byte.
  std::map<std::string, int> tids;
  auto tid_of = [&](StrId track) {
    auto [it, inserted] =
        tids.emplace(strings_[track], static_cast<int>(tids.size()) + 1);
    return it->second;
  };

  std::string out = "{\"traceEvents\":[\n";
  char buf[512];
  for (const Event& e : events_) {
    const double ts = static_cast<double>(e.begin) / 1e6;
    switch (e.kind) {
      case Kind::kDuration: {
        const double dur = static_cast<double>(e.end - e.begin) / 1e6;
        std::snprintf(buf, sizeof buf,
                      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                      "\"ts\":%.3f,\"dur\":%.3f},\n",
                      escape(strings_[e.name]).c_str(), tid_of(e.track), ts,
                      dur);
        break;
      }
      case Kind::kInstant:
        std::snprintf(buf, sizeof buf,
                      "{\"name\":\"%s\",\"ph\":\"i\",\"pid\":1,\"tid\":%d,"
                      "\"ts\":%.3f,\"s\":\"t\"},\n",
                      escape(strings_[e.name]).c_str(), tid_of(e.track), ts);
        break;
      case Kind::kCounter:
        std::snprintf(buf, sizeof buf,
                      "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"tid\":%d,"
                      "\"ts\":%.3f,\"args\":{\"value\":%g}},\n",
                      escape(strings_[e.name]).c_str(), tid_of(e.track), ts,
                      e.value);
        break;
    }
    out += buf;
  }
  // Thread-name metadata so tracks show component names.
  for (const auto& [track, tid] : tids) {
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%d,\"args\":{\"name\":\"%s\"}},\n",
                  tid, escape(track).c_str());
    out += buf;
  }
  if (out.size() >= 2 && out[out.size() - 2] == ',') {
    out.erase(out.size() - 2, 1);  // trailing comma
  }
  out += "]}\n";
  return out;
}

Status Trace::write_json(const std::string& path) const {
  return write_file(path, to_json());
}

}  // namespace tca
