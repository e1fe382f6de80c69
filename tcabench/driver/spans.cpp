#include "spans.h"

#include <chrono>
#include <cstdio>

namespace tcabench {

std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int32_t SpanRecorder::open(const char* name, std::uint64_t op) {
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{.name = name,
                        .start_ns = host_now_ns(),
                        .end_ns = 0,
                        .parent = parent,
                        .op = op});
  open_.push_back(id);
  return id;
}

void SpanRecorder::close(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = host_now_ns();
  open_.pop_back();  // ScopedSpan closes innermost first
}

std::int32_t SpanRecorder::add(const char* name, std::int64_t start_ns,
                               std::int64_t end_ns, std::int32_t parent,
                               std::uint64_t op) {
  spans_.push_back(Span{.name = name,
                        .start_ns = start_ns,
                        .end_ns = end_ns,
                        .parent = parent,
                        .op = op});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<std::int64_t> SpanRecorder::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return self;
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::totals() const {
  const std::vector<std::int64_t> self = self_ns();
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = out[spans_[i].name];
    ++t.count;
    t.total_ns += spans_[i].end_ns - spans_[i].start_ns;
    t.self_ns += self[i];
  }
  return out;
}

std::string SpanRecorder::to_json() const {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const long long op =
        s.op == kNoOp ? -1 : static_cast<long long>(s.op);
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"op\":%lld}}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent, op);
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace tcabench
