// tcabench — runs one benchmark workload and prints its metrics.
//
//   tcabench --workload pio_pingpong|dma_stream|allreduce_8n|chaos_rounds
//            --seed N --seconds S --trace 0|1 [--spans-out PATH]
//
// Human-readable notes go first; the last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). A traced run
// writes its host-clock spans to --spans-out as Trace Event Format JSON.
// Exit status: 0 when every op verified, 1 when one failed, 2 on a usage
// or set-up error (no JSON line then).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "spans.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n"
               "          [--spans-out PATH]\n"
               "workloads:",
               argv0);
  for (const std::string& w : tcabench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::string json_metrics(const std::vector<tcabench::Metric>& metrics) {
  std::string out = "{";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  tcabench::RunOptions opt;
  std::string spans_out;
  bool have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (i + 1 >= argc) usage(argv[0]);
      const std::string v = argv[++i];
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage(argv[0]);
        opt.traced = v == "1";
        have_trace = true;
      } else if (a == "--spans-out") {
        spans_out = v;
      } else {
        usage(argv[0]);
      }
    }
  } catch (const std::exception&) {
    usage(argv[0]);
  }
  if (!tcabench::is_workload(opt.workload) || !have_trace || opt.seconds <= 0) {
    usage(argv[0]);
  }

  tcabench::SpanRecorder spans;
  tcabench::RunResult res;
  try {
    res = tcabench::run_workload(opt, spans);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tcabench: %s: %s\n", opt.workload.c_str(), e.what());
    return 2;
  }

  for (const std::string& note : res.notes) std::printf("%s\n", note.c_str());
  std::printf("digest: %016llx (workload %s, seed %llu)\n",
              static_cast<unsigned long long>(res.digest), opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed));
  for (const tcabench::Metric& m : res.end_to_end) {
    std::printf("e2e %s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (opt.traced && !spans_out.empty()) {
    std::ofstream out(spans_out);
    out << spans.to_json();
    std::printf("spans: %zu written to %s\n", spans.spans().size(),
                spans_out.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              res.correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed),
              json_metrics(opt.traced ? res.per_layer : res.end_to_end).c_str());
  return res.correct ? 0 : 1;
}
