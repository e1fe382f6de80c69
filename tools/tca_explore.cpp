// tca_explore — command-line experiment runner for the TCA simulator.
//
// Lets a user sweep the design space without writing code: pick node count,
// topology, transfer kind, burst depth and sizes, and get the bandwidth /
// latency series for it.
//
// Examples:
//   tca_explore                                   # defaults: Fig. 7-style
//   tca_explore --nodes 8 --target remote-host --sizes 64,1024,4096
//   tca_explore --op read --burst 16
//   tca_explore --op pio --target remote-host --nodes 4 --dest 3
//   tca_explore --topology dual-ring --nodes 8 --target remote-gpu
//   tca_explore --stats                           # metrics JSON on stdout
//   tca_explore --stats-out metrics.json          # ... or to a file
//
// Fault campaigns (see fabric::FaultPlan::parse for the grammar):
//   tca_explore --target remote-host --fault-plan "flap:cable=0,at=5us,for=100us"
//   tca_explore --fault-plan "cut:cable=0,at=2us" --deadline 2000 --attempts 3
//   tca_explore --fault-plan "ber:cable=0,at=0,for=1ms,rate=1e-6" --stats
//   tca_explore --no-failover --fault-plan "cut:cable=0,at=2us" --deadline 500
//
// Collective workloads (tca::coll over the api::Runtime, GPU-resident):
//   tca_explore --workload allreduce --size 1048576 --nodes 8
//   tca_explore --workload halo --size 8192 --stats
//   tca_explore --workload allreduce --size 65536
//       --fault-plan "cut:cable=0,at=5us" --deadline 300 --attempts 4
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "api/tca.h"
#include "bench/bench_util.h"
#include "coll/communicator.h"
#include "common/rng.h"
#include "common/trace.h"
#include "fabric/fault_plan.h"
#include "obs/metrics.h"

using namespace tca;
using bench::DmaRig;
using peach2::DmaDescriptor;
using peach2::DmaDirection;

namespace {

struct Options {
  std::uint32_t nodes = 2;
  bool nodes_set = false;  // --nodes given explicitly (torus cross-check)
  fabric::TopologySpec spec = fabric::TopologySpec::ring(2);
  std::string op = "write";           // write | read | pipelined | pio
  std::string target = "local-host";  // local-/remote- x host/gpu
  std::uint32_t burst = 255;
  std::uint32_t dest = 1;  // destination node for remote targets
  std::vector<std::uint32_t> sizes = {64, 256, 1024, 4096};
  std::string trace_path;  // chrome://tracing JSON output
  bool stats = false;      // print the metrics JSON snapshot at exit
  std::string stats_path;  // write the metrics JSON to a file instead
  fabric::FaultPlan fault_plan;   // deterministic fault campaign
  bool failover = true;           // ring failover on cable death
  std::uint32_t deadline_us = 0;  // per-attempt chain watchdog (0 = off)
  std::uint32_t attempts = 1;     // doorbell attempts per chain
  std::string workload;           // "" | allreduce | halo (tca::coll mode)
  std::uint64_t size = 1ull << 20;  // workload payload bytes
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--nodes N] [--topology ring|dual-ring|torus:XxY[xZ]] "
      "[--op write|read|pipelined|pio]\n"
      "          [--target local-host|local-gpu|remote-host|remote-gpu]\n"
      "          [--burst K] [--dest NODE] [--sizes a,b,c]\n"
      "          [--trace FILE] [--stats] [--stats-out FILE]\n"
      "          [--fault-plan SPEC] [--no-failover] [--deadline USEC]\n"
      "          [--attempts N]\n"
      "          [--workload allreduce|halo --size BYTES]\n",
      argv0);
  std::exit(2);
}

std::vector<std::uint32_t> parse_sizes(const std::string& arg) {
  std::vector<std::uint32_t> out;
  std::size_t pos = 0;
  while (pos < arg.size()) {
    const std::size_t comma = arg.find(',', pos);
    const std::string tok = arg.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    out.push_back(static_cast<std::uint32_t>(std::stoul(tok)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (a == "--nodes") {
      opt.nodes = static_cast<std::uint32_t>(std::stoul(next()));
      opt.nodes_set = true;
    } else if (a == "--topology") {
      auto spec = fabric::TopologySpec::parse(next());
      if (!spec.is_ok()) {
        std::fprintf(stderr, "error: %s\n",
                     spec.status().to_string().c_str());
        std::exit(2);
      }
      opt.spec = std::move(spec).value();
    } else if (a == "--op") {
      opt.op = next();
    } else if (a == "--target") {
      opt.target = next();
    } else if (a == "--burst") {
      opt.burst = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (a == "--dest") {
      opt.dest = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (a == "--sizes") {
      opt.sizes = parse_sizes(next());
    } else if (a == "--trace") {
      opt.trace_path = next();
    } else if (a == "--stats") {
      opt.stats = true;
    } else if (a == "--stats-out") {
      opt.stats_path = next();
    } else if (a == "--fault-plan") {
      auto plan = fabric::FaultPlan::parse(next());
      if (!plan.is_ok()) {
        std::fprintf(stderr, "error: %s\n", plan.status().to_string().c_str());
        std::exit(2);
      }
      opt.fault_plan = std::move(plan).value();
    } else if (a == "--no-failover") {
      opt.failover = false;
    } else if (a == "--deadline") {
      opt.deadline_us = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (a == "--attempts") {
      opt.attempts = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (a == "--workload") {
      opt.workload = next();
    } else if (a == "--size") {
      opt.size = std::stoull(next());
    } else {
      usage(argv[0]);
    }
  }
  if (!opt.workload.empty() && opt.workload != "allreduce" &&
      opt.workload != "halo") {
    usage(argv[0]);
  }
  if (!opt.workload.empty() && opt.size == 0) usage(argv[0]);
  if (opt.op != "write" && opt.op != "read" && opt.op != "pipelined" &&
      opt.op != "pio") {
    usage(argv[0]);
  }
  if (opt.burst == 0 || opt.burst > calib::kMaxDescriptors) usage(argv[0]);
  // Resolve the node count: ring/dual-ring parse without one (combine with
  // --nodes), while a torus spec derives it from its extents.
  if (opt.spec.kind() == fabric::TopologySpec::Kind::kTorus) {
    if (opt.nodes_set && opt.nodes != opt.spec.node_count()) {
      std::fprintf(stderr, "error: --nodes %u does not match %s (%u nodes)\n",
                   opt.nodes, opt.spec.to_string().c_str(),
                   opt.spec.node_count());
      std::exit(2);
    }
    opt.nodes = opt.spec.node_count();
  } else if (opt.spec.kind() == fabric::TopologySpec::Kind::kDualRing) {
    opt.spec = fabric::TopologySpec::dual_ring(opt.nodes);
  } else {
    opt.spec = fabric::TopologySpec::ring(opt.nodes);
  }
  if (opt.dest >= opt.nodes) usage(argv[0]);
  return opt;
}

/// The run summary both modes end with: the fault-plan recovery line, the
/// --stats/--stats-out metrics export and the --trace file. `reg` holds the
/// run's metrics, whose fabric roll-ups the recovery line reads. Returns 1
/// when an output file cannot be written, else 0.
int report_run(const Options& opt, const sim::Scheduler& sched,
               const obs::MetricRegistry& reg) {
  if (!opt.fault_plan.empty()) {
    auto count = [&reg](const char* name) {
      return static_cast<unsigned long long>(reg.counter_value(name));
    };
    std::printf("fault-plan: %s\n", opt.fault_plan.to_string().c_str());
    std::printf(
        "recovery: failovers=%llu failbacks=%llu dropped_tlps=%llu "
        "replays=%llu error_irqs=%llu watchdog_timeouts=%llu retries=%llu\n",
        count("fabric.failovers"), count("fabric.failbacks"),
        count("fabric.link_dropped_tlps"), count("fabric.replays"),
        count("fabric.error_irqs"), count("fabric.driver.watchdog_timeouts"),
        count("fabric.driver.retries"));
  }

  Trace* trace = sched.trace();
  if (opt.stats || !opt.stats_path.empty()) {
    if (trace != nullptr) reg.emit_trace_counters(*trace, sched.now());
    if (!opt.stats_path.empty()) {
      const Status st = reg.write_json(opt.stats_path);
      if (!st.is_ok()) {
        std::fprintf(stderr, "stats: %s\n", st.to_string().c_str());
        return 1;
      }
      std::printf("stats: %zu metrics -> %s\n", reg.size(),
                  opt.stats_path.c_str());
    }
    if (opt.stats) std::printf("\n%s", reg.to_json().c_str());
  }

  if (trace != nullptr) {
    const Status st = trace->write_json(opt.trace_path);
    if (!st.is_ok()) {
      std::fprintf(stderr, "trace: %s\n", st.to_string().c_str());
      return 1;
    }
    std::printf("trace: %zu events -> %s (open in chrome://tracing)\n",
                trace->event_count(), opt.trace_path.c_str());
  }
  return 0;
}

/// --workload mode: drive one tca::coll collective (GPU-resident) over the
/// api::Runtime instead of raw driver chains, composing with --nodes,
/// --topology, --fault-plan, --no-failover, --deadline, --attempts,
/// --stats and --trace. A healthy run exits non-zero on verification
/// failure; under a fault campaign the printed outcome IS the experiment,
/// so the run exits zero either way.
int run_workload(const Options& opt, sim::Scheduler& sched) {
  const api::TcaConfig config{
      .spec = opt.spec,
      .node_config = {.gpu_count = 2,
                      .host_backing_bytes = 64ull << 20,
                      .gpu_backing_bytes = 64ull << 20},
      .fault_plan = opt.fault_plan,
      .enable_failover = opt.failover};
  if (Status st = api::Runtime::validate_config(config); !st.is_ok()) {
    std::fprintf(stderr, "error: %s\n", st.to_string().c_str());
    return 2;
  }
  api::Runtime rt(sched, config);

  coll::CollConfig cfg;
  cfg.sync = {.max_attempts = opt.attempts,
              .timeout_ps = units::us(opt.deadline_us)};
  // A fault campaign may kill a neighbor's doorbell outright; bound the
  // flag waits so the run reports kTimedOut instead of never terminating.
  if (!opt.fault_plan.empty() && cfg.flag_timeout_ps == 0) {
    cfg.flag_timeout_ps = units::ms(50);
  }
  auto comm_res = coll::Communicator::create(rt, cfg);
  if (!comm_res.is_ok()) {
    std::fprintf(stderr, "error: %s\n",
                 comm_res.status().to_string().c_str());
    return 2;
  }
  coll::Communicator& comm = comm_res.value();

  std::printf("tca_explore: %u-node %s, workload=%s size=%s\n", opt.nodes,
              opt.spec.to_string().c_str(), opt.workload.c_str(),
              units::format_size(opt.size).c_str());

  std::vector<Status> st(opt.nodes, Status::ok());
  bool verified = false;
  std::uint64_t payload = 0;  // per-rank payload bytes, for the GB/s line
  TimePs elapsed = 0;

  if (opt.workload == "allreduce") {
    std::uint64_t count = opt.size / sizeof(double);
    count -= count % opt.nodes;  // the ring partitions the vector evenly
    if (count == 0) {
      std::fprintf(stderr, "error: --size must cover at least %u doubles\n",
                   opt.nodes);
      return 2;
    }
    payload = count * sizeof(double);
    Rng rng(42);
    std::vector<std::vector<double>> in(opt.nodes);
    std::vector<api::Buffer> bufs(opt.nodes);
    for (std::uint32_t r = 0; r < opt.nodes; ++r) {
      in[r].resize(count);
      for (double& x : in[r]) x = rng.next_double() * 2.0 - 1.0;
      bufs[r] = rt.alloc_gpu(r, 0, payload).value();
      rt.write(bufs[r], 0, std::as_bytes(std::span(in[r])));
    }
    const TimePs t0 = sched.now();
    for (std::uint32_t r = 0; r < opt.nodes; ++r) {
      sim::spawn([](coll::Communicator& c, api::Buffer b, std::uint32_t rank,
                    std::uint64_t n, Status& out) -> sim::Task<> {
        out = co_await c.allreduce_sum(rank, b, 0, n);
      }(comm, bufs[r], r, count, st[r]));
    }
    sched.run();
    elapsed = sched.now() - t0;

    // Every rank must agree bitwise, and the agreed vector must match a
    // host-side reference sum (different fold order, hence the epsilon).
    std::vector<double> out0(count);
    rt.read(bufs[0], 0, std::as_writable_bytes(std::span(out0)));
    verified = true;
    for (std::uint32_t r = 1; r < opt.nodes; ++r) {
      std::vector<double> o(count);
      rt.read(bufs[r], 0, std::as_writable_bytes(std::span(o)));
      verified = verified &&
                 std::memcmp(o.data(), out0.data(), payload) == 0;
    }
    double max_err = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      double ref = 0;
      for (const auto& v : in) ref += v[i];
      max_err = std::max(max_err, std::fabs(out0[i] - ref));
    }
    verified = verified && max_err < 1e-9 * opt.nodes;
  } else {  // halo
    const std::uint64_t row = opt.size;
    if (row > comm.config().pipeline_seg_bytes) {
      std::fprintf(stderr,
                   "error: halo row (%llu bytes) must fit one staging slot "
                   "(<= %llu bytes)\n",
                   static_cast<unsigned long long>(row),
                   static_cast<unsigned long long>(
                       comm.config().pipeline_seg_bytes));
      return 2;
    }
    payload = 2 * row;  // both boundary rows leave every rank
    // Slab layout: [recv_from_prev][send_to_prev][send_to_next]
    // [recv_from_next], with recognizable per-rank row patterns.
    auto row_byte = [](std::uint32_t rank, bool to_next) {
      return std::byte{
          static_cast<unsigned char>(0x10 + rank * 2 + (to_next ? 1 : 0))};
    };
    std::vector<api::Buffer> bufs(opt.nodes);
    for (std::uint32_t r = 0; r < opt.nodes; ++r) {
      bufs[r] = rt.alloc_gpu(r, 0, 4 * row).value();
      rt.write(bufs[r], 1 * row,
               std::vector<std::byte>(row, row_byte(r, false)));
      rt.write(bufs[r], 2 * row,
               std::vector<std::byte>(row, row_byte(r, true)));
    }
    const TimePs t0 = sched.now();
    for (std::uint32_t r = 0; r < opt.nodes; ++r) {
      sim::spawn([](coll::Communicator& c, api::Buffer b, std::uint32_t rank,
                    std::uint64_t rb, Status& out) -> sim::Task<> {
        out = co_await c.neighbor_exchange(
            rank, coll::HaloSpec{.buf = b,
                                 .send_to_next_off = 2 * rb,
                                 .send_to_prev_off = 1 * rb,
                                 .recv_from_prev_off = 0,
                                 .recv_from_next_off = 3 * rb,
                                 .bytes = rb});
      }(comm, bufs[r], r, row, st[r]));
    }
    sched.run();
    elapsed = sched.now() - t0;

    verified = true;
    for (std::uint32_t r = 0; r < opt.nodes; ++r) {
      const std::uint32_t prev = comm.ring_prev(r);
      const std::uint32_t next = comm.ring_next(r);
      std::vector<std::byte> got(row);
      rt.read(bufs[r], 0, got);  // from prev: prev's to_next row
      verified = verified &&
                 got == std::vector<std::byte>(row, row_byte(prev, true));
      rt.read(bufs[r], 3 * row, got);  // from next: next's to_prev row
      verified = verified &&
                 got == std::vector<std::byte>(row, row_byte(next, false));
    }
  }

  bool all_ok = true;
  for (std::uint32_t r = 0; r < opt.nodes; ++r) {
    if (!st[r].is_ok()) {
      all_ok = false;
      std::printf("rank %u: %s\n", r, st[r].to_string().c_str());
    }
  }
  const std::uint64_t aggregate = payload * opt.nodes;
  std::printf("%s: %s/rank in %s  (%s aggregate, %.3f GB/s)  verify: %s\n",
              opt.workload.c_str(), units::format_size(payload).c_str(),
              units::format_time(elapsed).c_str(),
              units::format_size(aggregate).c_str(),
              units::gbytes_per_second(aggregate, elapsed),
              verified ? "OK" : "FAILED");
  const coll::CollMetrics& m = comm.metrics();
  std::printf("coll: eager_ops=%llu ring_ops=%llu bytes=%llu "
              "staged_d2h=%llu host_carry=%llu put_retries=%llu\n",
              static_cast<unsigned long long>(m.eager_ops),
              static_cast<unsigned long long>(m.ring_ops),
              static_cast<unsigned long long>(m.bytes),
              static_cast<unsigned long long>(m.staged_d2h_bytes),
              static_cast<unsigned long long>(m.host_carry_bytes),
              static_cast<unsigned long long>(m.put_retries));

  obs::MetricRegistry reg;
  comm.export_metrics(reg);
  if (const int rc = report_run(opt, sched, reg); rc != 0) return rc;
  if (all_ok && verified) return 0;
  return opt.fault_plan.empty() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  // Stats requested: also record latency samples (histograms in the JSON).
  if (opt.stats || !opt.stats_path.empty()) obs::set_sampling_enabled(true);

  // Declared before the scheduler so it outlives every event; attached
  // before the fabric is built, so the whole run is on the timeline.
  Trace trace;
  sim::Scheduler sched;
  if (!opt.trace_path.empty()) sched.set_trace(&trace);

  if (!opt.workload.empty()) return run_workload(opt, sched);

  fabric::SubCluster tca(
      sched, fabric::SubClusterConfig{
                 .spec = opt.spec,
                 .node_config = {.gpu_count = 2,
                                 .host_backing_bytes = 64ull << 20,
                                 .gpu_backing_bytes = 8ull << 20},
                 .fault_plan = opt.fault_plan,
                 .enable_failover = opt.failover});
  driver::Peach2Driver& drv = tca.driver(0);

  // Pin GPU windows. The ops time transfers and never read the bytes back,
  // so no source data is staged.
  for (std::uint32_t n = 0; n < opt.nodes; ++n) {
    auto ptr = tca.node(n).gpu(0).mem_alloc(4 << 20);
    TCA_ASSERT(ptr.is_ok());
    TCA_ASSERT(tca.driver(n).p2p().pin(0, ptr.value(), 4 << 20).is_ok());
  }

  const bool remote = opt.target.rfind("remote", 0) == 0;
  const bool gpu = opt.target.find("gpu") != std::string::npos;
  const std::uint32_t dest_node = remote ? opt.dest : 0;
  auto target_addr = [&](std::uint64_t off) {
    return tca.layout().encode(dest_node,
                               gpu ? peach2::TcaTarget::kGpu0
                                   : peach2::TcaTarget::kHost,
                               off);
  };

  std::printf("tca_explore: %u-node %s, op=%s target=%s dest=node%u "
              "burst=%u\n",
              opt.nodes, opt.spec.to_string().c_str(), opt.op.c_str(),
              opt.target.c_str(), dest_node, opt.burst);

  TablePrinter table({"Size", "Elapsed", "Bandwidth", "Latency/op"});
  for (std::uint32_t size : opt.sizes) {
    TimePs elapsed = 0;
    const std::uint64_t total =
        static_cast<std::uint64_t>(opt.burst) * size;
    if (opt.op == "pio") {
      std::vector<std::byte> data(size, std::byte{0x11});
      const TimePs t0 = sched.now();
      for (std::uint32_t i = 0; i < opt.burst; ++i) {
        auto t = drv.pio_store(target_addr((i * size) % (1 << 20)), data);
        sched.run();
      }
      elapsed = sched.now() - t0;
    } else {
      std::vector<DmaDescriptor> chain;
      for (std::uint32_t i = 0; i < opt.burst; ++i) {
        const std::uint64_t off =
            (static_cast<std::uint64_t>(i) * size) % ((1 << 20) - size + 1);
        DmaDescriptor d{.length = size};
        if (opt.op == "write") {
          d.direction = DmaDirection::kWrite;
          d.src = drv.internal_global(off);
          d.dst = target_addr(off);
        } else if (opt.op == "read") {
          if (remote) {
            std::fprintf(stderr,
                         "error: remote reads are not supported by the "
                         "put-only fabric\n");
            return 2;
          }
          d.direction = DmaDirection::kRead;
          d.src = target_addr(off);
          d.dst = drv.internal_global(off);
        } else {  // pipelined
          d.direction = DmaDirection::kPipelined;
          d.src = drv.host_buffer_global(off);
          d.dst = target_addr(off);
        }
        chain.push_back(d);
      }
      if (opt.deadline_us > 0 || opt.attempts > 1) {
        auto t = drv.run_chain_reliable(
            std::move(chain),
            driver::RetryPolicy{.max_attempts = opt.attempts,
                                .timeout_ps = units::us(opt.deadline_us)});
        sched.run();
        const driver::ChainResult result = t.result();
        elapsed = result.elapsed;
        if (!result.status.is_ok()) {
          std::printf("  size %u: %s after %u attempt(s)\n", size,
                      result.status.to_string().c_str(), result.attempts);
        } else if (result.attempts > 1) {
          std::printf("  size %u: recovered on attempt %u\n", size,
                      result.attempts);
        }
      } else {
        auto t = drv.run_chain(std::move(chain));
        sched.run();
        elapsed = t.result();
      }
    }
    table.add_row(
        {units::format_size(size), units::format_time(elapsed),
         TablePrinter::cell(units::gbytes_per_second(total, elapsed), 3) +
             " GB/s",
         units::format_time(elapsed / opt.burst)});
  }
  table.print();

  obs::MetricRegistry reg;
  tca.export_metrics(reg);
  return report_run(opt, sched, reg);
}
