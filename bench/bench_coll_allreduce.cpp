// Collective-library headline: tca::coll ring allreduce versus the
// conventional stack (cudaMemcpy D2H -> MPI/IB host ring -> cudaMemcpy H2D)
// across message sizes and ring sizes, GPU-resident on both sides.
//
// Reproduced shape:
//   * Small vectors: the conventional stack amortizes its two cudaMemcpy
//     sweeps poorly, but the TCA ring pays a put and a flag round trip per
//     step, so the stacks are close (the paper's PIO path is for latency,
//     not reductions). Each put is one immediate-register descriptor with
//     polled completion — no table fetch, no interrupt.
//   * Bulk vectors: the communicator's host-carried relay sends every ring
//     step after the first from the previous step's fold at wire rate,
//     while the dual-rail IB baseline still pays the full-vector D2H/H2D
//     bracket — tca::coll wins from ~64 KB up and must win at >= 1 MB on
//     the 8-node ring.
//   * Both stacks apply the identical ring fold order, so every sweep point
//     is verified bitwise identical before its timing counts.
//
// --json PATH writes the sweep for scripts/bench_perf.sh (BENCH_coll.json);
// --smoke shrinks the sweep to a sub-second tripwire for scripts/check.sh.
#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "api/tca.h"
#include "baseline/collectives.h"
#include "baseline/ib_fabric.h"
#include "baseline/mpi_lite.h"
#include "bench/bench_util.h"
#include "coll/communicator.h"
#include "common/rng.h"

using namespace tca;

namespace {

std::vector<std::vector<double>> make_inputs(std::uint32_t ranks,
                                             std::uint64_t count) {
  Rng rng(0xc0111ec7 + ranks);
  std::vector<std::vector<double>> in(ranks);
  for (auto& v : in) {
    v.resize(count);
    for (double& x : v) x = rng.next_double() * 2.0 - 1.0;
  }
  return in;
}

struct Point {
  TimePs tca_ps = 0;
  TimePs mpi_ps = 0;
  bool bitwise = false;
};

/// One sweep point, fresh rigs on both sides so no queue state leaks
/// between sizes.
Point run_point(std::uint32_t ranks, std::uint64_t count) {
  const auto in = make_inputs(ranks, count);
  Point p;

  // --- tca::coll: GPU-resident ring allreduce ------------------------------
  std::vector<std::vector<double>> tca_out(ranks);
  {
    sim::Scheduler sched;
    api::Runtime rt(sched,
                    api::TcaConfig{.spec = fabric::TopologySpec::ring(ranks),
                                   .node_config = {.gpu_count = 2,
                                                   .host_backing_bytes =
                                                       64ull << 20,
                                                   .gpu_backing_bytes =
                                                       64ull << 20}});
    auto comm = coll::Communicator::create(rt);
    TCA_ASSERT(comm.is_ok());
    std::vector<api::Buffer> bufs(ranks);
    for (std::uint32_t r = 0; r < ranks; ++r) {
      bufs[r] = rt.alloc_gpu(r, 0, count * sizeof(double)).value();
      rt.write(bufs[r], 0, std::as_bytes(std::span(in[r])));
    }
    const TimePs t0 = sched.now();
    std::vector<Status> st(ranks);
    for (std::uint32_t r = 0; r < ranks; ++r) {
      sim::spawn([](coll::Communicator& c, api::Buffer b, std::uint32_t rank,
                    std::uint64_t n, Status& out) -> sim::Task<> {
        out = co_await c.allreduce_sum(rank, b, 0, n);
      }(comm.value(), bufs[r], r, count, st[r]));
    }
    sched.run();
    p.tca_ps = sched.now() - t0;
    for (std::uint32_t r = 0; r < ranks; ++r) {
      TCA_ASSERT(st[r].is_ok());
      tca_out[r].resize(count);
      rt.read(bufs[r], 0, std::as_writable_bytes(std::span(tca_out[r])));
    }
  }

  // --- Conventional stack: D2H + MPI/IB host ring + H2D ---------------------
  std::vector<std::vector<double>> mpi_out = in;
  {
    sim::Scheduler sched;
    std::vector<std::unique_ptr<node::ComputeNode>> nodes;
    for (std::uint32_t i = 0; i < ranks; ++i) {
      nodes.push_back(std::make_unique<node::ComputeNode>(
          sched, static_cast<int>(i),
          node::NodeConfig{.gpu_count = 2,
                           .host_backing_bytes = 64ull << 20,
                           .gpu_backing_bytes = 64ull << 20}));
    }
    std::vector<node::ComputeNode*> ptrs;
    for (auto& n : nodes) ptrs.push_back(n.get());
    baseline::IbFabric fabric(sched, ptrs);
    baseline::MpiLite mpi(sched, fabric);
    baseline::Collectives coll(mpi, ranks);
    for (std::uint32_t r = 0; r < ranks; ++r) {
      nodes[r]->gpu(0).poke(0, std::as_bytes(std::span(mpi_out[r])));
    }
    const TimePs t0 = sched.now();
    for (std::uint32_t r = 0; r < ranks; ++r) {
      sim::spawn([](baseline::Collectives& c, node::ComputeNode& n,
                    std::uint32_t rank, std::span<double> d) -> sim::Task<> {
        co_await n.gpu(0).memcpy_d2h(0, std::as_writable_bytes(d));
        co_await c.allreduce_sum(rank, d);
        co_await n.gpu(0).memcpy_h2d(std::as_bytes(d), 0);
      }(coll, *nodes[r], r, std::span(mpi_out[r])));
    }
    sched.run();
    p.mpi_ps = sched.now() - t0;
  }

  p.bitwise = true;
  for (std::uint32_t r = 0; r < ranks && p.bitwise; ++r) {
    p.bitwise = std::memcmp(tca_out[r].data(), mpi_out[r].data(),
                            count * sizeof(double)) == 0;
  }
  return p;
}

int run(bool smoke, const std::string& json_path) {
  bench::ShapeCheck check;
  const std::vector<std::uint32_t> rings = smoke
                                               ? std::vector<std::uint32_t>{8}
                                               : std::vector<std::uint32_t>{4,
                                                                            8};
  const std::vector<std::uint64_t> sizes =  // total vector bytes
      smoke ? std::vector<std::uint64_t>{64ull << 10, 1ull << 20}
            : std::vector<std::uint64_t>{8ull << 10, 64ull << 10,
                                         256ull << 10, 1ull << 20,
                                         4ull << 20};

  struct Row {
    std::uint32_t ranks;
    std::uint64_t bytes;
    Point p;
  };
  std::vector<Row> rows;
  bool all_bitwise = true;
  double speedup_1m_8 = 0;

  for (std::uint32_t ranks : rings) {
    TablePrinter table({"Size", "tca::coll", "MPI/IB 3-copy", "speedup",
                        "coll GB/s", "bitwise"});
    for (std::uint64_t bytes : sizes) {
      const std::uint64_t count = bytes / sizeof(double);
      const Point p = run_point(ranks, count);
      all_bitwise = all_bitwise && p.bitwise;
      const double speedup =
          static_cast<double>(p.mpi_ps) / static_cast<double>(p.tca_ps);
      if (ranks == 8 && bytes == (1ull << 20)) speedup_1m_8 = speedup;
      table.add_row({units::format_size(bytes),
                     units::format_time(p.tca_ps),
                     units::format_time(p.mpi_ps),
                     TablePrinter::cell(speedup, 2) + "x",
                     bench::fmt_gbps(units::gbytes_per_second(bytes, p.tca_ps)),
                     p.bitwise ? "OK" : "MISMATCH"});
      rows.push_back({ranks, bytes, p});
    }
    print_section("GPU-resident ring allreduce, " + std::to_string(ranks) +
                  "-node ring (vector size -> wall time per allreduce)");
    table.print();
  }

  std::printf(
      "\nThe communicator stages each rank's first GPU chunk D2H once and\n"
      "relays every later ring step from the host-carried fold, so bulk\n"
      "vectors move at wire rate; the conventional stack brackets the host\n"
      "ring with two full-vector cudaMemcpy sweeps at every size.\n");

  check.expect(all_bitwise,
               "every sweep point: tca::coll == MPI/IB baseline bitwise");
  check.expect(speedup_1m_8 > 1.0,
               "1 MiB on the 8-node ring: tca::coll beats the conventional "
               "stack (" +
                   TablePrinter::cell(speedup_1m_8, 2) + "x)");
  if (!smoke) {
    // The crossover lives between the smallest and the headline size:
    // the conventional stack may win the 8 KiB point, never the 1 MiB one.
    double worst_big = 1e9;
    for (const Row& r : rows) {
      if (r.bytes >= (1ull << 20)) {
        worst_big = std::min(worst_big, static_cast<double>(r.p.mpi_ps) /
                                            static_cast<double>(r.p.tca_ps));
      }
    }
    check.expect(worst_big > 1.0,
                 ">= 1 MiB: tca::coll wins on every ring size");
  }

  if (!json_path.empty()) {
    // Smallest 8-node size from which tca::coll stays ahead — the
    // crossover the sweep exists to locate.
    std::uint64_t crossover = 0;
    for (const Row& r : rows) {
      if (r.ranks != 8) continue;
      if (r.p.mpi_ps > r.p.tca_ps) {
        if (crossover == 0) crossover = r.bytes;
      } else {
        crossover = 0;
      }
    }
    std::string json;
    bench::appendf(json, "{\n  \"smoke\": %s,\n", smoke ? "true" : "false");
    bench::appendf(json, "  \"bitwise_match\": %s,\n",
                   all_bitwise ? "true" : "false");
    bench::appendf(json, "  \"crossover_bytes_8node\": %llu,\n",
                   static_cast<unsigned long long>(crossover));
    bench::appendf(json, "  \"sweep\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      bench::appendf(
          json,
          "    {\"nodes\": %u, \"bytes\": %llu, \"coll_ps\": %lld, "
          "\"mpi_ps\": %lld, \"speedup\": %.3f}%s\n",
          r.ranks, static_cast<unsigned long long>(r.bytes),
          static_cast<long long>(r.p.tca_ps),
          static_cast<long long>(r.p.mpi_ps),
          static_cast<double>(r.p.mpi_ps) / static_cast<double>(r.p.tca_ps),
          i + 1 < rows.size() ? "," : "");
    }
    bench::appendf(json, "  ]\n}\n");
    check.expect_written(json_path, json);
  }
  return check.finish();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json PATH]\n", argv[0]);
      return 2;
    }
  }
  return run(smoke, json_path);
}
