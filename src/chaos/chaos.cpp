#include "chaos/chaos.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <utility>

#include "api/tca.h"
#include "calib/calibration.h"
#include "coll/communicator.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/trace.h"
#include "fabric/sub_cluster.h"
#include "obs/metrics.h"
#include "sim/scheduler.h"
#include "sim/task.h"

namespace tca::chaos {

using units::ms;
using units::ns;
using units::us;

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kAllreduce: return "allreduce";
    case Workload::kHalo: return "halo";
    case Workload::kPingPong: return "pingpong";
    case Workload::kMixed: return "mixed";
  }
  return "?";
}

Result<Workload> parse_workload(std::string_view text) {
  if (text == "allreduce") return Workload::kAllreduce;
  if (text == "halo") return Workload::kHalo;
  if (text == "pingpong") return Workload::kPingPong;
  if (text == "mixed") return Workload::kMixed;
  return Status(ErrorCode::kInvalidArgument,
                "unknown workload \"" + std::string(text) +
                    "\" (want allreduce|halo|pingpong|mixed)");
}

namespace {

Result<std::uint32_t> parse_count(std::string_view text,
                                  std::string_view what) {
  std::uint32_t n = 0;
  if (text.empty()) {
    return Status(ErrorCode::kInvalidArgument,
                  std::string(what) + ": missing node count");
  }
  for (char c : text) {
    if (c < '0' || c > '9') {
      return Status(ErrorCode::kInvalidArgument,
                    std::string(what) + ": bad node count \"" +
                        std::string(text) + "\"");
    }
    n = n * 10 + static_cast<std::uint32_t>(c - '0');
    if (n > calib::kMaxFabricNodes) break;
  }
  return n;
}

}  // namespace

Result<fabric::TopologySpec> parse_topology(std::string_view text) {
  if (text.starts_with("ring:")) {
    auto n = parse_count(text.substr(5), "ring");
    if (!n.is_ok()) return n.status();
    return fabric::TopologySpec::ring(n.value());
  }
  if (text.starts_with("dual-ring:")) {
    auto n = parse_count(text.substr(10), "dual-ring");
    if (!n.is_ok()) return n.status();
    return fabric::TopologySpec::dual_ring(n.value());
  }
  if (text.starts_with("torus:")) {
    return fabric::TopologySpec::parse(text);
  }
  return Status(ErrorCode::kInvalidArgument,
                "unknown topology \"" + std::string(text) +
                    "\" (want ring:N, dual-ring:N or torus:XxY[xZ])");
}

std::string topology_to_string(const fabric::TopologySpec& topo) {
  switch (topo.kind()) {
    case fabric::TopologySpec::Kind::kRing:
      return "ring:" + std::to_string(topo.node_count());
    case fabric::TopologySpec::Kind::kDualRing:
      return "dual-ring:" + std::to_string(topo.node_count());
    case fabric::TopologySpec::Kind::kTorus:
      return topo.to_string();  // "torus:XxY[xZ]" carries the shape already
  }
  return "?";
}

// --- CampaignSpec serialization ---------------------------------------------

std::string CampaignSpec::to_string() const {
  std::string out;
  out += "seed=" + std::to_string(seed) + "\n";
  out += "topology=" + topology_to_string(topology) + "\n";
  out += "workload=" + std::string(chaos::to_string(workload)) + "\n";
  out += "plan=" + plan.to_string() + "\n";
  return out;
}

Result<CampaignSpec> CampaignSpec::parse(std::string_view text) {
  CampaignSpec spec;
  spec.plan.events.clear();
  unsigned seen = 0;  // bit per key, duplicate detection
  std::size_t pos = 0;
  int line_no = 0;
  while (pos <= text.size()) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
      line.remove_prefix(1);
    }
    while (!line.empty() &&
           (line.back() == ' ' || line.back() == '\t' || line.back() == '\r')) {
      line.remove_suffix(1);
    }
    if (line.empty() || line.front() == '#') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Status(ErrorCode::kInvalidArgument,
                    "campaign line " + std::to_string(line_no) +
                        ": expected key=value, got \"" + std::string(line) +
                        "\"");
    }
    const std::string_view key = line.substr(0, eq);
    const std::string_view value = line.substr(eq + 1);
    unsigned bit = 0;
    if (key == "seed") {
      bit = 1u << 0;
      spec.seed = 0;
      if (value.empty()) {
        return Status(ErrorCode::kInvalidArgument, "campaign: empty seed");
      }
      for (char c : value) {
        if (c < '0' || c > '9') {
          return Status(ErrorCode::kInvalidArgument,
                        "campaign: bad seed \"" + std::string(value) + "\"");
        }
        spec.seed = spec.seed * 10 + static_cast<std::uint64_t>(c - '0');
      }
    } else if (key == "topology") {
      bit = 1u << 1;
      auto topo = parse_topology(value);
      if (!topo.is_ok()) return topo.status();
      spec.topology = topo.value();
    } else if (key == "workload") {
      bit = 1u << 2;
      auto w = parse_workload(value);
      if (!w.is_ok()) return w.status();
      spec.workload = w.value();
    } else if (key == "plan") {
      bit = 1u << 3;
      if (!value.empty()) {
        auto plan = fabric::FaultPlan::parse(value);
        if (!plan.is_ok()) return plan.status();
        spec.plan = std::move(plan).value();
      }
    } else {
      return Status(ErrorCode::kInvalidArgument,
                    "campaign line " + std::to_string(line_no) +
                        ": unknown key \"" + std::string(key) + "\"");
    }
    if (seen & bit) {
      return Status(ErrorCode::kInvalidArgument,
                    "campaign: duplicate key \"" + std::string(key) + "\"");
    }
    seen |= bit;
  }
  return spec;
}

// --- Fault-plan generation ---------------------------------------------------

fabric::FaultPlan generate_fault_plan(std::uint64_t seed,
                                      const fabric::TopologySpec& topo) {
  // Distinct stream from workload data fills so reordering draws in one
  // never perturbs the other.
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  fabric::FaultPlan plan;
  const std::uint32_t cables = topo.cable_count();
  const std::uint32_t nodes = topo.node_count();
  if (cables == 0 || nodes == 0) return plan;

  // BER rates restricted to values whose default ostream rendering parses
  // back to the same double, so generated plans round-trip through
  // FaultPlan::parse(to_string()) exactly.
  static constexpr double kBerRates[] = {1e-7, 5e-7, 1e-6,
                                         2.5e-6, 5e-6, 1e-5};

  const std::uint64_t max_events =
      std::min<std::uint64_t>(12, 4 + cables / 8);
  const std::uint64_t count = 1 + rng.next_below(max_events);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t kind = rng.next_below(100);
    const TimePs at = static_cast<TimePs>(rng.next_below(
        static_cast<std::uint64_t>(us(200))));
    if (kind < 40) {
      // Flap; 1 in 5 shorter than the NIOS failover service latency so
      // retrain can race the reroute.
      const TimePs dur =
          rng.next_below(5) == 0
              ? ns(1) + static_cast<TimePs>(rng.next_below(
                            static_cast<std::uint64_t>(us(1))))
              : us(1) + static_cast<TimePs>(rng.next_below(
                            static_cast<std::uint64_t>(us(149))));
      plan.flap(static_cast<std::uint32_t>(rng.next_below(cables)), at, dur);
    } else if (kind < 50) {
      plan.cut(static_cast<std::uint32_t>(rng.next_below(cables)), at);
    } else if (kind < 60) {
      plan.up(static_cast<std::uint32_t>(rng.next_below(cables)), at);
    } else if (kind < 80) {
      const TimePs dur = us(1) + static_cast<TimePs>(rng.next_below(
                                     static_cast<std::uint64_t>(us(49))));
      plan.ber_burst(static_cast<std::uint32_t>(rng.next_below(cables)), at,
                     dur, kBerRates[rng.next_below(std::size(kBerRates))]);
    } else {
      const TimePs dur = us(1) + static_cast<TimePs>(rng.next_below(
                                     static_cast<std::uint64_t>(us(99))));
      plan.stuck_doorbell(
          static_cast<std::uint32_t>(rng.next_below(nodes)),
          static_cast<int>(rng.next_below(calib::kDmaChannels)), at, dur);
    }
  }
  return plan;
}

// --- Campaign execution ------------------------------------------------------

namespace {

// Recovery policy every campaign's workloads run under. It is not part of
// the campaign spec: the corpus pins behavior through seed, topology,
// workload and plan alone.
constexpr TimePs kPutDeadlinePs = us(300);
constexpr std::uint32_t kPutMaxAttempts = 3;
constexpr TimePs kFlagTimeoutPs = ms(2);
/// No-wedge horizon: every workload task must resolve by then.
constexpr TimePs kHorizonPs = ms(100);

/// Deterministic small-integer payloads: every derived double is an integer
/// in [0, 1024), so cross-rank sums are exact regardless of fold order.
double init_value(std::uint64_t seed, std::uint32_t rank, std::uint64_t j) {
  return static_cast<double>((j * 7 + rank * 13 + seed % 64) % 1024);
}

std::byte pattern_byte(std::uint64_t seed, std::uint32_t sender, int stream,
                       std::uint64_t j) {
  return static_cast<std::byte>(
      (seed * 31 + sender * 131 + static_cast<std::uint64_t>(stream) * 17 +
       j * 7) &
      0xff);
}

struct TaskSlot {
  Status status;
  bool done = false;
};

sim::Task<> allreduce_rank(coll::Communicator* comm, std::uint32_t rank,
                           api::Buffer buf, std::uint64_t count,
                           TaskSlot* slot) {
  slot->status = co_await comm->allreduce_sum(rank, buf, 0, count);
  slot->done = true;
}

sim::Task<> halo_rank(coll::Communicator* comm, std::uint32_t rank,
                      coll::HaloSpec spec, TaskSlot* slot) {
  slot->status = co_await comm->neighbor_exchange(rank, spec);
  slot->done = true;
}

sim::Task<> pingpong_node(api::Runtime* rt, api::Buffer send_fwd,
                          api::Buffer dst_fwd, api::Buffer send_rev,
                          api::Buffer dst_rev, std::uint64_t bytes,
                          driver::RetryPolicy policy, TaskSlot* fwd,
                          TaskSlot* rev) {
  fwd->status = co_await rt->memcpy_peer_reliable(dst_fwd, 0, send_fwd, 0,
                                                  bytes, policy);
  fwd->done = true;
  rev->status = co_await rt->memcpy_peer_reliable(dst_rev, 0, send_rev, 0,
                                                  bytes, policy);
  rev->done = true;
}

/// A campaign failure is any status outside the clean-outcome set: a fault
/// may fail an op, but only through the recovery machinery's vocabulary.
bool clean_status(const Status& st) {
  switch (st.code()) {
    case ErrorCode::kOk:
    case ErrorCode::kTimedOut:
    case ErrorCode::kLinkDown:
    case ErrorCode::kUnreachable:
      return true;
    default:
      return false;
  }
}

}  // namespace

CampaignResult run_campaign(const CampaignSpec& spec) {
  CampaignResult result;
  auto violate = [&result](std::string msg) {
    result.violations.push_back(std::move(msg));
  };

  // Deterministic same-seed replay is judged on the full event stream. The
  // trace is declared before the scheduler so it outlives every event.
  Trace trace;

  fabric::FaultPlan plan = spec.plan.empty()
                               ? generate_fault_plan(spec.seed, spec.topology)
                               : spec.plan;

  {
    sim::Scheduler sched;
    sched.set_trace(&trace);
    api::TcaConfig cfg;
    cfg.spec = spec.topology;
    // These sizes are part of every campaign's simulated result:
    // DriverHostLayout::for_dram_size places the driver's DMA buffer and
    // descriptor table by host DRAM size, so resizing moves simulated
    // addresses and the committed corpus no longer replays as recorded.
    // 3 MiB clears the layout's 2 MiB floor.
    cfg.node_config.gpu_count = 2;
    cfg.node_config.host_backing_bytes = 3ull << 20;
    cfg.node_config.gpu_backing_bytes = 256ull << 10;
    cfg.fault_plan = plan;

    auto rt_result = api::Runtime::create(sched, cfg);
    if (!rt_result.is_ok()) {
      violate("runtime rejected campaign config: " +
              rt_result.status().to_string());
    } else {
      api::Runtime rt = std::move(rt_result).value();
      const std::uint32_t n = rt.node_count();
      const driver::RetryPolicy sync{.max_attempts = kPutMaxAttempts,
                                     .timeout_ps = kPutDeadlinePs};

      // Heartbeats: probes spread across the horizon that record the clock;
      // the monotonic-time invariant checks them after the run.
      std::vector<TimePs> heartbeats;
      heartbeats.reserve(16);
      for (int i = 1; i <= 16; ++i) {
        sched.schedule_at(kHorizonPs * i / 16, [&sched, &heartbeats] {
          heartbeats.push_back(sched.now());
        });
      }

      const bool wants_coll = spec.workload == Workload::kAllreduce ||
                              spec.workload == Workload::kHalo ||
                              spec.workload == Workload::kMixed;
      const bool wants_pingpong = spec.workload == Workload::kPingPong ||
                                  spec.workload == Workload::kMixed;

      std::optional<coll::Communicator> comm;
      if (wants_coll) {
        coll::CollConfig ccfg;
        ccfg.pipeline_seg_bytes = 4096;
        ccfg.staging_slots = 2;
        ccfg.sync = sync;
        ccfg.flag_timeout_ps = kFlagTimeoutPs;
        auto comm_result = coll::Communicator::create(rt, ccfg);
        if (!comm_result.is_ok()) {
          violate("communicator construction failed: " +
                  comm_result.status().to_string());
        } else {
          comm.emplace(std::move(comm_result).value());
        }
      }

      // --- Workload setup + spawn ---------------------------------------
      std::vector<TaskSlot> slots;
      bool setup_ok = !wants_coll || comm.has_value();

      // Allreduce state. Seed-scaled payload straddles the eager/ring
      // crossover: n*64 doubles (512 B/rank at n=8) rides eager, n*256
      // doubles rides the chained-DMA ring pipeline.
      std::vector<api::Buffer> ar_bufs;
      const std::uint64_t ar_count = n * (1 + spec.seed % 4) * 64;
      // Halo state: 1/2/4 KiB per direction — the 4 KiB draw crosses the
      // eager threshold onto the DMA staging path.
      std::vector<api::Buffer> halo_bufs;
      const std::uint64_t kHaloBytes = 1024ull << (spec.seed % 3);
      // PingPong state.
      std::vector<api::Buffer> pp_send_fwd, pp_send_rev, pp_recv_fwd,
          pp_recv_rev;
      constexpr std::uint64_t kPpBytes = 4096;
      const std::vector<std::uint32_t> ring = spec.topology.ring_order();
      std::vector<std::uint32_t> ring_pos(n);
      for (std::uint32_t p = 0; p < n; ++p) ring_pos[ring[p]] = p;
      auto ring_next = [&](std::uint32_t r) { return ring[(ring_pos[r] + 1) % n]; };
      auto ring_prev = [&](std::uint32_t r) {
        return ring[(ring_pos[r] + n - 1) % n];
      };

      if (setup_ok && (spec.workload == Workload::kAllreduce ||
                       spec.workload == Workload::kMixed)) {
        for (std::uint32_t r = 0; r < n && setup_ok; ++r) {
          auto buf = rt.alloc_host(r, ar_count * sizeof(double));
          if (!buf.is_ok()) {
            violate("allreduce alloc failed on node " + std::to_string(r) +
                    ": " + buf.status().to_string());
            setup_ok = false;
            break;
          }
          std::vector<double> init(ar_count);
          for (std::uint64_t j = 0; j < ar_count; ++j) {
            init[j] = init_value(spec.seed, r, j);
          }
          rt.write(buf.value(), 0,
                   std::as_bytes(std::span<const double>(init)));
          ar_bufs.push_back(buf.value());
        }
      }
      if (setup_ok && spec.workload == Workload::kHalo) {
        for (std::uint32_t r = 0; r < n && setup_ok; ++r) {
          auto buf = rt.alloc_host(r, 4 * kHaloBytes);
          if (!buf.is_ok()) {
            violate("halo alloc failed on node " + std::to_string(r) + ": " +
                    buf.status().to_string());
            setup_ok = false;
            break;
          }
          std::vector<std::byte> region(kHaloBytes);
          for (std::uint64_t j = 0; j < kHaloBytes; ++j) {
            region[j] = pattern_byte(spec.seed, r, 0, j);
          }
          rt.write(buf.value(), 0, region);  // send_to_next
          for (std::uint64_t j = 0; j < kHaloBytes; ++j) {
            region[j] = pattern_byte(spec.seed, r, 1, j);
          }
          rt.write(buf.value(), kHaloBytes, region);  // send_to_prev
          halo_bufs.push_back(buf.value());
        }
      }
      if (setup_ok && wants_pingpong) {
        for (std::uint32_t r = 0; r < n && setup_ok; ++r) {
          auto mk = [&](std::vector<api::Buffer>& into,
                        int stream) -> bool {
            auto buf = rt.alloc_host(r, kPpBytes);
            if (!buf.is_ok()) {
              violate("pingpong alloc failed on node " + std::to_string(r) +
                      ": " + buf.status().to_string());
              return false;
            }
            if (stream >= 0) {
              std::vector<std::byte> fill(kPpBytes);
              for (std::uint64_t j = 0; j < kPpBytes; ++j) {
                fill[j] = pattern_byte(spec.seed, r, 2 + stream, j);
              }
              rt.write(buf.value(), 0, fill);
            }
            into.push_back(buf.value());
            return true;
          };
          setup_ok = mk(pp_send_fwd, 0) && mk(pp_send_rev, 1) &&
                     mk(pp_recv_fwd, -1) && mk(pp_recv_rev, -1);
        }
      }

      // Slot layout: [0,n) allreduce ranks, then n halo ranks or 2n
      // pingpong ops, in workload order. Reserve before spawning — tasks
      // hold raw pointers into the vector.
      std::size_t slot_count = 0;
      if (setup_ok) {
        if (spec.workload == Workload::kAllreduce) slot_count = n;
        if (spec.workload == Workload::kHalo) slot_count = n;
        if (spec.workload == Workload::kPingPong) slot_count = 2 * n;
        if (spec.workload == Workload::kMixed) slot_count = 3 * n;
      }
      slots.resize(slot_count);

      if (setup_ok) {
        std::size_t next_slot = 0;
        if (spec.workload == Workload::kAllreduce ||
            spec.workload == Workload::kMixed) {
          for (std::uint32_t r = 0; r < n; ++r) {
            sim::spawn(allreduce_rank(&*comm, r, ar_bufs[r], ar_count,
                                      &slots[next_slot++]));
          }
        }
        if (spec.workload == Workload::kHalo) {
          for (std::uint32_t r = 0; r < n; ++r) {
            coll::HaloSpec hs;
            hs.buf = halo_bufs[r];
            hs.send_to_next_off = 0;
            hs.send_to_prev_off = kHaloBytes;
            hs.recv_from_prev_off = 2 * kHaloBytes;
            hs.recv_from_next_off = 3 * kHaloBytes;
            hs.bytes = kHaloBytes;
            sim::spawn(halo_rank(&*comm, r, hs, &slots[next_slot++]));
          }
        }
        if (wants_pingpong) {
          for (std::uint32_t r = 0; r < n; ++r) {
            sim::spawn(pingpong_node(
                &rt, pp_send_fwd[r], pp_recv_fwd[ring_next(r)],
                pp_send_rev[r], pp_recv_rev[ring_prev(r)], kPpBytes, sync,
                &slots[next_slot], &slots[next_slot + 1]));
            next_slot += 2;
          }
        }
      }

      // --- Run -----------------------------------------------------------
      sched.run_for(kHorizonPs);

      bool wedged = false;
      for (std::size_t i = 0; i < slots.size(); ++i) {
        if (!slots[i].done) {
          wedged = true;
          violate("no-wedge: workload task " + std::to_string(i) +
                  " still pending at the " +
                  units::format_time(kHorizonPs) + " horizon");
        }
      }
      // Drain fault-plan tails (window closes, retrains) so end-state
      // invariants see quiescence. Skipped when wedged: a hung poller
      // would spin this drain forever.
      if (!wedged) sched.run();
      result.sim_end_ps = sched.now();

      // --- Invariants -----------------------------------------------------
      for (std::size_t i = 0; i < slots.size(); ++i) {
        if (!slots[i].done) continue;
        if (!clean_status(slots[i].status)) {
          violate("status vocabulary: task " + std::to_string(i) +
                  " returned " + slots[i].status.to_string());
        }
        if (slots[i].status.is_ok()) {
          ++result.ops_ok;
        } else {
          ++result.ops_failed;
        }
      }

      for (std::size_t i = 1; i < heartbeats.size(); ++i) {
        if (heartbeats[i] <= heartbeats[i - 1]) {
          violate("monotonic time: heartbeat " + std::to_string(i) +
                  " observed " + std::to_string(heartbeats[i]) +
                  " ps after " + std::to_string(heartbeats[i - 1]) + " ps");
          break;
        }
      }

      // Data integrity, checked only where the protocol promised delivery.
      if (setup_ok && !wedged) {
        if ((spec.workload == Workload::kAllreduce ||
             spec.workload == Workload::kMixed)) {
          bool all_ok = true;
          for (std::uint32_t r = 0; r < n; ++r) {
            all_ok = all_ok && slots[r].status.is_ok();
          }
          if (all_ok) {
            std::vector<double> expected(ar_count);
            for (std::uint64_t j = 0; j < ar_count; ++j) {
              double sum = 0;
              for (std::uint32_t r = 0; r < n; ++r) {
                sum += init_value(spec.seed, r, j);
              }
              expected[j] = sum;
            }
            std::vector<double> got(ar_count);
            for (std::uint32_t r = 0; r < n; ++r) {
              rt.read(ar_bufs[r], 0,
                      std::as_writable_bytes(std::span<double>(got)));
              for (std::uint64_t j = 0; j < ar_count; ++j) {
                if (got[j] != expected[j]) {
                  violate("data: allreduce rank " + std::to_string(r) +
                          " element " + std::to_string(j) + " = " +
                          std::to_string(got[j]) + ", want " +
                          std::to_string(expected[j]));
                  break;
                }
              }
            }
          }
        }
        if (spec.workload == Workload::kHalo) {
          std::vector<std::byte> got(kHaloBytes);
          for (std::uint32_t r = 0; r < n; ++r) {
            const std::uint32_t prev = ring_prev(r);
            const std::uint32_t next = ring_next(r);
            if (!slots[r].status.is_ok() || !slots[prev].status.is_ok() ||
                !slots[next].status.is_ok()) {
              continue;
            }
            rt.read(halo_bufs[r], 2 * kHaloBytes, got);
            for (std::uint64_t j = 0; j < kHaloBytes; ++j) {
              if (got[j] != pattern_byte(spec.seed, prev, 0, j)) {
                violate("data: halo rank " + std::to_string(r) +
                        " recv_from_prev byte " + std::to_string(j) +
                        " wrong");
                break;
              }
            }
            rt.read(halo_bufs[r], 3 * kHaloBytes, got);
            for (std::uint64_t j = 0; j < kHaloBytes; ++j) {
              if (got[j] != pattern_byte(spec.seed, next, 1, j)) {
                violate("data: halo rank " + std::to_string(r) +
                        " recv_from_next byte " + std::to_string(j) +
                        " wrong");
                break;
              }
            }
          }
        }
        if (wants_pingpong) {
          const std::size_t base =
              spec.workload == Workload::kMixed ? n : 0;
          std::vector<std::byte> got(kPpBytes);
          for (std::uint32_t r = 0; r < n; ++r) {
            // recv_fwd[r] was written by ring_prev(r)'s forward op.
            const std::uint32_t pf = ring_prev(r);
            if (slots[base + 2 * pf].status.is_ok()) {
              rt.read(pp_recv_fwd[r], 0, got);
              for (std::uint64_t j = 0; j < kPpBytes; ++j) {
                if (got[j] != pattern_byte(spec.seed, pf, 2, j)) {
                  violate("data: pingpong fwd into node " +
                          std::to_string(r) + " byte " + std::to_string(j) +
                          " wrong");
                  break;
                }
              }
            }
            // recv_rev[r] was written by ring_next(r)'s reverse op.
            const std::uint32_t pr = ring_next(r);
            if (slots[base + 2 * pr + 1].status.is_ok()) {
              rt.read(pp_recv_rev[r], 0, got);
              for (std::uint64_t j = 0; j < kPpBytes; ++j) {
                if (got[j] != pattern_byte(spec.seed, pr, 3, j)) {
                  violate("data: pingpong rev into node " +
                          std::to_string(r) + " byte " + std::to_string(j) +
                          " wrong");
                  break;
                }
              }
            }
          }
        }
      }

      // Hardware-counter invariants via the metrics surface.
      obs::MetricRegistry reg;
      if (comm.has_value()) {
        comm->export_metrics(reg);
      } else {
        rt.export_metrics(reg);
      }

      const fabric::SubCluster& cluster = rt.cluster();
      for (std::size_t k = 0; k < cluster.cable_count(); ++k) {
        const auto [from, to] = cluster.cable_nodes(k);
        const std::string base = "pcie.cable." + std::to_string(from) + "-" +
                                 std::to_string(to);
        for (const char* dir : {".fwd", ".rev"}) {
          const std::string p = base + dir;
          const std::uint64_t tlps = reg.counter_value(p + ".tlps");
          const std::uint64_t wire = reg.counter_value(p + ".wire_bytes");
          const std::uint64_t payload =
              reg.counter_value(p + ".payload_bytes");
          const std::uint64_t want =
              payload + calib::kTlpWithDataOverheadBytes * tlps;
          if (wire != want) {
            violate("byte conservation: " + p + " wire_bytes=" +
                    std::to_string(wire) + " != payload_bytes+" +
                    std::to_string(calib::kTlpWithDataOverheadBytes) +
                    "*tlps=" + std::to_string(want));
          }
        }
      }
      if (const std::uint64_t u = reg.counter_value("fabric.unroutable");
          u != 0) {
        violate("routing: fabric.unroutable = " + std::to_string(u));
      }
      if (const std::uint64_t m =
              reg.counter_value("fabric.route_mismatches");
          m != 0) {
        violate("route consistency: " + std::to_string(m) +
                " route registers disagree with the failover view");
      }

      result.failovers = cluster.failovers();
      result.failbacks = cluster.failbacks();
      result.metrics_json = reg.to_json();
      result.metrics_hash = fnv1a64(result.metrics_json);
    }
  }

  result.trace_hash = fnv1a64(trace.to_json());
  return result;
}

// --- Shrinking ---------------------------------------------------------------

ShrinkOutcome shrink_campaign(const CampaignSpec& failing,
                              std::uint32_t max_runs) {
  ShrinkOutcome out;
  CampaignSpec spec = failing;
  if (spec.plan.empty()) {
    spec.plan = generate_fault_plan(spec.seed, spec.topology);
  }
  out.original_events = spec.plan.events.size();

  auto fails = [&out](const CampaignSpec& s) {
    ++out.runs;
    return !run_campaign(s).passed();
  };

  if (!fails(spec)) {
    out.minimized = spec;
    out.minimized_events = spec.plan.events.size();
    return out;  // reproduced stays false: nothing to shrink
  }
  out.reproduced = true;

  // ddmin, complement-removal form: try dropping each of `granularity`
  // chunks; on success restart at coarse granularity, otherwise refine
  // until chunks are single events.
  std::vector<fabric::FaultEvent> events = spec.plan.events;
  std::size_t granularity = 2;
  while (events.size() >= 2 && out.runs < max_runs) {
    granularity = std::min(granularity, events.size());
    const std::size_t chunk =
        (events.size() + granularity - 1) / granularity;
    bool reduced = false;
    for (std::size_t start = 0; start < events.size() && out.runs < max_runs;
         start += chunk) {
      std::vector<fabric::FaultEvent> rest;
      rest.reserve(events.size());
      rest.insert(rest.end(), events.begin(),
                  events.begin() + static_cast<std::ptrdiff_t>(start));
      rest.insert(rest.end(),
                  events.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(events.size(), start + chunk)),
                  events.end());
      if (rest.empty()) continue;
      CampaignSpec trial = spec;
      trial.plan.events = rest;
      if (fails(trial)) {
        events = std::move(rest);
        granularity = 2;
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (granularity >= events.size()) break;  // 1-minimal
      granularity *= 2;
    }
  }

  spec.plan.events = std::move(events);
  out.minimized = spec;
  out.minimized_events = spec.plan.events.size();
  return out;
}

}  // namespace tca::chaos
