#include "fabric/sub_cluster.h"

#include "common/log.h"
#include "common/trace.h"
#include "peach2/dmac.h"
#include "peach2/nios.h"

namespace tca::fabric {

using peach2::Peach2Chip;
using peach2::Peach2Config;
using peach2::PortId;
using peach2::RouteEntry;
using peach2::TcaLayout;
using peach2::torus_minus_port;
using peach2::torus_plus_port;

namespace {

pcie::LinkConfig cable_config(std::uint32_t from, std::uint32_t to,
                              double bit_error_rate) {
  // PCIe external cable between boards: Gen2 x8 with repeater/propagation
  // latency (Section III-G). Shallow egress queue — see the PEACH2 slot
  // link: backpressure must reach the DMA engine promptly.
  return {.gen = 2,
          .lanes = 8,
          .propagation_ps = calib::kCableLatencyPs,
          .tx_queue_bytes = 600,
          .name = "cable/" + std::to_string(from) + "-" +
                  std::to_string(to),
          .bit_error_rate = bit_error_rate,
          .error_seed = 0x5EED0000ull + from * 97 + to};
}

}  // namespace

SubCluster::SubCluster(sim::Scheduler& sched, const SubClusterConfig& config)
    : sched_(sched), cfg_(config) {
  const Status topo_ok = cfg_.spec.validate();
  TCA_ASSERT(topo_ok.is_ok());
  const std::uint32_t n = cfg_.spec.node_count();
  auto layout_result =
      TcaLayout::create(calib::kTcaWindowBase, calib::kTcaWindowBytes, n);
  TCA_ASSERT(layout_result.is_ok());
  layout_ = layout_result.value();

  for (std::uint32_t i = 0; i < n; ++i) {
    auto& cn = nodes_.emplace_back(std::make_unique<node::ComputeNode>(
        sched, static_cast<int>(i), config.node_config));

    Peach2Config pcfg{
        .device_id = static_cast<pcie::DeviceId>(i * 16 + 8),
        .node_id = i,
        .layout = layout_,
        .reg_base = node::layout::kPeach2RegBase,
        .local_gpu0_base = node::layout::gpu_bar_base(0),
        .local_gpu1_base = node::layout::gpu_bar_base(1),
        .local_host_base = node::layout::kHostBase,
    };
    auto& chip = chips_.emplace_back(std::make_unique<Peach2Chip>(sched, pcfg));
    pcie::LinkPort& slot = cn->attach_peach2_slot(
        pcfg.device_id, node::layout::kPeach2RegBase,
        /*claim_tca_window=*/true);
    chip->attach_port(PortId::kNorth, slot);
    drivers_.emplace_back(
        std::make_unique<driver::Peach2Driver>(*cn, *chip));
  }

  plus_cable_.assign(n, {kNoCable, kNoCable, kNoCable});
  minus_cable_.assign(n, {kNoCable, kNoCable, kNoCable});

  if (cfg_.spec.kind() == TopologySpec::Kind::kDualRing) {
    const std::uint32_t half = n / 2;
    wire_ring(0, half);
    wire_ring(half, half);
    // South cross-links pair node i with node i + half.
    for (std::uint32_t i = 0; i < half; ++i) {
      add_cable(i, i + half, 1, PortId::kSouth, PortId::kSouth);
    }
    program_dual_ring_routes();
    cable_usable_.assign(cables_.size(), true);
  } else {
    wire_torus();
    program_torus_routes();
    cable_usable_.assign(cables_.size(), true);
    if (config.enable_failover) arm_failover();
  }

  if (!config.fault_plan.empty()) {
    // Runtime::create surfaces this as a Status before construction; the
    // assert here is the backstop for direct SubCluster users. An
    // out-of-range event would otherwise never fire and the campaign would
    // silently test a quieter fabric than it claims.
    const Status plan_ok = cfg_.fault_plan.validate(cfg_.spec);
    if (!plan_ok.is_ok()) {
      Log::write(LogLevel::kError, sched_.now(), "fabric",
                 plan_ok.to_string());
    }
    TCA_ASSERT(plan_ok.is_ok());
    schedule_faults();
  }
}

void SubCluster::add_cable(std::uint32_t from, std::uint32_t to,
                           std::uint32_t dim, PortId from_port,
                           PortId to_port) {
  auto& cable = cables_.emplace_back(std::make_unique<pcie::PcieLink>(
      sched_, cable_config(from, to, cfg_.cable_bit_error_rate)));
  const CableId id = cables_.size() - 1;
  cable_ends_.emplace_back(from, to);
  cable_dim_.push_back(dim);
  chips_[from]->attach_port(from_port, cable->end_a());
  chips_[to]->attach_port(to_port, cable->end_b());
  if (from_port == torus_plus_port(dim)) plus_cable_[from][dim] = id;
  if (to_port == torus_minus_port(dim)) minus_cable_[to][dim] = id;
}

void SubCluster::wire_ring(std::uint32_t first, std::uint32_t count) {
  if (count < 2) return;
  // A 2-node ring degenerates to two cables between the same pair of
  // boards (E0-W1 and E1-W0), which is exactly how two PEACH2 boards are
  // cabled back to back.
  for (std::uint32_t k = 0; k < count; ++k) {
    const std::uint32_t i = first + k;
    const std::uint32_t j = first + (k + 1) % count;
    add_cable(i, j, 0, PortId::kEast, PortId::kWest);
  }
}

void SubCluster::wire_torus() {
  // One cable ring per dimension, dimension 0 first; rings within a
  // dimension in ascending base-node order. For a 1D torus (and the ring
  // topology) this is cable (k, k+1 % n) for k ascending — byte-identical
  // to the paper's E/W ring wiring, names and error seeds included.
  const std::uint32_t n = cfg_.spec.node_count();
  for (std::uint32_t d = 0; d < cfg_.spec.dims(); ++d) {
    const std::uint32_t extent = cfg_.spec.extent(d);
    for (std::uint32_t base = 0; base < n; ++base) {
      if (cfg_.spec.coords(base)[d] != 0) continue;
      for (std::uint32_t k = 0; k < extent; ++k) {
        auto ci = cfg_.spec.coords(base);
        auto cj = ci;
        ci[d] = k;
        cj[d] = (k + 1) % extent;
        add_cable(cfg_.spec.node_at(ci), cfg_.spec.node_at(cj), d,
                  torus_plus_port(d), torus_minus_port(d));
      }
    }
  }
}

void SubCluster::program_torus_routes() {
  // Dimension-order routing from the highest dimension down, compressed to
  // address-range entries (Fig. 5): destinations in a wrong plane of the
  // top dimension occupy one contiguous id range (one entry), wrong rows of
  // the right plane another, and only same-row targets need single-slice
  // entries — sum(extent_d - 1) entries per node. First-match order places
  // the high-dimension ranges first, which is exactly dimension order.
  const std::uint64_t slice = layout_.slice_size();
  const std::uint32_t n = cfg_.spec.node_count();
  for (std::uint32_t a = 0; a < n; ++a) {
    const auto ca = cfg_.spec.coords(a);
    std::size_t entry_index = 0;
    for (std::uint32_t d = cfg_.spec.dims(); d-- > 0;) {
      const std::uint32_t extent = cfg_.spec.extent(d);
      for (std::uint32_t t = 0; t < extent; ++t) {
        if (t == ca[d]) continue;
        // Range: higher dims fixed to our own coordinates, dim d at t,
        // lower dims spanning their full extent. Ids are linearized x
        // fastest, so the covered destinations are contiguous.
        auto lo = ca;
        auto hi = ca;
        lo[d] = hi[d] = t;
        for (std::uint32_t l = 0; l < d; ++l) {
          lo[l] = 0;
          hi[l] = cfg_.spec.extent(l) - 1;
        }
        const std::uint32_t plus = (t + extent - ca[d]) % extent;
        const std::uint32_t minus = (ca[d] + extent - t) % extent;
        const PortId port =
            plus <= minus ? torus_plus_port(d) : torus_minus_port(d);
        const Status st = chips_[a]->routing().add(RouteEntry{
            .mask = ~(slice - 1),
            .lower = layout_.slice_base(cfg_.spec.node_at(lo)),
            .upper = layout_.slice_base(cfg_.spec.node_at(hi)),
            .port = port,
        });
        TCA_ASSERT(st.is_ok());
        route_records_.push_back(RouteRecord{a, d, t, entry_index++});
      }
    }
  }
}

void SubCluster::program_ring_routes(std::uint32_t first,
                                     std::uint32_t count) {
  const std::uint64_t slice = layout_.slice_size();
  for (std::uint32_t a = 0; a < count; ++a) {
    for (std::uint32_t b = 0; b < count; ++b) {
      if (a == b) continue;
      const std::uint32_t cw = (b + count - a) % count;   // hops going East
      const std::uint32_t ccw = (a + count - b) % count;  // hops going West
      const PortId port = cw <= ccw ? PortId::kEast : PortId::kWest;
      const Status st = chips_[first + a]->routing().add(RouteEntry{
          .mask = ~(slice - 1),
          .lower = layout_.slice_base(first + b),
          .upper = layout_.slice_base(first + b),
          .port = port,
      });
      TCA_ASSERT(st.is_ok());
    }
  }
}

void SubCluster::program_dual_ring_routes() {
  const std::uint32_t half = cfg_.spec.node_count() / 2;
  const std::uint64_t slice = layout_.slice_size();
  program_ring_routes(0, half);
  program_ring_routes(half, half);
  // Destinations in the other ring: cross at the paired node first, then
  // ride that ring. Each node needs an S entry for every cross-ring slice;
  // the ring entries at the far side take over after the hop.
  for (std::uint32_t i = 0; i < cfg_.spec.node_count(); ++i) {
    const bool in_first = i < half;
    const std::uint32_t p = i % half;  // position within own ring
    const std::uint32_t other_base = in_first ? half : 0;
    for (std::uint32_t q = 0; q < half; ++q) {
      const std::uint32_t dest = other_base + q;
      // Cross South at the node that pairs with the destination: if we are
      // at the pairing position, hop rings; otherwise ride our ring toward
      // that position (shortest direction).
      PortId port;
      if (p == q) {
        port = PortId::kSouth;
      } else {
        const std::uint32_t cw = (q + half - p) % half;
        const std::uint32_t ccw = (p + half - q) % half;
        port = cw <= ccw ? PortId::kEast : PortId::kWest;
      }
      const Status st = chips_[i]->routing().add(RouteEntry{
          .mask = ~(slice - 1),
          .lower = layout_.slice_base(dest),
          .upper = layout_.slice_base(dest),
          .port = port,
      });
      TCA_ASSERT(st.is_ok());
    }
  }
}

void SubCluster::arm_failover() {
  // Every fabric port maps to exactly one cable per the plus/minus tables
  // built during wiring; both endpoints report each transition and the
  // first serviced one reroutes. Reroutes stay within the dead cable's
  // dimension ring — the address ranges the entries cover are fixed at
  // construction, only their ports ever flip.
  const std::uint32_t n = cfg_.spec.node_count();
  for (std::uint32_t i = 0; i < n; ++i) {
    chips_[i]->nios().set_link_listener(
        [this, i](PortId port, bool up) {
          CableId cable = kNoCable;
          for (std::uint32_t d = 0; d < cfg_.spec.dims(); ++d) {
            if (port == torus_plus_port(d)) cable = plus_cable_[i][d];
            if (port == torus_minus_port(d)) cable = minus_cable_[i][d];
          }
          if (cable == kNoCable) return;  // N (host slot) or unwired port
          // A transition superseded before the NIOS could service it — a
          // flap shorter than the service delay — is a no-op: the link is
          // already back in its previous state, the link layer's replay
          // absorbs the blip, and rerouting now would abandon held traffic
          // the retrained cable is about to deliver. The counterpart event
          // that restored the state is (or will be) skipped the same way.
          if (cables_[cable]->is_up() != up) return;
          if (cable_usable_[cable] == up) return;  // peer already serviced
          // Servicing a link interrupt reads *current* fabric-wide link
          // state rather than replaying the event log one edge at a time.
          // This keeps multi-cable transitions atomic: a reroute never
          // commits to a detour whose own down event is still queued
          // behind the NIOS service delay, and a mass retrain never
          // staggers through asymmetric intermediate states that would
          // rewrite routes (and quiesce chains) only to rewrite them back
          // a service-tick later.
          std::vector<CableId> newly_dead;
          for (CableId c = 0; c < cables_.size(); ++c) {
            const bool phys = cables_[c]->is_up();
            if (cable_usable_[c] != phys) {
              cable_usable_[c] = phys;
              if (!phys) newly_dead.push_back(c);
            }
          }
          const std::uint32_t changed = reprogram_routes();
          if (changed == 0) return;
          up ? ++failbacks_ : ++failovers_;
          // Traffic already committed to a dead cable must not outlive
          // the reroute: held TLPs replaying after retrain would land as
          // stale duplicates of data the driver retry redelivers the other
          // way. When changed == 0 (no detour exists) nothing is touched —
          // holding in the replay buffers stays the pre-failover behavior.
          for (CableId c : newly_dead) abandon_dead_path(c);
          // A reroute breaks the FIFO-path guarantee the PEARL delivery
          // notification rests on: the ack tags only the *last* TLP of a
          // descriptor, so with part of the descriptor committed to the old
          // path and the rest taking the new one, the ack can arrive while
          // earlier bytes are still stranded — the chain would report ok
          // with a hole in the delivered data. Quiesce every in-flight
          // chain instead; the driver retry layer redelivers them whole
          // over the settled routes.
          quiesce_in_flight_chains();
          Log::write(LogLevel::kInfo, sched_.now(), "fabric",
                     std::string(up ? "failback" : "failover") + ": cable " +
                         std::to_string(cable) + (up ? " up, " : " down, ") +
                         std::to_string(changed) + " routes rewritten");
          if (Trace* trace = sched_.trace()) {
            trace->instant(
                "fabric",
                std::string(up ? "failback" : "failover") + " cable " +
                    std::to_string(cable),
                sched_.now());
          }
        });
  }
}

void SubCluster::abandon_dead_path(CableId cable) {
  // The zombie-replay hazard: TLPs parked for the dead cable (its replay
  // buffers and the endpoint chips' egress FIFOs) would retransmit after
  // retrain, long after the watchdog-driven retry delivered the same
  // transfer via the detour — overwriting staging buffers the protocol has
  // since recycled, while every op still reports success. Once the reroute
  // is in force the held traffic is declared undeliverable instead; the
  // missing remote acks make the retry layer redeliver it.
  auto& link = *cables_[cable];
  std::size_t n = link.end_a().abandon_queued();
  n += link.end_b().abandon_queued();
  const auto [from, to] = cable_ends_[cable];
  const std::uint32_t dim = cable_dim_[cable];
  TCA_ASSERT(plus_cable_[from][dim] == cable &&
             minus_cable_[to][dim] == cable);
  chips_[from]->abandon_egress(torus_plus_port(dim));
  chips_[to]->abandon_egress(torus_minus_port(dim));
  if (n > 0) {
    Log::write(LogLevel::kInfo, sched_.now(), "fabric",
               "failover: abandoned " + std::to_string(n) +
                   " held TLPs on cable " + std::to_string(cable));
  }
}

void SubCluster::quiesce_in_flight_chains() {
  std::uint32_t aborted = 0;
  for (const auto& chip : chips_) {
    for (int ch = 0; ch < calib::kDmaChannels; ++ch) {
      peach2::DmaController& engine = chip->dmac(ch);
      if (engine.busy()) {
        engine.abort(ErrorCode::kLinkDown);
        ++aborted;
      }
    }
  }
  chain_quiesces_ += aborted;
  if (aborted > 0) {
    Log::write(LogLevel::kInfo, sched_.now(), "fabric",
               "route change: quiesced " + std::to_string(aborted) +
                   " in-flight DMA chains");
  }
}

std::uint64_t SubCluster::abandoned_tlps() const {
  std::uint64_t total = 0;
  for (const auto& cable : cables_) {
    total += cable->end_a().abandoned_tlps();
    total += cable->end_b().abandoned_tlps();
  }
  for (const auto& chip : chips_) total += chip->abandoned_tlps();
  return total;
}

CableId SubCluster::ring_cable_at(std::uint32_t node, std::uint32_t dim,
                                  std::uint32_t coord) const {
  auto c = cfg_.spec.coords(node);
  c[dim] = coord;
  return plus_cable_[cfg_.spec.node_at(c)][dim];
}

std::pair<bool, bool> SubCluster::arcs_clean(std::uint32_t node,
                                             std::uint32_t dim,
                                             std::uint32_t target) const {
  const std::uint32_t extent = cfg_.spec.extent(dim);
  const std::uint32_t own = cfg_.spec.coords(node)[dim];
  const std::uint32_t plus = (target + extent - own) % extent;
  const std::uint32_t minus = (own + extent - target) % extent;
  bool plus_clean = true, minus_clean = true;
  for (std::uint32_t h = 0; h < plus; ++h) {
    plus_clean = plus_clean &&
                 cable_usable_[ring_cable_at(node, dim, (own + h) % extent)];
  }
  for (std::uint32_t h = 0; h < minus; ++h) {
    minus_clean = minus_clean &&
                  cable_usable_[ring_cable_at(node, dim,
                                              (own + extent - 1 - h) %
                                                  extent)];
  }
  return {plus_clean, minus_clean};
}

peach2::PortId SubCluster::expected_port(const RouteRecord& r) const {
  const std::uint32_t extent = cfg_.spec.extent(r.dim);
  const std::uint32_t own = cfg_.spec.coords(r.node)[r.dim];
  const std::uint32_t plus = (r.target + extent - own) % extent;
  const std::uint32_t minus = (own + extent - r.target) % extent;
  const auto [plus_clean, minus_clean] = arcs_clean(r.node, r.dim, r.target);
  // Shortest path when both directions are clean — and also when both
  // are dirty: with no usable detour, traffic is held in the replay
  // buffer of the shortest direction, the pre-failover behavior.
  if (plus_clean == minus_clean) {
    return plus <= minus ? torus_plus_port(r.dim) : torus_minus_port(r.dim);
  }
  return plus_clean ? torus_plus_port(r.dim) : torus_minus_port(r.dim);
}

std::uint32_t SubCluster::reprogram_routes() {
  std::uint32_t changed = 0;
  for (const RouteRecord& r : route_records_) {
    const PortId port = expected_port(r);
    RouteEntry& entry = chips_[r.node]->routing().entry_mut(r.entry_index);
    if (entry.port != port) {
      entry.port = port;
      ++changed;
    }
  }
  return changed;
}

std::uint32_t SubCluster::route_mismatches() const {
  std::uint32_t mismatches = 0;
  for (const RouteRecord& r : route_records_) {
    const RouteEntry& entry = chips_[r.node]->routing().entry(r.entry_index);
    if (entry.port != expected_port(r)) ++mismatches;
  }
  return mismatches;
}

bool SubCluster::reachable(std::uint32_t from, std::uint32_t to) const {
  if (from >= size() || to >= size()) return false;
  if (from == to) return true;
  if (cfg_.spec.kind() == TopologySpec::Kind::kDualRing) return true;
  // Walk the dimension-order path: the packet corrects the highest
  // differing dimension first, and the direction choice is made by the
  // ring-entry node (intermediate nodes along a clean arc see a clean
  // sub-arc and keep steering the same way).
  auto cur = cfg_.spec.coords(from);
  const auto dst = cfg_.spec.coords(to);
  for (std::uint32_t d = cfg_.spec.dims(); d-- > 0;) {
    if (cur[d] == dst[d]) continue;
    const auto [plus_clean, minus_clean] =
        arcs_clean(cfg_.spec.node_at(cur), d, dst[d]);
    if (!plus_clean && !minus_clean) return false;
    cur[d] = dst[d];
  }
  return true;
}

void SubCluster::schedule_faults() {
  cable_down_depth_.assign(cables_.size(), 0);
  cable_ber_depth_.assign(cables_.size(), 0);
  dmac_stuck_depth_.assign(size() * calib::kDmaChannels, 0);

  for (const FaultEvent& e : cfg_.fault_plan.events) {
    switch (e.kind) {
      case FaultEvent::Kind::kLinkDown: {
        TCA_ASSERT(e.cable < cables_.size());
        const std::size_t c = e.cable;
        sched_.schedule_after(e.at, [this, c] {
          if (++cable_down_depth_[c] == 1) cables_[c]->set_up(false);
        });
        if (e.duration > 0) {
          // The depth may already be 0 if an explicit kLinkUp cancelled
          // this window before it closed; decrementing past 0 would make a
          // later kLinkDown's ++depth==1 edge test miss and leave the cable
          // silently up.
          sched_.schedule_after(e.at + e.duration, [this, c] {
            if (cable_down_depth_[c] > 0 && --cable_down_depth_[c] == 0) {
              cables_[c]->set_up(true);
            }
          });
        }
        break;
      }
      case FaultEvent::Kind::kLinkUp: {
        TCA_ASSERT(e.cable < cables_.size());
        const std::size_t c = e.cable;
        sched_.schedule_after(e.at, [this, c] {
          cable_down_depth_[c] = 0;  // cancels every open down window
          cables_[c]->set_up(true);
        });
        break;
      }
      case FaultEvent::Kind::kBerBurst: {
        TCA_ASSERT(e.cable < cables_.size());
        const std::size_t c = e.cable;
        const double rate = e.ber;
        sched_.schedule_after(e.at, [this, c, rate] {
          ++cable_ber_depth_[c];
          cables_[c]->set_bit_error_rate(rate);
        });
        sched_.schedule_after(e.at + e.duration, [this, c] {
          if (--cable_ber_depth_[c] == 0) {
            cables_[c]->set_bit_error_rate(cfg_.cable_bit_error_rate);
          }
        });
        break;
      }
      case FaultEvent::Kind::kStuckDoorbell: {
        TCA_ASSERT(e.node < size());
        TCA_ASSERT(e.channel >= 0 && e.channel < calib::kDmaChannels);
        const std::size_t idx =
            e.node * calib::kDmaChannels + static_cast<std::size_t>(e.channel);
        const std::uint32_t node = e.node;
        const int ch = e.channel;
        sched_.schedule_after(e.at, [this, idx, node, ch] {
          if (++dmac_stuck_depth_[idx] == 1) {
            chips_[node]->dmac(ch).set_stuck(true);
          }
        });
        sched_.schedule_after(e.at + e.duration, [this, idx, node, ch] {
          if (--dmac_stuck_depth_[idx] == 0) {
            chips_[node]->dmac(ch).set_stuck(false);
          }
        });
        break;
      }
    }
  }
}

namespace {

/// Exports one link direction's counters under `prefix` and accumulates the
/// fabric roll-up.
void export_port(obs::MetricRegistry& reg, const std::string& prefix,
                 const pcie::LinkPort& port, std::uint64_t* roll) {
  reg.counter(prefix + ".tlps").set(port.tlps_sent());
  reg.counter(prefix + ".wire_bytes").set(port.wire_bytes_sent());
  reg.counter(prefix + ".payload_bytes").set(port.payload_bytes_sent());
  reg.counter(prefix + ".replays").set(port.replays());
  reg.counter(prefix + ".dropped").set(port.dropped_tlps());
  reg.counter(prefix + ".credit_stall_ps")
      .set(static_cast<std::uint64_t>(port.credit_stall_ps()));
  roll[0] += port.tlps_sent();
  roll[1] += port.wire_bytes_sent();
  roll[2] += port.payload_bytes_sent();
  roll[3] += port.replays();
  roll[4] += static_cast<std::uint64_t>(port.credit_stall_ps());
  roll[5] += port.dropped_tlps();
}

}  // namespace

void SubCluster::export_metrics(obs::MetricRegistry& reg) const {
  reg.gauge("fabric.node_count").set(size());
  reg.gauge("fabric.cable_count").set(static_cast<double>(cables_.size()));

  // Inter-node cables. "fwd" is the end_a -> end_b direction, which by
  // wiring convention is `from` -> `to` of cable_nodes().
  std::uint64_t link_roll[6] = {};  // tlps, wire, payload, replays, stall,
                                    // dropped
  for (std::size_t k = 0; k < cables_.size(); ++k) {
    const auto [from, to] = cable_ends_[k];
    const std::string base = "pcie.cable." + std::to_string(from) + "-" +
                             std::to_string(to);
    export_port(reg, base + ".fwd", cables_[k]->end_a(), link_roll);
    export_port(reg, base + ".rev", cables_[k]->end_b(), link_roll);
  }
  reg.counter("fabric.tlps").set(link_roll[0]);
  reg.counter("fabric.wire_bytes").set(link_roll[1]);
  reg.counter("fabric.payload_bytes").set(link_roll[2]);
  reg.counter("fabric.replays").set(link_roll[3]);
  reg.counter("fabric.credit_stall_ps").set(link_roll[4]);
  reg.counter("fabric.link_dropped_tlps").set(link_roll[5]);
  reg.counter("fabric.failovers").set(failovers_);
  reg.counter("fabric.failbacks").set(failbacks_);
  reg.counter("fabric.abandoned_tlps").set(abandoned_tlps());
  reg.counter("fabric.chain_quiesces").set(chain_quiesces_);
  reg.counter("fabric.route_mismatches").set(route_mismatches());

  std::uint64_t forwarded = 0, dropped = 0, unroutable = 0;
  std::uint64_t dma_chains = 0, dma_written = 0, dma_read = 0, dma_errors = 0;
  std::uint64_t error_irqs = 0, dma_aborts = 0, dma_timeouts = 0;
  std::uint64_t wd_timeouts = 0, drv_retries = 0;
  static constexpr const char* kPortNames[peach2::kPortCount] = {
      "n", "e", "w", "s", "yn", "zp", "zn"};
  for (std::uint32_t i = 0; i < size(); ++i) {
    const std::string n = "node" + std::to_string(i);
    const Peach2Chip& chip = *chips_[i];
    reg.counter(n + ".peach2.router.forwarded").set(chip.forwarded_tlps());
    reg.counter(n + ".peach2.router.dropped").set(chip.dropped_tlps());
    reg.counter(n + ".peach2.router.unroutable").set(chip.unroutable_tlps());
    reg.counter(n + ".peach2.router.acks_sent").set(chip.acks_sent());
    reg.counter(n + ".peach2.router.mailbox").set(chip.mailbox_count());
    reg.counter(n + ".peach2.error_irqs").set(chip.error_interrupts());
    error_irqs += chip.error_interrupts();
    forwarded += chip.forwarded_tlps();
    dropped += chip.dropped_tlps();
    unroutable += chip.unroutable_tlps();
    for (std::size_t p = 0; p < peach2::kPortCount; ++p) {
      reg.counter(n + ".peach2.port." + kPortNames[p] + ".forwards")
          .set(chip.port_forwards(static_cast<PortId>(p)));
    }

    auto& mutable_chip = *chips_[i];  // dmac() is non-const
    for (int ch = 0; ch < calib::kDmaChannels; ++ch) {
      const auto& d = mutable_chip.dmac(ch);
      const std::string c = n + ".peach2.dmac.ch" + std::to_string(ch);
      reg.counter(c + ".chains").set(d.chains_completed());
      reg.counter(c + ".descriptors").set(d.descriptors_completed());
      reg.counter(c + ".bytes_written").set(d.bytes_written());
      reg.counter(c + ".bytes_read").set(d.bytes_read());
      reg.counter(c + ".errors").set(d.errors());
      reg.counter(c + ".doorbells").set(d.doorbells());
      reg.counter(c + ".table_fetches").set(d.table_fetches());
      reg.counter(c + ".interrupts").set(d.interrupts());
      reg.counter(c + ".aborts").set(d.aborts());
      reg.counter(c + ".completion_timeouts").set(d.completion_timeouts());
      dma_chains += d.chains_completed();
      dma_written += d.bytes_written();
      dma_read += d.bytes_read();
      dma_errors += d.errors();
      dma_aborts += d.aborts();
      dma_timeouts += d.completion_timeouts();
    }

    const auto& drv = *drivers_[i];
    reg.counter(n + ".driver.chains").set(drv.chains_run());
    reg.counter(n + ".driver.pio_stores").set(drv.pio_stores());
    reg.counter(n + ".driver.pio_bytes").set(drv.pio_bytes());
    reg.counter(n + ".driver.watchdog_timeouts").set(drv.watchdog_timeouts());
    reg.counter(n + ".driver.retries").set(drv.chain_retries());
    reg.counter(n + ".driver.error_irqs").set(drv.error_irqs());
    wd_timeouts += drv.watchdog_timeouts();
    drv_retries += drv.chain_retries();
    if (!drv.chain_latency_ps().empty()) {
      reg.histogram(n + ".driver.chain_latency_ps")
          .record_series(drv.chain_latency_ps());
    }

    auto& node_ref = *nodes_[i];
    reg.counter(n + ".cpu.poll_iterations")
        .set(node_ref.cpu().poll_iterations());
    reg.counter(n + ".host.bytes_written")
        .set(node_ref.socket(0).host_bytes_written());
    reg.counter(n + ".host.bytes_read")
        .set(node_ref.socket(0).host_bytes_read());
    reg.counter(n + ".host.unroutable")
        .set(node_ref.socket(0).unroutable_tlps() +
             node_ref.socket(1).unroutable_tlps());
    for (int g = 0; g < node_ref.gpu_count(); ++g) {
      const auto& gpu = node_ref.gpu(g);
      const std::string gp = n + ".gpu" + std::to_string(g);
      reg.counter(gp + ".writes").set(gpu.writes_received());
      reg.counter(gp + ".reads").set(gpu.reads_received());
      reg.counter(gp + ".errors").set(gpu.access_errors());
    }
  }
  reg.counter("fabric.forwarded").set(forwarded);
  reg.counter("fabric.dropped").set(dropped);
  reg.counter("fabric.unroutable").set(unroutable);
  reg.counter("fabric.dma.chains").set(dma_chains);
  reg.counter("fabric.dma.bytes_written").set(dma_written);
  reg.counter("fabric.dma.bytes_read").set(dma_read);
  reg.counter("fabric.dma.errors").set(dma_errors);
  reg.counter("fabric.dma.aborts").set(dma_aborts);
  reg.counter("fabric.dma.completion_timeouts").set(dma_timeouts);
  reg.counter("fabric.error_irqs").set(error_irqs);
  reg.counter("fabric.driver.watchdog_timeouts").set(wd_timeouts);
  reg.counter("fabric.driver.retries").set(drv_retries);
}

}  // namespace tca::fabric
