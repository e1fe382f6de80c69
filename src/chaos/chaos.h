// Chaos campaign engine (`tca::chaos`).
//
// The fault-recovery machinery grown across the last PRs — link flaps with
// NIOS-serviced route failover, BER bursts, stuck doorbells, chain watchdogs
// with bounded retry, reachability-gated kUnreachable — was exercised by
// hand-written scenarios. This module turns that into *campaigns*: a seeded
// generator draws a random FaultPlan scaled to the topology, composes it
// with a real workload (collective, halo exchange, peer pingpong, or a mix)
// over a ring / dual-ring / torus fabric, runs the whole thing under the
// deterministic scheduler, and then audits **system invariants** that must
// hold for every seed:
//
//  * Byte conservation — on every cable port, wire_bytes equals
//    payload_bytes + 24 * tlps exactly (the fabric carries only MemWrite
//    TLPs and 24-byte VendorMsg acks; replays increment all three
//    consistently). Bytes are never created or destroyed by a fault.
//  * No wedge — every spawned workload task either completes or returns a
//    clean failure (kTimedOut / kLinkDown / kUnreachable) before
//    the campaign horizon. Nothing hangs.
//  * Route consistency — after the dust settles, every routing register
//    agrees with what the failover logic would program for the firmware's
//    current cable view (SubCluster::route_mismatches() == 0).
//  * No unroutable traffic — the address-range tables never steer a TLP
//    off the fabric (fabric.unroutable == 0).
//  * Monotonic time — heartbeat probes observe strictly increasing
//    simulated time across the campaign.
//  * Determinism — a campaign is a pure function of its spec: trace and
//    metric snapshots hash identically on every replay (which the CLI's
//    --replay-check exercises).
//  * Data integrity — when a workload reports success, the payload it
//    delivered is verified element-for-element (initial values are small
//    integers, so floating-point sums are exact and fold-order-free).
//
// A failing campaign is delta-debugged (`shrink_campaign`): the FaultPlan's
// event list is ddmin-reduced to a locally minimal reproducer, rendered via
// FaultPlan::to_string(), and checked into tests/chaos/ as a regression
// corpus that replays forever after.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/units.h"
#include "fabric/fault_plan.h"
#include "fabric/topology.h"

namespace tca::chaos {

/// Workload a campaign drives while the fault plan fires.
enum class Workload : std::uint8_t {
  kAllreduce,  ///< coll::Communicator::allreduce_sum on every rank
  kHalo,       ///< coll::Communicator::neighbor_exchange on every rank
  kPingPong,   ///< raw memcpy_peer_reliable ring, both directions
  kMixed,      ///< allreduce and pingpong concurrently
};

const char* to_string(Workload w);
Result<Workload> parse_workload(std::string_view text);

/// Parses the campaign grammar's topology token: "ring:N", "dual-ring:N" or
/// "torus:XxY[xZ]". Unlike TopologySpec::parse, ring node counts ride in
/// the token itself — a campaign spec is self-contained.
Result<fabric::TopologySpec> parse_topology(std::string_view text);
/// Inverse of parse_topology ("ring:8", "torus:4x4x4", ...).
std::string topology_to_string(const fabric::TopologySpec& topo);

/// One campaign: everything run_campaign needs, serializable for the
/// regression corpus. A default-constructed spec runs seed 1 over a 4-node
/// ring with a generated fault plan.
struct CampaignSpec {
  std::uint64_t seed = 1;
  fabric::TopologySpec topology = fabric::TopologySpec::ring(4);
  Workload workload = Workload::kAllreduce;
  /// Fault schedule. Empty means "generate from seed" — shrinking and the
  /// corpus always materialize it explicitly.
  fabric::FaultPlan plan;

  /// Line-oriented rendering (the .campaign corpus format):
  ///   seed=42
  ///   topology=torus:4x4
  ///   workload=allreduce
  ///   plan=cut:cable=0,at=5us;flap:cable=2,at=10us,for=40us
  /// '#' starts a comment line; parse() rejects unknown or duplicate keys.
  [[nodiscard]] std::string to_string() const;
  static Result<CampaignSpec> parse(std::string_view text);
};

/// Everything a campaign audit produced. `violations` is empty iff every
/// invariant held; each entry names the invariant and the observed values.
struct CampaignResult {
  std::vector<std::string> violations;
  /// FNV-1a fingerprints of the full trace / metrics JSON — the replay
  /// determinism gate compares these across runs.
  std::uint64_t trace_hash = 0;
  std::uint64_t metrics_hash = 0;
  std::string metrics_json;
  TimePs sim_end_ps = 0;
  std::uint32_t ops_ok = 0;      ///< workload tasks that returned kOk
  std::uint32_t ops_failed = 0;  ///< tasks that returned a clean failure
  std::uint64_t failovers = 0;
  std::uint64_t failbacks = 0;

  [[nodiscard]] bool passed() const { return violations.empty(); }
};

/// Draws a seeded-random FaultPlan scaled to `topo`: 1..12 events mixing
/// flaps (including back-to-back sub-failover-latency blips), permanent
/// cuts, explicit retrains, BER bursts (rates from a fixed
/// round-trip-exact table) and stuck doorbells, with overlapping windows.
/// Deterministic: same (seed, topo) always yields the same plan, and the
/// plan round-trips through FaultPlan::parse/to_string exactly.
fabric::FaultPlan generate_fault_plan(std::uint64_t seed,
                                      const fabric::TopologySpec& topo);

/// Builds the fabric, applies the plan, drives the workload, audits every
/// invariant. Pure function of `spec`: the campaign records into a trace of
/// its own, whose JSON `trace_hash` digests.
CampaignResult run_campaign(const CampaignSpec& spec);

/// shrink_campaign's report: the locally-minimal failing spec plus how much
/// work the reduction took.
struct ShrinkOutcome {
  CampaignSpec minimized;
  std::uint32_t runs = 0;  ///< campaigns executed during reduction
  std::size_t original_events = 0;
  std::size_t minimized_events = 0;
  /// False when the input unexpectedly passed (nothing to shrink).
  bool reproduced = false;
};

/// ddmin over the failing spec's fault events: repeatedly re-runs the
/// campaign with event subsets removed until no single removal still fails,
/// bounded by `max_runs` campaigns. The returned spec always has its plan
/// materialized (generated plans are made explicit first) so the rendering
/// is a self-contained reproducer.
ShrinkOutcome shrink_campaign(const CampaignSpec& failing,
                              std::uint32_t max_runs = 64);

}  // namespace tca::chaos
