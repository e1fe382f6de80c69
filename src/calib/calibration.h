// Calibration constants.
//
// Every latency/throughput parameter of the simulator lives here, each
// annotated with the paper quantity (Hanawa et al., IPDPSW 2013) it is
// calibrated against. The model is mechanistic — these constants parameterize
// real protocol machinery (TLP serialization, descriptor engines, routing
// pipelines), they are not curve-fit lookup tables.
//
// Derivation sketch for the DMA engine constants (Section IV-A):
//   * PCIe Gen2 x8 raw rate: 5 GT/s x 8 lanes x 8b/10b = 4.0 GB/s
//     => 250 ps per byte on the wire.
//   * MaxPayloadSize 256 B; per-TLP overhead 16 B TL header + 2 B DLL
//     sequence + 4 B LCRC + 2 B framing = 24 B (the paper's formula), so a
//     256 B payload occupies 280 B => theoretical peak
//     4 GB/s x 256/280 = 3.657 GB/s ("3.66" in the paper).
//   * 255 chained 4 KiB writes measure 3.3 GB/s. 4 KiB = 16 TLPs = 1120 ns
//     wire time, so per-descriptor total must be ~1233 ns:
//     255*4096 B / 3.3 GB/s = 316.5 us = T0 + 255*(t_desc + 1120 ns)
//     with T0 ~ 2.1 us => t_desc ~ 113 ns.
//   * Figure 9: 4 requests reach ~70% of max =>
//     16384 B / (2100 + 4*1233) ns = 2.33 GB/s = 70.6% of 3.3 GB/s.  OK.
//   * Figure 8 single 4 KiB: 4096 B / (2100 + 1233) ns = 1.23 GB/s
//     ("severely degraded").  2x4 KiB chained == 1x8 KiB single (paper's
//     observation that equal total bytes give equal bandwidth).
#pragma once

#include <cstdint>

#include "common/units.h"

namespace tca::calib {

using units::ns;
using units::us;

// ---------------------------------------------------------------------------
// PCIe wire parameters (Section III-A, IV-A)
// ---------------------------------------------------------------------------

/// MaxPayloadSize in the test environment (Section IV-A: "the maximum
/// payload size is 256 bytes").
inline constexpr std::uint32_t kMaxPayloadBytes = 256;

/// MaxReadRequestSize: largest read a requester may ask for in one MRd.
inline constexpr std::uint32_t kMaxReadRequestBytes = 512;

/// Per-TLP overhead for a TLP with data: 16 B transaction-layer header
/// (64-bit address) + 2 B sequence + 4 B LCRC + 1 B STP + 1 B END framing.
/// Exactly the terms in the paper's peak-performance formula.
inline constexpr std::uint32_t kTlpWithDataOverheadBytes = 16 + 2 + 4 + 1 + 1;

/// A memory-read request TLP carries a header but no payload.
inline constexpr std::uint32_t kTlpReadRequestBytes = 16 + 2 + 4 + 1 + 1;

/// Completion-with-data TLP: 12 B (3 DW) header + DLL/PHY overhead.
inline constexpr std::uint32_t kTlpCompletionOverheadBytes = 12 + 2 + 4 + 1 + 1;

// ---------------------------------------------------------------------------
// PEACH2 chip (Section III-D/E/F, IV)
// ---------------------------------------------------------------------------

/// Router pipeline latency per hop: address-range compare + store-and-forward
/// buffer turnaround in the Stratix IV fabric at 250 MHz. One term of the
/// 782 ns adjacent-node PIO latency budget (Section IV-B1).
inline constexpr TimePs kRouteLatencyPs = ns(190);

/// Router per-TLP occupancy. Below the 70 ns wire time of a full 256 B TLP,
/// so forwarding sustains line rate (Figure 12: remote 4 KiB bandwidth equals
/// in-node bandwidth).
inline constexpr TimePs kRouteOccupancyPs = ns(60);

/// DMA engine per-descriptor processing time (descriptor decode, address
/// setup). Calibrated: 255x4 KiB chained writes -> 3.3 GB/s (Figure 7).
inline constexpr TimePs kDescriptorProcessPs = ns(113);

/// One-time fetch of the descriptor table from host memory into the chip
/// ("retrieving the descriptor table is the dominant factor" — Figure 8).
inline constexpr TimePs kDescriptorTableFetchPs = ns(900);

/// Completion interrupt delivery + handler until the driver reads the TSC.
/// The ~250 ns doorbell (an MMIO store, emergent over the register path) +
/// kDescriptorTableFetchPs + kCompletionInterruptPs = 2.1 us, the fixed
/// cost that Figure 9 amortizes over the number of requests.
inline constexpr TimePs kCompletionInterruptPs = ns(950);

/// Residual per-descriptor drain bubble on the DMA *read* path (completion
/// round-trip not fully overlapped at descriptor boundaries). Makes read
/// bandwidth trail write bandwidth below 4 KiB and converge at 4 KiB
/// (Figure 7's read-vs-write relation).
inline constexpr TimePs kReadDescriptorGapPs = ns(100);

/// Non-posted request issue pacing of the DMA read engine (tag allocation,
/// tracking-structure update per MRd). With 512 B read requests this caps
/// the read path slightly below the posted-write path — the paper's "DMA
/// write is better than DMA read ... because read requires a reply".
inline constexpr TimePs kReadIssueIntervalPs = ns(140);

/// Register-file access latency inside the chip (BAR0 MMIO decode).
inline constexpr TimePs kRegAccessPs = ns(100);

/// Data-link-layer replay turnaround: LCRC failure detected at the
/// receiver -> NAK DLLP -> retransmission from the replay buffer. The
/// "Reliable" in PEARL (the link protocol inherits from the dependable-
/// embedded-systems PEACH1 work, reference [5] of the paper).
inline constexpr TimePs kReplayDelayPs = ns(200);

/// Completion timeout for non-posted requests (MRd waiting on a CplD).
/// PCIe AER defines the range A/B mechanism (50 us .. 50 ms); the simulator
/// sits at the aggressive end so fault tests stay fast while remaining far
/// above any legitimate completion latency in the model (~2 us worst case).
inline constexpr TimePs kCompletionTimeoutPs = us(50);

/// Consecutive replays of the *same* TLP before the data-link layer declares
/// the link unreliable and raises the replay-threshold error (the REPLAY_NUM
/// rollover in the PCIe spec escalates to link retrain after 4 attempts).
inline constexpr std::uint32_t kReplayThreshold = 8;

/// Driver chain-watchdog default: how long a kicked chain may run before the
/// driver aborts it. Sized for the largest tier-1 transfers (255 x 4 KiB
/// ~ 320 us) with generous headroom.
inline constexpr TimePs kChainWatchdogPs = us(2000);

/// Driver retry backoff: first wait after an aborted chain, doubled per
/// attempt. Long enough for a NIOS-serviced failover (kServiceDelay = 2 us)
/// plus route reprogramming to land before the doorbell re-rings.
inline constexpr TimePs kRetryBackoffBasePs = us(10);

/// Remote writes carry a PEARL delivery-notification request on each
/// descriptor's final TLP; the destination chip answers with a vendor
/// message to the source chip's mailbox once the bytes actually commit at
/// the memory endpoint. The DMAC overlaps the ack of descriptor i with the
/// transfer of descriptor i+1 (2-deep window for CPU targets), so the
/// per-descriptor cost is max(wire_time, ack_rtt). The ack RTT is
/// *emergent* from the physical path (2 x route latency + cable + wire
/// times, ~600-700 ns) — no constant pins it. This reproduces Figure 12:
/// small remote transfers degraded by inter-PEACH2 latency, 4 KiB equal to
/// in-node.
inline constexpr std::uint32_t kRemoteAckWindow = 2;

/// GPU targets post into the GPU's deep request queue, so descriptor issue
/// is not throttled on their notifications the way CPU targets are — the
/// window is the full 32-tag per-channel rotation, deep enough that the
/// ack stream never gates issue (Figure 12: remote GPU == local GPU at all
/// sizes). The notification itself is still requested and the chain holds
/// completion until every ack is in (complete_chain drains to zero), which
/// is the end-to-end evidence the reliable-put path needs.
inline constexpr std::uint32_t kGpuRemoteAckWindow = 32;

/// PEACH2 internal packet RAM (embedded FPGA memory; Section III-D —
/// a Stratix IV GX530 carries ~20 Mbit of block RAM).
inline constexpr std::uint64_t kInternalRamBytes = 2ull << 20;  // 2 MiB

/// DDR3 SODIMM on the PEACH2 board (packet buffer + NIOS main memory).
/// Modeled backing store; the physical SODIMM is far larger.
inline constexpr std::uint64_t kBoardDramBytes = 8ull << 20;  // 8 MiB

/// Descriptor table capacity: the paper chains up to 255 requests.
inline constexpr std::uint32_t kMaxDescriptors = 255;

/// Independent DMA channels per chip (the production PEACH2 board shipped a
/// multi-channel DMAC; the prototype evaluated in the paper exposes one —
/// channel 0 — which all single-channel paths use).
inline constexpr int kDmaChannels = 4;

/// PEACH2 core clock (Section III-G: "250 MHz, the operating clock frequency
/// of the PCIe Gen2 x8 logic block").
inline constexpr std::uint64_t kPeach2ClockHz = 250'000'000;

// ---------------------------------------------------------------------------
// Host / CPU (Xeon E5-2670 node, Table II)
// ---------------------------------------------------------------------------

/// Uncached MMIO store issue latency (CPU store -> TLP on the N link).
/// Term of the 782 ns PIO latency budget.
inline constexpr TimePs kCpuMmioStorePs = ns(150);

/// Root-complex + DRAM commit latency for an inbound posted write until the
/// data is visible to a polling core.
inline constexpr TimePs kHostWriteCommitPs = ns(160);

/// Host memory read latency seen by a device MRd (root complex + DRAM).
inline constexpr TimePs kHostReadLatencyPs = ns(350);

/// Polling loop granularity (cached spin-read) and mean detection delay.
inline constexpr TimePs kCpuPollIterationPs = ns(50);
inline constexpr TimePs kCpuPollDetectPs = ns(32);

/// Outstanding non-posted tags the PEACH2 DMA engine uses toward the host.
inline constexpr std::uint32_t kDmaReadTags = 32;

/// Cross-socket (QPI) peer-to-peer access: "severely degraded by up to
/// several hundred Mbytes/sec" (Section IV-A2).
inline constexpr double kQpiPeerBytesPerSec = 300e6;
inline constexpr TimePs kQpiExtraLatencyPs = ns(400);

// ---------------------------------------------------------------------------
// GPU (NVIDIA K20, GPUDirect RDMA; Section III-C, IV-A2)
// ---------------------------------------------------------------------------

/// BAR1 write sink: deep request queue, absorbs posted writes at line rate
/// ("the GPU is assumed to be of sufficient size for the request queue").
inline constexpr std::uint32_t kGpuWriteQueueDepth = 64;
/// GDDR write commit: a posted write lands this long after it arrives.
inline constexpr TimePs kGpuWriteCommitPs = ns(40);

/// BAR1 read service: the address-conversion mechanism serializes read
/// completions. 256 B per 308 ns => 831 MB/s, the paper's "maximum DMA read
/// performance is only 830 Mbytes/sec".
inline constexpr std::uint32_t kGpuReadChunkBytes = 256;
inline constexpr TimePs kGpuReadServicePs = ns(308);

/// First-word latency of a BAR1 read (translation miss + GDDR access).
inline constexpr TimePs kGpuReadLatencyPs = ns(1200);

/// GPUDirect RDMA pinning granularity (page-locked BAR window).
inline constexpr std::uint64_t kGpuPinPageBytes = 64ull << 10;  // 64 KiB

/// cudaMemcpy (H2D/D2H over PCIe Gen2 x16): fixed driver/launch overhead plus
/// an effective copy rate. Used by the conventional-path baseline and by
/// tca::coll's source-side D2H staging (which trades this copy for DMA
/// reads at the GPU BAR1 ceiling).
inline constexpr TimePs kCudaMemcpyOverheadPs = us(7);
inline constexpr double kCudaMemcpyBytesPerSec = 5.7e9;

// ---------------------------------------------------------------------------
// TCA fabric (Section III-E, IV-B)
// ---------------------------------------------------------------------------

/// PCIe external cable: propagation + repeater/serdes, a few meters
/// (Section II-B: "the length of the PCIe external cable is limited to
/// several meters").
inline constexpr TimePs kCableLatencyPs = ns(25);

/// TCA global PCIe window reserved by PEACH2 BARs (Section III-E: "current
/// implementation is 512 Gbytes").
inline constexpr std::uint64_t kTcaWindowBytes = 512ull << 30;

/// Base PCIe bus address of the TCA window (aligned to the window size so
/// the routers can decode slices by masked compare alone).
inline constexpr std::uint64_t kTcaWindowBase = 0x80'0000'0000ull;  // 512 GiB

/// Sub-cluster size bounds (Section II-B: "eight to 16 nodes"). Ring and
/// dual-ring topologies keep this paper limit.
inline constexpr std::uint32_t kMaxSubClusterNodes = 16;

/// Torus-scale fabric bound (the APEnet+ direction: 2D/3D tori of FPGA
/// NICs). Upper limit on the product of torus extents; the address window
/// still partitions into power-of-two slices decoded by masked compare.
inline constexpr std::uint32_t kMaxFabricNodes = 1024;

/// Largest cubic torus extent under kMaxFabricNodes (8x8x8 = 512); pins the
/// compile-time route-table capacity check in fabric/topology.cpp.
inline constexpr std::uint32_t kMaxTorusExtent3D = 8;

// ---------------------------------------------------------------------------
// InfiniBand / MPI baseline (Sections I, II-A, IV-B1, V)
// ---------------------------------------------------------------------------

/// MPI short-message (eager) one-way latency over IB QDR. The paper quotes
/// "latency of InfiniBand FDR ... less than 1 usec" for the raw adapter;
/// the MPI-level number includes the protocol stack the TCA avoids.
inline constexpr TimePs kIbMpiEagerLatencyPs = ns(1300);

/// Raw IB QDR adapter-to-adapter latency (verbs level, no MPI).
inline constexpr TimePs kIbRawLatencyPs = ns(950);

/// Effective IB QDR bandwidth per rail (4x QDR = 4 GB/s line rate, ~80%
/// protocol efficiency). HA-PACS uses a dual-rail configuration (Table I).
inline constexpr double kIbBytesPerSecPerRail = 3.2e9;

/// Eager/rendezvous switch-over and the rendezvous handshake cost.
inline constexpr std::uint64_t kIbEagerThresholdBytes = 16ull << 10;
inline constexpr TimePs kIbRendezvousRttPs = ns(2600);

/// MPI library per-call software overhead (matching, queues).
inline constexpr TimePs kMpiSoftwareOverheadPs = ns(300);

/// Host staging copy (memcpy into/out of pinned comm buffers).
inline constexpr double kHostCopyBytesPerSec = 8e9;

}  // namespace tca::calib
