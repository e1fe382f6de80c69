#include "workloads.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "api/tca.h"
#include "calib/calibration.h"
#include "chaos/chaos.h"
#include "coll/communicator.h"
#include "common/hash.h"
#include "common/log.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "sim/scheduler.h"
#include "sim/task.h"
#include "stats.h"

namespace tcabench {
namespace {

using namespace tca;

// --- Small helpers -----------------------------------------------------------

struct Usage {
  double user_s = 0;
  double sys_s = 0;
  double minor_faults = 0;

  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return Usage{
        .user_s = static_cast<double>(ru.ru_utime.tv_sec) +
                  static_cast<double>(ru.ru_utime.tv_usec) / 1e6,
        .sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
                 static_cast<double>(ru.ru_stime.tv_usec) / 1e6,
        .minor_faults = static_cast<double>(ru.ru_minflt)};
  }
  Usage operator-(const Usage& o) const {
    return {user_s - o.user_s, sys_s - o.sys_s, minor_faults - o.minor_faults};
  }
  Usage& operator+=(const Usage& o) {
    user_s += o.user_s;
    sys_s += o.sys_s;
    minor_faults += o.minor_faults;
    return *this;
  }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// One op's outcome. `sim_outputs` holds everything the op computed on the
/// simulated clock; it feeds the digest and the workload's own metrics.
struct OpRecord {
  bool ok = true;
  std::string error;
  bool traced = false;
  std::int64_t host_ns = 0;
  std::int64_t ref_ns = 0;  ///< reference kernel right after the op
  TimePs sim_ps = 0;
  std::uint64_t events = 0;
  std::vector<std::uint64_t> sim_outputs;
  std::vector<double> part_ms;  ///< host ms of the op's sub-steps (chaos)
};

void fail(OpRecord& rec, std::string why) {
  if (!rec.ok) return;
  rec.ok = false;
  rec.error = std::move(why);
}

using Values = std::map<std::string, double>;

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- Layer entry points, wrapped in spans -------------------------------------

std::unique_ptr<api::Runtime> create_runtime(sim::Scheduler& sched,
                                             const api::TcaConfig& cfg,
                                             SpanRecorder& spans) {
  ScopedSpan span(spans, "Runtime::create", SpanRecorder::kNoOp);
  auto rt = api::Runtime::create(sched, cfg);
  if (!rt.is_ok()) {
    throw std::runtime_error("Runtime::create: " + rt.status().to_string());
  }
  return std::make_unique<api::Runtime>(std::move(rt).value());
}

std::unique_ptr<coll::Communicator> create_communicator(
    api::Runtime& rt, const coll::CollConfig& cfg, SpanRecorder& spans) {
  ScopedSpan span(spans, "Communicator::create", SpanRecorder::kNoOp);
  auto comm = coll::Communicator::create(rt, cfg);
  if (!comm.is_ok()) {
    throw std::runtime_error("Communicator::create: " +
                             comm.status().to_string());
  }
  return std::make_unique<coll::Communicator>(std::move(comm).value());
}

api::Buffer alloc_host(api::Runtime& rt, std::uint32_t node,
                       std::uint64_t bytes, SpanRecorder& spans) {
  ScopedSpan span(spans, "Runtime::alloc_host", SpanRecorder::kNoOp);
  auto buf = rt.alloc_host(node, bytes);
  if (!buf.is_ok()) {
    throw std::runtime_error("alloc_host: " + buf.status().to_string());
  }
  return buf.value();
}

api::Buffer alloc_gpu(api::Runtime& rt, std::uint32_t node, std::uint64_t bytes,
                      SpanRecorder& spans) {
  ScopedSpan span(spans, "Runtime::alloc_gpu", SpanRecorder::kNoOp);
  auto buf = rt.alloc_gpu(node, 0, bytes);
  if (!buf.is_ok()) {
    throw std::runtime_error("alloc_gpu: " + buf.status().to_string());
  }
  return buf.value();
}

void write(api::Runtime& rt, const api::Buffer& buf,
           std::span<const std::byte> data, SpanRecorder& spans,
           std::uint64_t op) {
  ScopedSpan span(spans, "Runtime::write", op);
  rt.write(buf, 0, data);
}

void read(api::Runtime& rt, const api::Buffer& buf, std::span<std::byte> out,
          SpanRecorder& spans, std::uint64_t op) {
  ScopedSpan span(spans, "Runtime::read", op);
  rt.read(buf, 0, out);
}

void run_scheduler(sim::Scheduler& sched, SpanRecorder& spans,
                   std::uint64_t op) {
  ScopedSpan span(spans, "Scheduler::run", op);
  sched.run();
}

// --- Workload interface --------------------------------------------------------

class Workload {
 public:
  explicit Workload(SpanRecorder& spans) : spans_(spans) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Set-ups to time; 0 for a workload that builds everything inside its
  /// ops, which then has no setup_s.
  [[nodiscard]] virtual int setups() const { return 7; }
  /// Builds the scheduler, fabric and buffers and fills the inputs.
  virtual void setup() = 0;
  virtual void teardown() = 0;
  /// One closed-loop op, verified.
  virtual void run_op(std::uint64_t op, OpRecord& rec) = 0;
  /// Untimed bookkeeping after an op; `collect` asks for its counters.
  virtual void after_op(OpRecord& /*rec*/, bool /*collect*/) {}
  /// Cumulative hardware counters of what the ops have driven so far.
  virtual void export_counters(obs::MetricRegistry& reg) = 0;
  /// Events processed by the workload's scheduler; 0 if it has none.
  [[nodiscard]] virtual std::uint64_t events() const { return 0; }
  /// Workload-specific per-layer values over the timed ops.
  virtual void layer_values(const std::vector<OpRecord>& /*timed*/,
                            Values& /*out*/) const {}

 protected:
  SpanRecorder& spans_;
};

// --- pio_pingpong ---------------------------------------------------------------
//
// Two-node ring. One op is ~256 round trips: node 0 PIO-copies a 64 B
// payload into node 1 and stores a 4 B sequence flag; node 1 waits for the
// flag, echoes the payload back the same way, and node 0 waits for its
// flag. The echo makes the data check end to end: node 0's receive buffer
// holds the right bytes only if node 1 saw them before its flag.
class PioPingPong final : public Workload {
 public:
  static constexpr std::uint32_t kMaxRoundTrips = 256;
  /// One TLP, well inside memcpy_peer's PIO policy.
  static constexpr std::uint64_t kPayload = 64;
  static_assert(kPayload <= calib::kMaxPayloadBytes);
  static_assert(kPayload <= api::Runtime::kPioThreshold);
  static constexpr TimePs kFlagTimeoutPs = units::ms(1);

  PioPingPong(std::uint64_t seed, SpanRecorder& spans)
      : Workload(spans) {
    Rng rng(seed ^ 0x70696f);
    // 253..256 round trips. A round trip's simulated time does not depend
    // on the payload's bytes (flag polls absorb it), so the op's length is
    // what the seed shapes.
    round_trips_ =
        kMaxRoundTrips - static_cast<std::uint32_t>(rng.next_below(4));
    pattern_.resize(kMaxRoundTrips * kPayload);
    rng.fill(pattern_);
    for (int side = 0; side < 2; ++side) {
      notify_at_[side].assign(round_trips_, 0);
      wait_done_[side].assign(round_trips_, 0);
    }
  }

  void setup() override {
    sched_ = std::make_unique<sim::Scheduler>();
    api::TcaConfig cfg;
    cfg.spec = fabric::TopologySpec::ring(2);
    rt_ = create_runtime(*sched_, cfg, spans_);
    src_ = alloc_host(*rt_, 0, kMaxRoundTrips * kPayload, spans_);
    for (std::uint32_t n = 0; n < 2; ++n) {
      recv_[n] = alloc_host(*rt_, n, kMaxRoundTrips * kPayload, spans_);
      flag_[n] = alloc_host(*rt_, n, 256, spans_);
    }
    write(*rt_, src_, pattern_, spans_, SpanRecorder::kNoOp);
  }

  void teardown() override {
    rt_.reset();
    sched_.reset();
  }

  void run_op(std::uint64_t op, OpRecord& rec) override {
    status_[0] = status_[1] = Status::ok();
    sim::spawn(ping(this, op));
    sim::spawn(pong(this, op));
    const TimePs t0 = sched_->now();
    run_scheduler(*sched_, spans_, op);
    rec.sim_ps = sched_->now() - t0;
    for (int side = 0; side < 2; ++side) {
      if (!status_[side].is_ok()) {
        fail(rec, "node " + std::to_string(side) + ": " +
                      status_[side].to_string());
      }
    }
    // One-way flag latency: notify issued on one side until the peer's
    // wait returns, both directions of every round trip.
    TimePs flag_ps = 0;
    for (std::uint32_t k = 0; k < round_trips_; ++k) {
      flag_ps += (wait_done_[1][k] - notify_at_[0][k]) +
                 (wait_done_[0][k] - notify_at_[1][k]);
    }
    rec.sim_outputs = {static_cast<std::uint64_t>(rec.sim_ps),
                       static_cast<std::uint64_t>(flag_ps)};
    if (rec.ok) verify(op, rec);
  }

  void export_counters(obs::MetricRegistry& reg) override {
    rt_->export_metrics(reg);
  }
  [[nodiscard]] std::uint64_t events() const override {
    return sched_->events_processed();
  }

  void layer_values(const std::vector<OpRecord>& timed,
                    Values& out) const override {
    std::vector<double> flag_ns;
    for (const OpRecord& r : timed) {
      flag_ns.push_back(static_cast<double>(r.sim_outputs[1]) / 1e3 /
                        (2.0 * round_trips_));
    }
    const double ns = median(flag_ns);
    out["paper.pio_flag_ns"] = ns;
    out["paper.err_pct"] = 100.0 * std::abs(ns - kPaperPioNs) / kPaperPioNs;
  }

 private:
  /// Adjacent-node PIO store latency, paper Fig. 10 / Sec. IV-B1.
  static constexpr double kPaperPioNs = 782;

  static std::uint32_t seq(std::uint64_t op, std::uint32_t k) {
    return static_cast<std::uint32_t>(op * kMaxRoundTrips + k + 1);
  }

  static sim::Task<> ping(PioPingPong* w, std::uint64_t op) {
    api::Runtime& rt = *w->rt_;
    for (std::uint32_t k = 0; k < w->round_trips_; ++k) {
      const std::uint64_t slot = (k + op) % kMaxRoundTrips;
      Status st = co_await rt.memcpy_peer(w->recv_[1], k * kPayload, w->src_,
                                          slot * kPayload, kPayload);
      if (!st.is_ok()) {
        w->status_[0] = st;
        co_return;
      }
      w->notify_at_[0][k] = w->sched_->now();
      co_await rt.notify(0, w->flag_[1], 0, seq(op, k));
      st = co_await rt.wait_flag_ge(w->flag_[0], 0, seq(op, k),
                                    kFlagTimeoutPs);
      if (!st.is_ok()) {
        w->status_[0] = st;
        co_return;
      }
      w->wait_done_[0][k] = w->sched_->now();
    }
  }

  static sim::Task<> pong(PioPingPong* w, std::uint64_t op) {
    api::Runtime& rt = *w->rt_;
    for (std::uint32_t k = 0; k < w->round_trips_; ++k) {
      Status st = co_await rt.wait_flag_ge(w->flag_[1], 0, seq(op, k),
                                           kFlagTimeoutPs);
      if (!st.is_ok()) {
        w->status_[1] = st;
        co_return;
      }
      w->wait_done_[1][k] = w->sched_->now();
      st = co_await rt.memcpy_peer(w->recv_[0], k * kPayload, w->recv_[1],
                                   k * kPayload, kPayload);
      if (!st.is_ok()) {
        w->status_[1] = st;
        co_return;
      }
      w->notify_at_[1][k] = w->sched_->now();
      co_await rt.notify(1, w->flag_[0], 0, seq(op, k));
    }
  }

  void verify(std::uint64_t op, OpRecord& rec) {
    std::vector<std::byte> got(kMaxRoundTrips * kPayload);
    for (std::uint32_t n : {1u, 0u}) {
      read(*rt_, recv_[n], got, spans_, op);
      for (std::uint32_t k = 0; k < round_trips_; ++k) {
        const std::uint64_t slot = (k + op) % kMaxRoundTrips;
        if (std::memcmp(got.data() + k * kPayload,
                        pattern_.data() + slot * kPayload, kPayload) != 0) {
          fail(rec, "payload mismatch on node " + std::to_string(n) +
                        ", round trip " + std::to_string(k));
          return;
        }
      }
    }
    for (std::uint32_t n = 0; n < 2; ++n) {
      std::uint32_t flag = 0;
      read(*rt_, flag_[n], std::as_writable_bytes(std::span(&flag, 1)),
           spans_, op);
      if (flag != seq(op, round_trips_ - 1)) {
        fail(rec, "flag on node " + std::to_string(n) + " is " +
                      std::to_string(flag));
      }
    }
  }

  std::uint32_t round_trips_ = 0;
  std::vector<std::byte> pattern_;
  std::unique_ptr<sim::Scheduler> sched_;
  std::unique_ptr<api::Runtime> rt_;
  api::Buffer src_;
  api::Buffer recv_[2];
  api::Buffer flag_[2];
  std::vector<TimePs> notify_at_[2];
  std::vector<TimePs> wait_done_[2];
  Status status_[2];
};

// --- dma_stream -----------------------------------------------------------------
//
// Two-node ring, one cable hop (the Fig. 12 setting). One op is a chained
// DMA write of 4 KiB blocks from node 0's host into node 1's GPU, then a
// chain of 4 KiB blocks the DMAC reads out of node 0's GPU (BAR1) into
// node 1's host. Both are verified bytewise.
class DmaStream final : public Workload {
 public:
  static constexpr std::uint64_t kBlock = 4096;
  static constexpr std::uint64_t kMaxBlocks = 255;  // one full chain table

  DmaStream(std::uint64_t seed, SpanRecorder& spans) : Workload(spans) {
    Rng rng(seed ^ 0x646d61);
    // Chains of 252..255 blocks: the Fig. 12 chain length, give or take the
    // last few descriptors.
    n_write_ = rng.next_in(kMaxBlocks - 3, kMaxBlocks);
    n_read_ = rng.next_in(kMaxBlocks - 3, kMaxBlocks);
    host_pattern_.resize(kMaxBlocks * kBlock);
    gpu_pattern_.resize(kMaxBlocks * kBlock);
    rng.fill(host_pattern_);
    rng.fill(gpu_pattern_);
  }

  void setup() override {
    sched_ = std::make_unique<sim::Scheduler>();
    api::TcaConfig cfg;
    cfg.spec = fabric::TopologySpec::ring(2);
    rt_ = create_runtime(*sched_, cfg, spans_);
    host_src_ = alloc_host(*rt_, 0, kMaxBlocks * kBlock, spans_);
    gpu_src_ = alloc_gpu(*rt_, 0, kMaxBlocks * kBlock, spans_);
    gpu_dst_ = alloc_gpu(*rt_, 1, kMaxBlocks * kBlock, spans_);
    host_dst_ = alloc_host(*rt_, 1, kMaxBlocks * kBlock, spans_);
    write(*rt_, host_src_, host_pattern_, spans_, SpanRecorder::kNoOp);
    write(*rt_, gpu_src_, gpu_pattern_, spans_, SpanRecorder::kNoOp);
  }

  void teardown() override {
    rt_.reset();
    sched_.reset();
  }

  void run_op(std::uint64_t op, OpRecord& rec) override {
    // Block d of the destination takes source block (d + op) mod 255, so
    // each op delivers different bytes and a stale buffer fails the check.
    std::vector<api::Runtime::CopyOp> writes, reads;
    for (std::uint64_t d = 0; d < n_write_; ++d) {
      writes.push_back({.dst = gpu_dst_,
                        .dst_off = d * kBlock,
                        .src = host_src_,
                        .src_off = ((d + op) % kMaxBlocks) * kBlock,
                        .bytes = kBlock});
    }
    for (std::uint64_t d = 0; d < n_read_; ++d) {
      reads.push_back({.dst = host_dst_,
                       .dst_off = d * kBlock,
                       .src = gpu_src_,
                       .src_off = ((d + op) % kMaxBlocks) * kBlock,
                       .bytes = kBlock});
    }
    status_ = Status::ok();
    write_ps_ = read_ps_ = 0;
    sim::spawn(stream(this, std::move(writes), std::move(reads)));
    const TimePs t0 = sched_->now();
    run_scheduler(*sched_, spans_, op);
    rec.sim_ps = sched_->now() - t0;
    rec.sim_outputs = {static_cast<std::uint64_t>(rec.sim_ps),
                       static_cast<std::uint64_t>(write_ps_),
                       static_cast<std::uint64_t>(read_ps_)};
    if (!status_.is_ok()) {
      fail(rec, status_.to_string());
      return;
    }
    verify(op, gpu_dst_, n_write_, host_pattern_, "GPU write", rec);
    verify(op, host_dst_, n_read_, gpu_pattern_, "GPU read", rec);
  }

  void export_counters(obs::MetricRegistry& reg) override {
    rt_->export_metrics(reg);
  }
  [[nodiscard]] std::uint64_t events() const override {
    return sched_->events_processed();
  }

  void layer_values(const std::vector<OpRecord>& timed,
                    Values& out) const override {
    std::vector<double> wr, rd;
    for (const OpRecord& r : timed) {
      wr.push_back(units::gbytes_per_second(
          n_write_ * kBlock, static_cast<TimePs>(r.sim_outputs[1])));
      rd.push_back(units::gbytes_per_second(
          n_read_ * kBlock, static_cast<TimePs>(r.sim_outputs[2])));
    }
    const double w = median(wr);
    const double g = median(rd);
    out["paper.dma_write_gbps"] = w;
    out["paper.dma_read_gbps"] = g;
    out["paper.err_pct"] =
        100.0 * std::max(std::abs(w - kPaperWriteGbps) / kPaperWriteGbps,
                         std::abs(g - kPaperGpuReadGbps) / kPaperGpuReadGbps);
  }

 private:
  /// Saturated chained DMA write (Figs. 7/9/12) and the DMAC's GPU BAR1
  /// read ceiling (Fig. 7), Gbytes/s.
  static constexpr double kPaperWriteGbps = 3.3;
  static constexpr double kPaperGpuReadGbps = 0.83;

  static sim::Task<> stream(DmaStream* w,
                            std::vector<api::Runtime::CopyOp> writes,
                            std::vector<api::Runtime::CopyOp> reads) {
    sim::Scheduler& sched = *w->sched_;
    TimePs t0 = sched.now();
    Status st = co_await w->rt_->memcpy_peer_batch(0, std::move(writes));
    w->write_ps_ = sched.now() - t0;
    if (!st.is_ok()) {
      w->status_ = st;
      co_return;
    }
    t0 = sched.now();
    st = co_await w->rt_->memcpy_peer_batch(0, std::move(reads));
    w->read_ps_ = sched.now() - t0;
    w->status_ = st;
  }

  void verify(std::uint64_t op, const api::Buffer& dst, std::uint64_t blocks,
              const std::vector<std::byte>& pattern, const char* what,
              OpRecord& rec) {
    std::vector<std::byte> got(blocks * kBlock);
    read(*rt_, dst, got, spans_, op);
    for (std::uint64_t d = 0; d < blocks; ++d) {
      const std::uint64_t src = (d + op) % kMaxBlocks;
      if (std::memcmp(got.data() + d * kBlock, pattern.data() + src * kBlock,
                      kBlock) != 0) {
        fail(rec, std::string(what) + ": block " + std::to_string(d) +
                      " differs");
        return;
      }
    }
  }

  std::uint64_t n_write_ = 0;
  std::uint64_t n_read_ = 0;
  std::vector<std::byte> host_pattern_;
  std::vector<std::byte> gpu_pattern_;
  std::unique_ptr<sim::Scheduler> sched_;
  std::unique_ptr<api::Runtime> rt_;
  api::Buffer host_src_, gpu_src_, gpu_dst_, host_dst_;
  Status status_;
  TimePs write_ps_ = 0;
  TimePs read_ps_ = 0;
};

// --- allreduce_8n ---------------------------------------------------------------
//
// Eight-node ring, default TcaConfig and CollConfig. One op is a
// GPU-resident allreduce_sum of ~8 KiB on every rank, then one of ~256 KiB:
// both sides of the coll library's staging crossover. Inputs are small
// integers, so the sums are exact whatever the fold order; each op leaves
// the next op's (rotated) inputs in place.
class Allreduce8 final : public Workload {
 public:
  static constexpr std::uint32_t kRanks = 8;

  Allreduce8(std::uint64_t seed, SpanRecorder& spans) : Workload(spans) {
    Rng rng(seed ^ 0x616c6c);
    // Element counts stay multiples of the rank count (whole chunks).
    counts_[0] = 1024 - kRanks * rng.next_below(8);
    counts_[1] = 32768 - kRanks * rng.next_below(32);
    for (int b = 0; b < 2; ++b) {
      sums_[b].assign(counts_[b], 0.0);
      for (std::uint32_t r = 0; r < kRanks; ++r) {
        inputs_[b][r].resize(counts_[b]);
        for (std::uint64_t j = 0; j < counts_[b]; ++j) {
          inputs_[b][r][j] = static_cast<double>(rng.next_below(16));
          sums_[b][j] += inputs_[b][r][j];
        }
      }
    }
  }

  [[nodiscard]] int setups() const override { return 5; }

  void setup() override {
    sched_ = std::make_unique<sim::Scheduler>();
    api::TcaConfig cfg;
    cfg.spec = fabric::TopologySpec::ring(kRanks);
    rt_ = create_runtime(*sched_, cfg, spans_);
    comm_ = create_communicator(*rt_, coll::CollConfig{}, spans_);
    for (int b = 0; b < 2; ++b) {
      for (std::uint32_t r = 0; r < kRanks; ++r) {
        bufs_[b][r] = alloc_gpu(*rt_, r, counts_[b] * sizeof(double), spans_);
      }
    }
    fill_inputs(0, SpanRecorder::kNoOp);
  }

  void teardown() override {
    comm_.reset();
    rt_.reset();
    sched_.reset();
  }

  void run_op(std::uint64_t op, OpRecord& rec) override {
    TimePs phase_ps[2] = {0, 0};
    for (int b = 0; b < 2 && rec.ok; ++b) {
      for (std::uint32_t r = 0; r < kRanks; ++r) {
        status_[r] = Status::ok();
        sim::spawn(reduce(this, r, bufs_[b][r], counts_[b]));
      }
      const TimePs t0 = sched_->now();
      run_scheduler(*sched_, spans_, op);
      phase_ps[b] = sched_->now() - t0;
      for (std::uint32_t r = 0; r < kRanks; ++r) {
        if (!status_[r].is_ok()) {
          fail(rec, "rank " + std::to_string(r) + ": " + status_[r].to_string());
        }
      }
    }
    rec.sim_ps = phase_ps[0] + phase_ps[1];
    rec.sim_outputs = {static_cast<std::uint64_t>(rec.sim_ps),
                       static_cast<std::uint64_t>(phase_ps[0]),
                       static_cast<std::uint64_t>(phase_ps[1])};
    if (!rec.ok) return;
    verify(op, rec);
    fill_inputs(op + 1, op);
  }

  void export_counters(obs::MetricRegistry& reg) override {
    comm_->export_metrics(reg);
  }
  [[nodiscard]] std::uint64_t events() const override {
    return sched_->events_processed();
  }

  void layer_values(const std::vector<OpRecord>& timed,
                    Values& out) const override {
    std::vector<double> small, large;
    for (const OpRecord& r : timed) {
      small.push_back(static_cast<double>(r.sim_outputs[1]) / 1e6);
      large.push_back(static_cast<double>(r.sim_outputs[2]) / 1e6);
    }
    out["coll.allreduce_8k_sim_us"] = median(small);
    out["coll.allreduce_256k_sim_us"] = median(large);
  }

 private:
  static sim::Task<> reduce(Allreduce8* w, std::uint32_t rank,
                            api::Buffer buf, std::uint64_t count) {
    w->status_[rank] = co_await w->comm_->allreduce_sum(rank, buf, 0, count);
  }

  /// Writes op `op`'s inputs: each rank's base vector rotated by `op`.
  void fill_inputs(std::uint64_t op, std::uint64_t span_op) {
    for (int b = 0; b < 2; ++b) {
      const std::uint64_t n = counts_[b];
      std::vector<double> v(n);
      for (std::uint32_t r = 0; r < kRanks; ++r) {
        const std::vector<double>& in = inputs_[b][r];
        std::rotate_copy(in.begin(),
                         in.begin() + static_cast<std::ptrdiff_t>(op % n),
                         in.end(), v.begin());
        write(*rt_, bufs_[b][r], std::as_bytes(std::span(v)), spans_, span_op);
      }
    }
  }

  void verify(std::uint64_t op, OpRecord& rec) {
    for (int b = 0; b < 2; ++b) {
      const std::uint64_t n = counts_[b];
      std::vector<double> got(n);
      for (std::uint32_t r = 0; r < kRanks; ++r) {
        read(*rt_, bufs_[b][r], std::as_writable_bytes(std::span(got)), spans_,
             op);
        for (std::uint64_t j = 0; j < n; ++j) {
          if (got[j] != sums_[b][(j + op) % n]) {
            fail(rec, "allreduce of " + std::to_string(n) + " doubles: rank " +
                          std::to_string(r) + " element " + std::to_string(j) +
                          " = " + std::to_string(got[j]) + ", want " +
                          std::to_string(sums_[b][(j + op) % n]));
            return;
          }
        }
      }
    }
  }

  std::uint64_t counts_[2] = {0, 0};
  std::vector<double> inputs_[2][kRanks];
  std::vector<double> sums_[2];
  std::unique_ptr<sim::Scheduler> sched_;
  std::unique_ptr<api::Runtime> rt_;
  std::unique_ptr<coll::Communicator> comm_;
  api::Buffer bufs_[2][kRanks];
  Status status_[kRanks];
};

// --- chaos_rounds ---------------------------------------------------------------
//
// One op is four seeded fault campaigns, the (topology, workload) pairs the
// nightly soak's rotation actually runs. Each campaign builds its own
// fabric inside the op, so this workload has no set-up.
class ChaosRounds final : public Workload {
 public:
  struct Pair {
    const char* topology;
    chaos::Workload workload;
    const char* metric;
  };
  static constexpr Pair kRotation[4] = {
      {"ring:8", chaos::Workload::kAllreduce, "chaos.ring8_allreduce_ms"},
      {"torus:4x4", chaos::Workload::kHalo, "chaos.torus4x4_halo_ms"},
      {"ring:8", chaos::Workload::kPingPong, "chaos.ring8_pingpong_ms"},
      {"torus:4x4", chaos::Workload::kMixed, "chaos.torus4x4_mixed_ms"},
  };

  ChaosRounds(std::uint64_t seed, SpanRecorder& spans)
      : Workload(spans), campaign_seeds_(seed ^ 0x63686f) {}

  [[nodiscard]] int setups() const override { return 0; }
  void setup() override {}
  void teardown() override {}

  /// Ops run in index order, so op i always draws the same four seeds.
  void run_op(std::uint64_t op, OpRecord& rec) override {
    json_.clear();
    for (std::uint64_t c = 0; c < 4; ++c) {
      chaos::CampaignSpec spec;
      spec.seed = campaign_seeds_.next_u64();
      spec.topology = chaos::parse_topology(kRotation[c].topology).value();
      spec.workload = kRotation[c].workload;
      const std::int64_t t0 = host_now_ns();
      chaos::CampaignResult r;
      {
        ScopedSpan span(spans_, "chaos::run_campaign", op);
        r = chaos::run_campaign(spec);
      }
      rec.part_ms.push_back(static_cast<double>(host_now_ns() - t0) / 1e6);
      rec.sim_ps += r.sim_end_ps;
      rec.sim_outputs.insert(
          rec.sim_outputs.end(),
          {r.trace_hash, r.metrics_hash, static_cast<std::uint64_t>(r.sim_end_ps),
           r.ops_ok, r.ops_failed, r.violations.size(),
           r.metrics_json.size()});
      if (!r.passed()) {
        spec.plan = chaos::generate_fault_plan(spec.seed, spec.topology);
        std::string why = "campaign " + std::to_string(c) + " violated: " +
                          r.violations.front() + "\n--- replay with " +
                          "tca_chaos --corpus <dir holding this file> ---\n" +
                          spec.to_string();
        fail(rec, why);
      }
      json_.push_back(std::move(r.metrics_json));
    }
  }

  void after_op(OpRecord& /*rec*/, bool collect) override {
    if (!collect) return;
    for (const std::string& json : json_) {
      const std::int64_t t0 = host_now_ns();
      auto snap = obs::MetricsSnapshot::from_json(json);
      parse_ms_.push_back(static_cast<double>(host_now_ns() - t0) / 1e6);
      if (!snap.is_ok()) continue;
      for (const auto& [name, value] : snap.value().counters) {
        sums_.counter(name).add(value);
      }
      for (const auto& [name, h] : snap.value().histograms) {
        if (name.ends_with(".driver.chain_latency_ps") && h.count > 0) {
          chain_p50_us_.push_back(h.p50 / 1e6);
        }
      }
    }
  }

  void export_counters(obs::MetricRegistry& reg) override {
    for (const auto& [name, value] : sums_.snapshot().counters) {
      reg.counter(name).set(value);
    }
  }

  void layer_values(const std::vector<OpRecord>& timed,
                    Values& out) const override {
    std::vector<double> ms[4];
    double ok = 0, resolved = 0, violations = 0, json_bytes = 0;
    for (const OpRecord& r : timed) {
      for (std::size_t c = 0; c < r.part_ms.size(); ++c) {
        ms[c].push_back(r.part_ms[c]);
        const std::uint64_t* o = &r.sim_outputs[c * kOutputsPerCampaign];
        ok += static_cast<double>(o[3]);
        resolved += static_cast<double>(o[3] + o[4]);
        violations += o[5] > 0 ? 1 : 0;
        json_bytes += static_cast<double>(o[6]);
      }
    }
    for (int c = 0; c < 4; ++c) out[kRotation[c].metric] = median(ms[c]);
    const double ops = static_cast<double>(timed.size());
    out["chaos.violations"] = violations;
    out["chaos.task_ok_ratio"] = ratio(ok, resolved);
    out["obs.metrics_json_kb"] = ratio(json_bytes, 4 * ops) / 1024.0;
    out["obs.export_ms"] = median(parse_ms_);
    out["driver.chain_latency_us_p50"] = median(chain_p50_us_);
  }

 private:
  static constexpr std::size_t kOutputsPerCampaign = 7;

  Rng campaign_seeds_;
  std::vector<std::string> json_;
  obs::MetricRegistry sums_;  ///< counters summed over collected campaigns
  std::vector<double> parse_ms_;
  std::vector<double> chain_p50_us_;  ///< per-node chain latency p50s
};

// --- Runner -------------------------------------------------------------------

/// Host time of a fixed reference kernel, run on the same core right after
/// every op. The host's speed drifts by up to 2x over seconds to minutes
/// (co-tenants on shared cores), and the kernel's time drifts with it, so
/// an op's time divided by the kernel's is the simulator's cost with the
/// drift taken out. The kernel is compute-bound, L1-resident (16 KiB table,
/// 4 KiB heap) and shares no code with the simulator. Only its second of
/// two back-to-back passes is timed, so the first has brought its code and
/// data back into the caches the op evicted: a change to the simulator moves
/// only the numerator, whatever its memory footprint.
std::int64_t reference_kernel_ns() {
  constexpr std::size_t kTable = 2048;
  constexpr std::size_t kHeap = 512;
  constexpr int kSteps = 24000;
  static std::uint64_t table[kTable];
  static std::uint64_t heap[kHeap];
  static volatile std::uint64_t sink = 0;
  const std::int64_t t0 = host_now_ns();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < kSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x % kTable] += x;
    std::pop_heap(heap, heap + kHeap);
    heap[kHeap - 1] = x ^ table[(x >> 21) % kTable];
    std::push_heap(heap, heap + kHeap);
  }
  sink = sink + heap[0];
  return host_now_ns() - t0;
}

struct MetricSpec {
  const char* name;
  const char* unit;
  /// In the JSON result line. The others — simulated-clock layer figures
  /// and what only chaos_rounds moves — are printed as notes.
  bool json = true;
};

/// Every per-layer metric, in output order. A traced run reports all of
/// them on every workload; a layer the workload leaves idle reads 0.
constexpr MetricSpec kLayerMetrics[] = {
    {"sim.events_per_op", "count/op"},
    {"sim.run_ns_per_event", "ns"},
    {"sim.run_share", "ratio"},
    {"api.pio_ops", "count/op"},
    {"api.dma_ops", "count/op"},
    {"api.wait_flag_ops", "count/op"},
    {"driver.chains", "count/op"},
    {"driver.pio_stores", "count/op"},
    {"driver.retries", "count/op", false},
    {"driver.watchdog_timeouts", "count/op", false},
    {"driver.chain_latency_us_p50", "us", false},
    {"peach2.forwarded", "count/op"},
    {"peach2.descriptors_per_doorbell", "ratio"},
    {"peach2.table_fetches", "count/op"},
    {"peach2.acks_sent", "count/op"},
    {"peach2.unroutable", "count/op", false},
    {"pcie.tlps", "count/op"},
    {"pcie.wire_efficiency", "ratio"},
    {"pcie.credit_stall_us", "us/op", false},
    {"pcie.replays", "count/op", false},
    {"pcie.dropped", "count/op", false},
    {"gpu.reads", "count/op"},
    {"gpu.writes", "count/op"},
    {"node.host_bytes_read", "B/op"},
    {"node.host_bytes_written", "B/op"},
    {"node.poll_iterations", "count/op"},
    {"memory.access_ms", "ms/op"},
    {"memory.setup_minor_faults", "count"},
    {"memory.setup_sys_share", "ratio"},
    {"memory.timed_minor_faults", "count/op"},
    {"fabric.create_s", "s"},
    {"fabric.failovers", "count/op", false},
    {"fabric.failbacks", "count/op", false},
    {"fabric.abandoned_tlps", "count/op", false},
    {"fabric.chain_quiesces", "count/op", false},
    {"fabric.route_mismatches", "count/op", false},
    {"coll.create_s", "s", false},
    {"coll.allreduce_8k_sim_us", "us", false},
    {"coll.allreduce_256k_sim_us", "us", false},
    {"coll.ring_ops", "count/op"},
    {"coll.staged_d2h_bytes", "B/op"},
    {"coll.host_carry_bytes", "B/op"},
    {"coll.put_retries", "count/op", false},
    {"obs.metrics_json_kb", "KB"},
    {"obs.export_ms", "ms"},
    {"chaos.ring8_allreduce_ms", "ms", false},
    {"chaos.torus4x4_halo_ms", "ms", false},
    {"chaos.ring8_pingpong_ms", "ms", false},
    {"chaos.torus4x4_mixed_ms", "ms", false},
    {"chaos.violations", "count", false},
    {"chaos.task_ok_ratio", "ratio", false},
    {"paper.err_pct", "%", false},
    {"paper.pio_flag_ns", "ns", false},
    {"paper.dma_write_gbps", "GB/s", false},
    {"paper.dma_read_gbps", "GB/s", false},
    {"proc.setup_user_s", "s"},
    {"proc.setup_sys_s", "s"},
    {"proc.timed_user_ms", "ms/op"},
    {"proc.timed_sys_ms", "ms/op"},
    {"proc.timed_sys_share", "ratio"},
    {"run.host_ms_p50", "ms"},
    {"run.ref_ms_p50", "ms"},
    {"run.host_ms_tail", "ms"},
    {"run.tail_pct", "%"},
    {"run.timed_ops", "count"},
    {"run.trace_overhead_pct", "%"},
};

using Counters = std::map<std::string, std::uint64_t>;

/// Sum of the per-node counters named node<i>.<...><suffix>.
double sum_nodes(const Counters& c, std::string_view suffix) {
  double total = 0;
  for (const auto& [name, value] : c) {
    if (name.starts_with("node") && name.ends_with(suffix)) {
      total += static_cast<double>(value);
    }
  }
  return total;
}

double get(const Counters& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0 : static_cast<double>(it->second);
}

/// Count-weighted median of the per-node driver chain-latency p50s, us.
double chain_latency_us(const obs::MetricsSnapshot& snap) {
  std::vector<std::pair<double, std::uint64_t>> p50s;
  std::uint64_t total = 0;
  for (const auto& [name, h] : snap.histograms) {
    if (name.ends_with(".driver.chain_latency_ps") && h.count > 0) {
      p50s.emplace_back(h.p50, h.count);
      total += h.count;
    }
  }
  std::sort(p50s.begin(), p50s.end());
  std::uint64_t seen = 0;
  for (const auto& [p50, count] : p50s) {
    seen += count;
    if (2 * seen >= total) return p50 / 1e6;
  }
  return 0;
}

/// Host-clock figures the spans of the traced ops yield.
struct SpanFigures {
  double run_ns = 0;     ///< inside Scheduler::run
  double memory_ns = 0;  ///< inside Runtime::write/read
  std::vector<double> create_s;       ///< Runtime::create, set-up
  std::vector<double> comm_create_s;  ///< Communicator::create, set-up
  std::vector<double> export_ms;      ///< export_metrics
};

SpanFigures span_figures(const SpanRecorder& spans) {
  SpanFigures f;
  for (const Span& s : spans.spans()) {
    const auto dur = static_cast<double>(s.end_ns - s.start_ns);
    const std::string_view name = s.name;
    const bool in_op = s.op != SpanRecorder::kNoOp && s.op >= kWarmupOps;
    if (in_op && name == "Scheduler::run") f.run_ns += dur;
    if (in_op && (name == "Runtime::read" || name == "Runtime::write")) {
      f.memory_ns += dur;
    }
    if (name == "Runtime::create") f.create_s.push_back(dur / 1e9);
    if (name == "Communicator::create") f.comm_create_s.push_back(dur / 1e9);
    if (name == "export_metrics") f.export_ms.push_back(dur / 1e6);
  }
  return f;
}

void export_counters(Workload& wl, obs::MetricRegistry& reg,
                     SpanRecorder& spans) {
  ScopedSpan span(spans, "export_metrics", SpanRecorder::kNoOp);
  wl.export_counters(reg);
}

std::string fmt(const char* format, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, a, b, c);
  return buf;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        SpanRecorder& spans) {
  if (name == "pio_pingpong") return std::make_unique<PioPingPong>(seed, spans);
  if (name == "dma_stream") return std::make_unique<DmaStream>(seed, spans);
  if (name == "allreduce_8n") return std::make_unique<Allreduce8>(seed, spans);
  if (name == "chaos_rounds") return std::make_unique<ChaosRounds>(seed, spans);
  throw std::invalid_argument("unknown workload " + name);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "pio_pingpong", "dma_stream", "allreduce_8n", "chaos_rounds"};
  return names;
}

bool is_workload(const std::string& name) {
  const auto& n = workload_names();
  return std::find(n.begin(), n.end(), name) != n.end();
}

RunResult run_workload(const RunOptions& opt, SpanRecorder& spans) {
  // Fault campaigns log WARN lines; keep the console quiet while timing.
  Log::set_level(LogLevel::kError);
  obs::set_sampling_enabled(false);
  // Every set-up pays for fresh pages, as a process's first build does. By
  // default glibc raises its mmap threshold when a torn-down build frees its
  // backing stores and then recycles them into the next build, so later
  // builds ran 2x faster and the median of seven landed on either regime.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  std::unique_ptr<Workload> wl = make_workload(opt.workload, opt.seed, spans);
  RunResult res;

  // Set-up: several fresh builds, each torn down before the next; the last
  // one stays up for the ops.
  const int setups = wl->setups();
  std::vector<double> setup_s;
  Usage setup_usage;
  spans.set_enabled(opt.traced);
  for (int i = 0; i < setups; ++i) {
    if (i > 0) wl->teardown();
    const Usage u0 = Usage::now();
    const std::int64_t t0 = host_now_ns();
    {
      ScopedSpan span(spans, "setup", SpanRecorder::kNoOp);
      wl->setup();
    }
    setup_s.push_back(static_cast<double>(host_now_ns() - t0) / 1e9);
    setup_usage += Usage::now() - u0;
  }
  spans.set_enabled(false);

  auto account = [&res](const OpRecord& rec, std::uint64_t op) {
    ++res.attempted;
    if (rec.ok) return;
    ++res.failed;
    res.notes.push_back("op " + std::to_string(op) + " FAILED: " + rec.error);
  };

  // Warm-up: untimed and untraced, but verified, and digested together
  // with the counters they leave behind.
  std::string digested;
  auto digest = [&digested](std::uint64_t word) {
    digested.append(reinterpret_cast<const char*>(&word), sizeof word);
  };
  for (std::uint64_t op = 0; op < kWarmupOps; ++op) {
    OpRecord rec;
    wl->run_op(op, rec);
    reference_kernel_ns();
    wl->after_op(rec, false);
    account(rec, op);
    for (const std::uint64_t w : rec.sim_outputs) digest(w);
  }
  spans.set_enabled(opt.traced);
  obs::MetricRegistry before_reg;
  export_counters(*wl, before_reg, spans);
  spans.set_enabled(false);
  const obs::MetricsSnapshot before = before_reg.snapshot();
  for (const auto& [name, value] : before.counters) {
    digested += name;
    digest(value);
  }
  res.digest = fnv1a64(digested);

  // Timed phase. A traced run alternates untraced and traced ops, so the
  // tracing overhead is measured under the same machine conditions.
  std::vector<OpRecord> timed;
  Usage timed_usage;  // accumulated over the ops alone
  const std::int64_t deadline =
      host_now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  for (std::uint64_t op = kWarmupOps;; ++op) {
    const std::uint64_t n = timed.size();
    if (n >= kMinTimedOps && host_now_ns() >= deadline) break;
    OpRecord rec;
    rec.traced = opt.traced && op % 2 == 1;
    spans.set_enabled(rec.traced);
    obs::set_sampling_enabled(rec.traced);
    const std::uint64_t events0 = wl->events();
    const Usage u0 = Usage::now();
    const std::int64_t t0 = host_now_ns();
    {
      ScopedSpan span(spans, "op", op);
      wl->run_op(op, rec);
    }
    rec.host_ns = host_now_ns() - t0;
    timed_usage += Usage::now() - u0;
    rec.events = wl->events() - events0;
    spans.set_enabled(false);
    obs::set_sampling_enabled(false);
    reference_kernel_ns();  // warm pass, untimed
    rec.ref_ns = reference_kernel_ns();
    wl->after_op(rec, opt.traced);
    account(rec, op);
    timed.push_back(std::move(rec));
  }
  res.correct = res.failed == 0;

  std::vector<double> host_ms, ref_ms, rel, rel_traced, sim_us;
  for (const OpRecord& r : timed) {
    const double ratio_to_ref =
        static_cast<double>(r.host_ns) / static_cast<double>(r.ref_ns);
    if (r.traced) {
      rel_traced.push_back(ratio_to_ref);
    } else {
      rel.push_back(ratio_to_ref);
      host_ms.push_back(static_cast<double>(r.host_ns) / 1e6);
      ref_ms.push_back(static_cast<double>(r.ref_ns) / 1e6);
    }
    sim_us.push_back(static_cast<double>(r.sim_ps) / 1e6);
  }
  const double host_p50 = median(host_ms);
  const double rel_p50 = median(rel);
  if (!setup_s.empty()) {
    res.end_to_end.push_back({"setup_s", median(setup_s), "s"});
  }
  res.end_to_end.push_back({"host_rel_p50", rel_p50, "ratio"});
  res.end_to_end.push_back({"sim_us_p50", median(sim_us), "us"});
  res.end_to_end.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});

  const double ops = static_cast<double>(timed.size());
  const std::optional<Tail> host_tail = tail(host_ms);
  res.notes.push_back(
      fmt("timed ops: %.0f (medians over %.0f untraced), warm-up ops: %.0f",
          ops, static_cast<double>(host_ms.size()),
          static_cast<double>(kWarmupOps)));
  res.notes.push_back(fmt("host ms per op p50: %.4f; reference kernel p50: "
                          "%.4f ms; ratio p50: %.4f",
                          host_p50, median(ref_ms), rel_p50));
  if (host_tail) {
    res.notes.push_back(fmt("host ms tail: p%.1f = %.4f (diagnostic, not gated)",
                            host_tail->pct, host_tail->value));
  }
  res.notes.push_back(
      fmt("set-up x%.0f: user %.3f s, sys %.3f s", setups, setup_usage.user_s,
          setup_usage.sys_s) +
      fmt(", minor faults %.0f", setup_usage.minor_faults));
  res.notes.push_back(
      fmt("timed ops: user %.3f s, sys %.3f s", timed_usage.user_s,
          timed_usage.sys_s) +
      fmt(", minor faults %.0f", timed_usage.minor_faults));
  if (!opt.traced) return res;

  // --- Per-layer metrics (traced run) ----------------------------------------
  obs::MetricRegistry after_reg;
  spans.set_enabled(true);
  export_counters(*wl, after_reg, spans);
  spans.set_enabled(false);
  const obs::MetricsSnapshot after = after_reg.snapshot();
  Counters d;  // counter deltas over the timed phase
  for (const auto& [name, value] : after.counters) {
    const auto it = before.counters.find(name);
    d[name] = value - (it == before.counters.end() ? 0 : it->second);
  }
  double events = 0, traced_events = 0, traced_ns = 0, traced_ops = 0;
  for (const OpRecord& r : timed) {
    events += static_cast<double>(r.events);
    if (!r.traced) continue;
    ++traced_ops;
    traced_events += static_cast<double>(r.events);
    traced_ns += static_cast<double>(r.host_ns);
  }
  const SpanFigures sf = span_figures(spans);
  auto per_op = [ops](double x) { return ratio(x, ops); };

  Values v;
  v["sim.events_per_op"] = per_op(events);
  v["sim.run_ns_per_event"] = ratio(sf.run_ns, traced_events);
  v["sim.run_share"] = ratio(sf.run_ns, traced_ns);
  v["api.pio_ops"] = per_op(get(d, "api.memcpy.pio_ops"));
  v["api.dma_ops"] = per_op(get(d, "api.memcpy.dma_ops"));
  v["api.wait_flag_ops"] = per_op(get(d, "api.wait_flag.ops"));
  v["driver.chains"] = per_op(sum_nodes(d, ".driver.chains"));
  v["driver.pio_stores"] = per_op(sum_nodes(d, ".driver.pio_stores"));
  v["driver.retries"] = per_op(get(d, "fabric.driver.retries"));
  v["driver.watchdog_timeouts"] =
      per_op(get(d, "fabric.driver.watchdog_timeouts"));
  v["driver.chain_latency_us_p50"] = chain_latency_us(after);
  v["peach2.forwarded"] = per_op(get(d, "fabric.forwarded"));
  v["peach2.descriptors_per_doorbell"] =
      ratio(sum_nodes(d, ".descriptors"), sum_nodes(d, ".doorbells"));
  v["peach2.table_fetches"] = per_op(sum_nodes(d, ".table_fetches"));
  v["peach2.acks_sent"] = per_op(sum_nodes(d, ".router.acks_sent"));
  v["peach2.unroutable"] = per_op(get(d, "fabric.unroutable"));
  v["pcie.tlps"] = per_op(get(d, "fabric.tlps"));
  v["pcie.wire_efficiency"] =
      ratio(get(d, "fabric.payload_bytes"), get(d, "fabric.wire_bytes"));
  v["pcie.credit_stall_us"] = per_op(get(d, "fabric.credit_stall_ps") / 1e6);
  v["pcie.replays"] = per_op(get(d, "fabric.replays"));
  v["pcie.dropped"] = per_op(get(d, "fabric.link_dropped_tlps"));
  v["gpu.reads"] = per_op(sum_nodes(d, ".reads"));
  v["gpu.writes"] = per_op(sum_nodes(d, ".writes"));
  v["node.host_bytes_read"] = per_op(sum_nodes(d, ".host.bytes_read"));
  v["node.host_bytes_written"] = per_op(sum_nodes(d, ".host.bytes_written"));
  v["node.poll_iterations"] = per_op(sum_nodes(d, ".cpu.poll_iterations"));
  v["memory.access_ms"] = ratio(sf.memory_ns / 1e6, traced_ops);
  v["memory.setup_minor_faults"] = ratio(setup_usage.minor_faults, setups);
  v["memory.setup_sys_share"] =
      ratio(setup_usage.sys_s, setup_usage.user_s + setup_usage.sys_s);
  v["memory.timed_minor_faults"] = per_op(timed_usage.minor_faults);
  v["fabric.create_s"] = median(sf.create_s);
  for (const char* name : {"failovers", "failbacks", "abandoned_tlps",
                           "chain_quiesces", "route_mismatches"}) {
    v[std::string("fabric.") + name] =
        per_op(get(d, std::string("fabric.") + name));
  }
  v["coll.create_s"] = median(sf.comm_create_s);
  for (const char* name : {"ring_ops", "staged_d2h_bytes", "host_carry_bytes",
                           "put_retries"}) {
    v[std::string("coll.") + name] =
        per_op(get(d, std::string("coll.") + name));
  }
  v["obs.metrics_json_kb"] =
      static_cast<double>(after_reg.to_json().size()) / 1024.0;
  v["obs.export_ms"] = median(sf.export_ms);
  v["proc.setup_user_s"] = ratio(setup_usage.user_s, setups);
  v["proc.setup_sys_s"] = ratio(setup_usage.sys_s, setups);
  v["proc.timed_user_ms"] = per_op(timed_usage.user_s * 1e3);
  v["proc.timed_sys_ms"] = per_op(timed_usage.sys_s * 1e3);
  v["proc.timed_sys_share"] =
      ratio(timed_usage.sys_s, timed_usage.user_s + timed_usage.sys_s);
  v["run.host_ms_p50"] = host_p50;
  v["run.ref_ms_p50"] = median(ref_ms);
  v["run.host_ms_tail"] = host_tail ? host_tail->value : 0;
  v["run.tail_pct"] = host_tail ? host_tail->pct : 0;
  v["run.timed_ops"] = ops;
  v["run.trace_overhead_pct"] =
      100.0 * (ratio(median(rel_traced), rel_p50) - 1.0);
  wl->layer_values(timed, v);

  for (const MetricSpec& m : kLayerMetrics) {
    const auto it = v.find(m.name);
    const Metric metric{m.name, it == v.end() ? 0 : it->second, m.unit};
    if (m.json) {
      res.per_layer.push_back(metric);
    } else {
      res.notes.push_back("layer " + metric.name +
                          fmt(" = %.6g ", metric.value) + metric.unit);
    }
  }

  // Host time by span name (self time excludes nested layer calls).
  for (const auto& [name, t] : spans.totals()) {
    res.notes.push_back(
        "span " + name +
        fmt(": %.0f calls, total %.3f ms, self %.3f ms",
            static_cast<double>(t.count), static_cast<double>(t.total_ns) / 1e6,
            static_cast<double>(t.self_ns) / 1e6));
  }
  return res;
}

}  // namespace tcabench
