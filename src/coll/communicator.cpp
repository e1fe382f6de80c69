#include "coll/communicator.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <span>
#include <utility>

#include "calib/calibration.h"
#include "common/trace.h"
#include "common/units.h"

namespace tca::coll {

namespace {

// Flag-word layout of each rank's flag buffer (8-byte word stride; every
// word has exactly one writer, and all values are monotonic sequence
// counters waited on with >= semantics — no missed wakeups, no reuse races).
//
//   word 0           ring data      written by the ring predecessor
//   word 1           ring ack       written by the ring successor
//   word 2           halo data      written by prev ("your from-prev slot is full")
//   word 3           halo data      written by next ("your from-next slot is full")
//   word 4           halo ack       written by prev ("I consumed your to-prev put")
//   word 5           halo ack       written by next ("I consumed your to-next put")
//   word 6+q         eager data     written by rank q (deposits made)
//   word 6+n+q       eager ack      written by rank q (deposits consumed)
constexpr std::uint32_t kRingDataWord = 0;
constexpr std::uint32_t kRingAckWord = 1;
constexpr std::uint32_t kHaloDataPrevWord = 2;
constexpr std::uint32_t kHaloDataNextWord = 3;
constexpr std::uint32_t kHaloAckPrevWord = 4;
constexpr std::uint32_t kHaloAckNextWord = 5;
constexpr std::uint32_t kEagerWordBase = 6;
constexpr std::uint64_t kFlagStride = 8;

/// Eager data word of the row: deposits rank q made into this rank.
constexpr std::uint32_t eager_data_word(std::uint32_t q) {
  return kEagerWordBase + q;
}
/// Eager ack word of the row, in an n-rank world: this rank's deposits
/// that rank q consumed.
constexpr std::uint32_t eager_ack_word(std::uint32_t n, std::uint32_t q) {
  return kEagerWordBase + n + q;
}
/// Words in each rank's row of an n-rank world.
constexpr std::uint32_t flag_row_words(std::uint32_t n) {
  return kEagerWordBase + 2 * n;
}

// The partition proof: for every world size up to calib::kMaxFabricNodes,
// the largest fabric a topology accepts, each purpose's words are disjoint
// from every other's and inside the row. An eager region spans the words
// its function gives ranks 0 to n-1.
constexpr bool flag_layout_partitions() {
  for (std::uint32_t n = 1; n <= calib::kMaxFabricNodes; ++n) {
    const std::uint32_t last = n - 1;
    const FlagRegion regions[] = {
        {kRingDataWord, 1},
        {kRingAckWord, 1},
        {kHaloDataPrevWord, 1},
        {kHaloDataNextWord, 1},
        {kHaloAckPrevWord, 1},
        {kHaloAckNextWord, 1},
        {eager_data_word(0), eager_data_word(last) + 1 - eager_data_word(0)},
        {eager_ack_word(n, 0),
         eager_ack_word(n, last) + 1 - eager_ack_word(n, 0)},
    };
    if (!flag_regions_partition(regions, flag_row_words(n))) return false;
  }
  return true;
}
static_assert(flag_layout_partitions(),
              "coll flag-word regions overlap or leave the row");

// OpSig kinds for cross-rank op-sequence checking.
constexpr int kOpAllreduce = 1;
constexpr int kOpHalo = 2;

constexpr std::uint64_t round_up_256(std::uint64_t v) {
  return (v + 255) & ~255ull;
}
// acc += add over `len` bytes of doubles, exactly baseline::Collectives'
// per-step update (`data[recv_chunk][i] += incoming[i]`): local operand on
// the left, arriving partial sum on the right. memcpy keeps it UB-free on
// byte storage.
void accumulate_doubles(std::byte* acc, const std::byte* add,
                        std::uint64_t len) {
  for (std::uint64_t i = 0; i < len; i += 8) {
    double a = 0;
    double b = 0;
    std::memcpy(&a, acc + i, 8);
    std::memcpy(&b, add + i, 8);
    a += b;
    std::memcpy(acc + i, &a, 8);
  }
}

}  // namespace

Communicator::Communicator(api::Runtime& rt, CollConfig cfg)
    : rt_(&rt),
      cfg_(cfg),
      ranks_(rt.node_count()),
      ring_order_(rt.cluster().topology().ring_order()),
      ring_pos_(ranks_, 0),
      slot_stride_(round_up_256(cfg.pipeline_seg_bytes)),
      eager_tx_seq_(std::size_t{ranks_} * ranks_, 0),
      eager_rx_seq_(std::size_t{ranks_} * ranks_, 0) {
  for (std::uint32_t p = 0; p < ranks_; ++p) ring_pos_[ring_order_[p]] = p;
}

Status Communicator::validate_config(const CollConfig& cfg) {
  if (cfg.pipeline_seg_bytes < 256 || cfg.pipeline_seg_bytes % 8 != 0) {
    return {ErrorCode::kInvalidArgument,
            "pipeline_seg_bytes must be >= 256 and a multiple of 8"};
  }
  if (cfg.staging_slots < 2 || cfg.staging_slots > 64) {
    return {ErrorCode::kInvalidArgument, "staging_slots must be in [2, 64]"};
  }
  return Status::ok();
}

Result<Communicator> Communicator::create(api::Runtime& rt, CollConfig config) {
  if (Status st = validate_config(config); !st.is_ok()) return st;
  Communicator comm(rt, config);
  const std::uint32_t n = comm.ranks_;
  const std::uint32_t flag_words = flag_row_words(n);
  comm.op_log_.reserve(64);
  comm.states_.reserve(n);
  for (std::uint32_t r = 0; r < n; ++r) {
    // Ring staging slots + 2 dedicated halo slots, on the PEACH2-side GPU.
    auto staging = rt.alloc_gpu(
        r, 0, (config.staging_slots + 2) * comm.slot_stride_);
    if (!staging.is_ok()) return staging.status();
    // Host staging bounce: double buffer so segment i+1 stages while
    // segment i's DMA chain is in flight.
    auto bounce = rt.alloc_host(r, 2 * comm.slot_stride_);
    if (!bounce.is_ok()) return bounce.status();
    // Eager mailbox row: slot q holds deposits from rank q; the own-rank
    // slot (never a deposit target) doubles as PIO TX staging.
    auto eager = rt.alloc_host(r, std::uint64_t{n} * kEagerSlot);
    if (!eager.is_ok()) return eager.status();
    auto flags = rt.alloc_host(r, flag_words * kFlagStride);
    if (!flags.is_ok()) return flags.status();
    const std::vector<std::byte> zeros(flag_words * kFlagStride);
    rt.write(flags.value(), 0, zeros);
    comm.states_.push_back(RankState{
        .staging = staging.value(),
        .bounce = bounce.value(),
        .eager = eager.value(),
        .flags = flags.value(),
        .track = "coll.rank" + std::to_string(r),
    });
  }
  return comm;
}

Status Communicator::validate_buffer(std::uint32_t rank,
                                     const api::Buffer& buf,
                                     std::uint64_t offset,
                                     std::uint64_t bytes) const {
  if (rank >= ranks_) {
    return {ErrorCode::kInvalidArgument, "no such rank"};
  }
  if (buf.node != rank) {
    return {ErrorCode::kInvalidArgument,
            "rank r collective arguments must live on node r"};
  }
  if (!units::range_fits(offset, bytes, buf.size)) {
    return {ErrorCode::kOutOfRange, "collective region outside buffer"};
  }
  return Status::ok();
}

Status Communicator::check_op(std::uint32_t rank, OpSig sig) {
  const std::uint64_t i = states_[rank].op_index++;
  if (i < op_log_.size()) {
    if (!(op_log_[i] == sig)) {
      return {ErrorCode::kInvalidArgument,
              "collective op sequence diverged from the other ranks"};
    }
  } else {
    // Ranks advance one collective at a time, so the first rank to reach
    // index i defines the expected signature (i == size exactly).
    op_log_.push_back(sig);
  }
  return Status::ok();
}

sim::Task<Status> Communicator::wait_word_ge(std::uint32_t rank,
                                             std::uint32_t word,
                                             std::uint32_t expected) {
  co_return co_await rt_->wait_flag_ge(states_[rank].flags,
                                       word * kFlagStride, expected,
                                       cfg_.flag_timeout_ps);
}

sim::Task<> Communicator::signal(std::uint32_t from, std::uint32_t dst_rank,
                                 std::uint32_t word, std::uint32_t value) {
  co_await rt_->notify(from, states_[dst_rank].flags, word * kFlagStride,
                       value);
}

sim::Task<Status> Communicator::put_seg(api::Buffer src, std::uint64_t src_off,
                                        std::uint32_t dst_rank,
                                        std::uint64_t staging_off,
                                        std::uint64_t bytes) {
  std::uint32_t retries = 0;
  const Status st = co_await rt_->memcpy_peer_reliable(
      states_[dst_rank].staging, staging_off, src, src_off, bytes, cfg_.sync,
      &retries);
  metrics_.put_retries += retries;
  metrics_.bytes += bytes;
  co_return st;
}

sim::Task<Status> Communicator::ring_send(
    std::uint32_t rank, api::Buffer buf, std::uint64_t src_off,
    std::uint64_t bytes, const std::vector<std::byte>* host_src) {
  const std::uint32_t next = ring_next(rank);
  RankState& me = states_[rank];
  // `host_src` carries the previous step's fold result, already
  // host-resident — forward it straight from the bounce buffer. Otherwise
  // large GPU payloads stage through the bounce via cudaMemcpy D2H: the
  // fabric reads GPU BAR1 at ~830 MB/s but host memory at wire rate, and
  // the D2H of segment i+1 overlaps the DMA chain of segment i.
  const bool carried = host_src != nullptr && !buf.is_host();
  const bool staged =
      !carried && !buf.is_host() && bytes >= kGpuStagingMin;
  const std::uint64_t seg = cfg_.pipeline_seg_bytes;
  std::optional<sim::Task<Status>> pending;
  std::uint32_t pending_seq = 0;
  Status result = Status::ok();
  for (std::uint64_t off = 0; off < bytes; off += seg) {
    const std::uint64_t len = std::min(seg, bytes - off);
    const std::uint32_t seq = ++me.ring_tx_seq;
    // Credit flow control: the successor acks each consumed staging slot,
    // so slot reuse waits for ack seq - slots.
    if (seq > cfg_.staging_slots) {
      if (Status st = co_await wait_word_ge(rank, kRingAckWord,
                                            seq - cfg_.staging_slots);
          !st.is_ok()) {
        result = st;
        break;
      }
    }
    api::Buffer put_src = buf;
    std::uint64_t put_src_off = src_off + off;
    if (carried) {
      const std::uint64_t bounce_off = (seq % 2) * slot_stride_;
      rt_->write(me.bounce, bounce_off,
                 std::span(host_src->data() + off, len));
      metrics_.host_carry_bytes += len;
      put_src = me.bounce;
      put_src_off = bounce_off;
    } else if (staged) {
      // The D2H lands in the rank's own staging buffer: it stays in use
      // across the copy's await, so ranks cannot share one.
      if (me.d2h_stage.size() < len) me.d2h_stage.resize(len);
      const std::span<std::byte> tmp(me.d2h_stage.data(), len);
      co_await rt_->cluster()
          .node(rank)
          .gpu(*buf.gpu_index())
          .memcpy_d2h(buf.block_offset + src_off + off, tmp);
      const std::uint64_t bounce_off = (seq % 2) * slot_stride_;
      rt_->write(me.bounce, bounce_off, tmp);
      metrics_.staged_d2h_bytes += len;
      put_src = me.bounce;
      put_src_off = bounce_off;
    }
    if (pending) {
      const Status st = co_await *std::move(pending);
      pending.reset();
      if (!st.is_ok()) {
        result = st;
        break;
      }
      // Publish segment pending_seq only after its put completed: two
      // in-flight chains could finish out of order otherwise, and the
      // receiver's >= wait would consume a slot whose data hasn't landed.
      co_await signal(rank, next, kRingDataWord, pending_seq);
    }
    pending.emplace(put_seg(put_src, put_src_off, next,
                            ((seq - 1) % cfg_.staging_slots) * slot_stride_,
                            len));
    pending_seq = seq;
  }
  if (pending) {
    const Status st = co_await *std::move(pending);
    if (result.is_ok() && st.is_ok()) {
      co_await signal(rank, next, kRingDataWord, pending_seq);
    } else if (result.is_ok()) {
      result = st;
    }
  }
  co_return result;
}

sim::Task<Status> Communicator::ring_recv(std::uint32_t rank, api::Buffer buf,
                                          std::uint64_t dst_off,
                                          std::uint64_t bytes, RecvMode mode,
                                          std::vector<std::byte>* carry_out) {
  const std::uint32_t prev = ring_prev(rank);
  RankState& me = states_[rank];
  const std::uint64_t seg = cfg_.pipeline_seg_bytes;
  if (carry_out != nullptr) carry_out->resize(bytes);
  for (std::uint64_t off = 0; off < bytes; off += seg) {
    const std::uint64_t len = std::min(seg, bytes - off);
    const std::uint32_t seq = ++me.ring_rx_seq;
    if (Status st = co_await wait_word_ge(rank, kRingDataWord, seq);
        !st.is_ok()) {
      co_return st;
    }
    const std::uint64_t slot = ((seq - 1) % cfg_.staging_slots) * slot_stride_;
    // The segment is read, folded and written back with no suspension in
    // between, so one pair of buffers serves every rank.
    if (recv_in_.size() < len) {
      recv_in_.resize(len);
      recv_own_.resize(len);
    }
    const std::span<std::byte> in(recv_in_.data(), len);
    rt_->read(me.staging, slot, in);
    if (mode == RecvMode::kAccumulate) {
      const std::span<std::byte> own(recv_own_.data(), len);
      rt_->read(buf, dst_off + off, own);
      accumulate_doubles(own.data(), in.data(), len);
      rt_->write(buf, dst_off + off, own);
      if (carry_out != nullptr) {
        std::memcpy(carry_out->data() + off, own.data(), len);
      }
    } else {
      rt_->write(buf, dst_off + off, in);
      if (carry_out != nullptr) {
        std::memcpy(carry_out->data() + off, in.data(), len);
      }
    }
    co_await signal(rank, prev, kRingAckWord, seq);
  }
  co_return Status::ok();
}

sim::Task<Status> Communicator::ring_phase(std::uint32_t rank, api::Buffer buf,
                                           std::uint64_t offset,
                                           std::uint64_t chunk_bytes,
                                           int shift, RecvMode mode,
                                           std::vector<std::byte>* carry) {
  const int n = static_cast<int>(ranks_);
  // Chunk ids are ranks (rank r owns chunk r), but the rotation schedule
  // walks ring *positions*: position arithmetic maps back to a chunk id via
  // rank_at. On ring topologies the order is the identity and this reduces
  // to the classic (rank + shift - s) mod n schedule, step for step.
  std::vector<std::byte> incoming;
  for (int s = 0; s + 1 < n; ++s) {
    const auto send_chunk = static_cast<std::uint64_t>(rank_at(
        static_cast<std::uint32_t>(
            (static_cast<int>(ring_pos(rank)) + 2 * n + shift - s) % n)));
    const auto recv_chunk = static_cast<std::uint64_t>(rank_at(
        static_cast<std::uint32_t>(
            (static_cast<int>(ring_pos(rank)) + 2 * n + shift - s - 1) % n)));
    // tx starts eagerly; rx runs concurrently so the step can't deadlock
    // even when segment count exceeds the staging credit depth. The chunk
    // sent here is exactly the one received last step, so a non-empty
    // carry feeds the send while the recv fills `incoming` for the next.
    const std::vector<std::byte>* tx_src =
        (carry != nullptr && carry->size() == chunk_bytes) ? carry : nullptr;
    sim::Task<Status> tx = ring_send(
        rank, buf, offset + send_chunk * chunk_bytes, chunk_bytes, tx_src);
    const Status rx = co_await ring_recv(
        rank, buf, offset + recv_chunk * chunk_bytes, chunk_bytes, mode,
        carry != nullptr ? &incoming : nullptr);
    const Status txs = co_await std::move(tx);
    if (!txs.is_ok()) co_return txs;
    if (!rx.is_ok()) co_return rx;
    if (carry != nullptr) {
      std::swap(*carry, incoming);
    }
  }
  co_return Status::ok();
}

sim::Task<Status> Communicator::eager_send(std::uint32_t rank,
                                           std::uint32_t dst,
                                           std::vector<std::byte> payload) {
  const std::uint32_t s = ++eager_tx_seq_[std::size_t{rank} * ranks_ + dst];
  // One deposit outstanding per (src, dst) pair: wait for dst to have
  // consumed deposit s-1 before overwriting the mailbox slot.
  if (s > 1) {
    if (Status st =
            co_await wait_word_ge(rank, eager_ack_word(ranks_, dst), s - 1);
        !st.is_ok()) {
      co_return st;
    }
  }
  RankState& me = states_[rank];
  rt_->write(me.eager, rank * kEagerSlot, payload);
  const Status st = co_await rt_->memcpy_pio(
      states_[dst].eager, rank * kEagerSlot, me.eager, rank * kEagerSlot,
      payload.size());
  if (!st.is_ok()) co_return st;
  metrics_.bytes += payload.size();
  co_await signal(rank, dst, eager_data_word(rank), s);
  co_return Status::ok();
}

sim::Task<Status> Communicator::eager_recv(std::uint32_t rank,
                                           std::uint32_t src,
                                           std::uint64_t bytes,
                                           std::vector<std::byte>* out) {
  const std::uint32_t s = ++eager_rx_seq_[std::size_t{rank} * ranks_ + src];
  if (Status st = co_await wait_word_ge(rank, eager_data_word(src), s);
      !st.is_ok()) {
    co_return st;
  }
  out->resize(bytes);
  rt_->read(states_[rank].eager, src * kEagerSlot, *out);
  co_await signal(rank, src, eager_ack_word(ranks_, rank), s);
  co_return Status::ok();
}

sim::Task<Status> Communicator::eager_allreduce(std::uint32_t rank,
                                                api::Buffer buf,
                                                std::uint64_t offset,
                                                std::uint64_t count) {
  const std::uint32_t n = ranks_;
  const std::uint64_t bytes = count * 8;
  if (rank != 0) {
    std::vector<std::byte> mine(bytes);
    rt_->read(buf, offset, mine);
    if (Status st = co_await eager_send(rank, 0, std::move(mine));
        !st.is_ok()) {
      co_return st;
    }
    std::vector<std::byte> reduced;
    if (Status st = co_await eager_recv(rank, 0, bytes, &reduced);
        !st.is_ok()) {
      co_return st;
    }
    rt_->write(buf, offset, reduced);
    co_return Status::ok();
  }
  // Root gathers every contribution, reduces, re-broadcasts.
  std::vector<std::vector<std::byte>> contrib(n);
  contrib[0].resize(bytes);
  rt_->read(buf, offset, contrib[0]);
  for (std::uint32_t q = 1; q < n; ++q) {
    if (Status st = co_await eager_recv(0, q, bytes, &contrib[q]);
        !st.is_ok()) {
      co_return st;
    }
  }
  // Reduce in the exact ring fold order — chunk c accumulates as
  // a_{c+n-1} + (... + (a_{c+1} + a_c)) — so eager and ring allreduce
  // results are bitwise interchangeable.
  std::vector<std::byte> reduced(bytes);
  const std::uint64_t chunk = count / n;
  for (std::uint32_t c = 0; c < n; ++c) {
    for (std::uint64_t i = 0; i < chunk; ++i) {
      const std::uint64_t at = (c * chunk + i) * 8;
      double acc = 0;
      std::memcpy(&acc, contrib[c].data() + at, 8);
      for (std::uint32_t k = 1; k < n; ++k) {
        double v = 0;
        std::memcpy(&v, contrib[(c + k) % n].data() + at, 8);
        acc = v + acc;
      }
      std::memcpy(reduced.data() + at, &acc, 8);
    }
  }
  rt_->write(buf, offset, reduced);
  for (std::uint32_t q = 1; q < n; ++q) {
    std::vector<std::byte> copy = reduced;
    if (Status st = co_await eager_send(0, q, std::move(copy)); !st.is_ok()) {
      co_return st;
    }
  }
  co_return Status::ok();
}

sim::Task<Status> Communicator::allreduce_sum(std::uint32_t rank,
                                              api::Buffer buf,
                                              std::uint64_t offset,
                                              std::uint64_t count) {
  if (count == 0 || count % ranks_ != 0) {
    co_return Status{ErrorCode::kInvalidArgument,
                     "allreduce count must be a positive multiple of the "
                     "rank count"};
  }
  const std::uint64_t bytes = count * 8;
  if (Status st = validate_buffer(rank, buf, offset, bytes); !st.is_ok()) {
    co_return st;
  }
  if (Status st = check_op(rank, OpSig{kOpAllreduce, count, 0,
                                       buf.is_host()});
      !st.is_ok()) {
    co_return st;
  }
  const Algorithm algo = select_algorithm(bytes, buf.is_host());
  const TimePs t0 = rt_->scheduler().now();
  RankState& me = states_[rank];
  TraceSpan span(
      rt_->scheduler().trace(), me.track,
      algo == Algorithm::kEager ? "allreduce.eager" : "allreduce.ring", t0);
  Status st = Status::ok();
  if (algo == Algorithm::kEager) {
    ++metrics_.eager_ops;
    st = co_await eager_allreduce(rank, buf, offset, count);
  } else {
    ++metrics_.ring_ops;
    // Two-phase ring: reduce-scatter leaves rank r with reduced chunk
    // (r+1) mod n, the allgather phase (shift +1) starts there — the
    // exact baseline::Collectives schedule, step for step. The carry
    // threads through both phases: the reduce-scatter's final fold is
    // precisely the chunk the allgather sends first.
    const std::uint64_t chunk_bytes = (count / ranks_) * 8;
    std::vector<std::byte> carry;
    std::vector<std::byte>* cp = buf.is_host() ? nullptr : &carry;
    st = co_await ring_phase(rank, buf, offset, chunk_bytes, 0,
                             RecvMode::kAccumulate, cp);
    if (st.is_ok()) {
      st = co_await ring_phase(rank, buf, offset, chunk_bytes, 1,
                               RecvMode::kCopy, cp);
    }
  }
  if (!st.is_ok()) co_return st;
  ++metrics_.allreduce_ops;
  if (obs::sampling_enabled()) {
    const TimePs dt = rt_->scheduler().now() - t0;
    if (algo == Algorithm::kEager) {
      metrics_.allreduce_eager_latency_ps.add_time(dt);
    } else {
      metrics_.allreduce_ring_latency_ps.add_time(dt);
    }
  }
  span.end(rt_->scheduler().now());
  co_return Status::ok();
}

std::uint64_t Communicator::halo_slot_off(bool from_prev) const {
  return (cfg_.staging_slots + (from_prev ? 0 : 1)) * slot_stride_;
}

sim::Task<Status> Communicator::neighbor_exchange(std::uint32_t rank,
                                                  HaloSpec spec) {
  if (spec.bytes > cfg_.pipeline_seg_bytes) {
    co_return Status{ErrorCode::kInvalidArgument,
                     "halo rows must fit one staging slot "
                     "(bytes <= pipeline_seg_bytes)"};
  }
  for (const std::uint64_t off :
       {spec.send_to_next_off, spec.send_to_prev_off, spec.recv_from_prev_off,
        spec.recv_from_next_off}) {
    if (Status st = validate_buffer(rank, spec.buf, off, spec.bytes);
        !st.is_ok()) {
      co_return st;
    }
  }
  if (Status st = check_op(rank, OpSig{kOpHalo, spec.bytes, 0,
                                       spec.buf.is_host()});
      !st.is_ok()) {
    co_return st;
  }
  if (spec.bytes == 0) {
    ++metrics_.halo_ops;
    co_return Status::ok();
  }
  const std::uint32_t next = ring_next(rank);
  const std::uint32_t prev = ring_prev(rank);
  RankState& me = states_[rank];
  const std::uint32_t h = ++me.halo_seq;
  const TimePs t0 = rt_->scheduler().now();
  TraceSpan span(rt_->scheduler().trace(), me.track, "halo", t0);
  // Both neighbors must have consumed exchange h-1's puts before their
  // halo slots are overwritten (credit of depth 1 per direction).
  if (h > 1) {
    if (Status st = co_await wait_word_ge(rank, kHaloAckNextWord, h - 1);
        !st.is_ok()) {
      co_return st;
    }
    if (Status st = co_await wait_word_ge(rank, kHaloAckPrevWord, h - 1);
        !st.is_ok()) {
      co_return st;
    }
  }
  const Algorithm algo = select_algorithm(spec.bytes, spec.buf.is_host());
  if (algo == Algorithm::kEager) {
    ++metrics_.eager_ops;
    if (Status st = co_await rt_->memcpy_pio(
            states_[next].staging, halo_slot_off(true), spec.buf,
            spec.send_to_next_off, spec.bytes);
        !st.is_ok()) {
      co_return st;
    }
    if (Status st = co_await rt_->memcpy_pio(
            states_[prev].staging, halo_slot_off(false), spec.buf,
            spec.send_to_prev_off, spec.bytes);
        !st.is_ok()) {
      co_return st;
    }
  } else {
    ++metrics_.ring_ops;
    api::Buffer src_next = spec.buf;
    api::Buffer src_prev = spec.buf;
    std::uint64_t off_next = spec.send_to_next_off;
    std::uint64_t off_prev = spec.send_to_prev_off;
    if (!spec.buf.is_host() && spec.bytes >= kGpuStagingMin) {
      std::vector<std::byte> tmp(spec.bytes);
      co_await rt_->cluster()
          .node(rank)
          .gpu(*spec.buf.gpu_index())
          .memcpy_d2h(spec.buf.block_offset + spec.send_to_next_off, tmp);
      rt_->write(me.bounce, 0, tmp);
      co_await rt_->cluster()
          .node(rank)
          .gpu(*spec.buf.gpu_index())
          .memcpy_d2h(spec.buf.block_offset + spec.send_to_prev_off, tmp);
      rt_->write(me.bounce, slot_stride_, tmp);
      metrics_.staged_d2h_bytes += 2 * spec.bytes;
      src_next = me.bounce;
      off_next = 0;
      src_prev = me.bounce;
      off_prev = slot_stride_;
    }
    // Both rows ride one descriptor chain: one doorbell, one interrupt.
    std::vector<api::Runtime::CopyOp> rows{
        {.dst = states_[next].staging,
         .dst_off = halo_slot_off(true),
         .src = src_next,
         .src_off = off_next,
         .bytes = spec.bytes},
        {.dst = states_[prev].staging,
         .dst_off = halo_slot_off(false),
         .src = src_prev,
         .src_off = off_prev,
         .bytes = spec.bytes}};
    const TimePs submitted = rt_->scheduler().now();
    std::uint32_t retries = 0;
    const Status st = co_await rt_->memcpy_peer_batch(rank, std::move(rows),
                                                      cfg_.sync, &retries);
    // A batch that went to the driver resumes the exchange one zero-delay
    // event after its completion, the order every halo schedule and chaos
    // trace was recorded in; a batch refused up front returns inline.
    if (rt_->scheduler().now() != submitted) {
      co_await sim::Delay(rt_->scheduler(), 0);
    }
    // Each re-ring re-sends both rows.
    metrics_.put_retries += 2 * retries;
    if (!st.is_ok()) co_return st;
  }
  metrics_.bytes += 2 * spec.bytes;
  co_await signal(rank, next, kHaloDataPrevWord, h);
  co_await signal(rank, prev, kHaloDataNextWord, h);
  if (Status st = co_await wait_word_ge(rank, kHaloDataPrevWord, h);
      !st.is_ok()) {
    co_return st;
  }
  if (Status st = co_await wait_word_ge(rank, kHaloDataNextWord, h);
      !st.is_ok()) {
    co_return st;
  }
  std::vector<std::byte> row(spec.bytes);
  rt_->read(me.staging, halo_slot_off(true), row);
  rt_->write(spec.buf, spec.recv_from_prev_off, row);
  rt_->read(me.staging, halo_slot_off(false), row);
  rt_->write(spec.buf, spec.recv_from_next_off, row);
  co_await signal(rank, prev, kHaloAckNextWord, h);
  co_await signal(rank, next, kHaloAckPrevWord, h);
  ++metrics_.halo_ops;
  if (obs::sampling_enabled()) {
    metrics_.halo_latency_ps.add_time(rt_->scheduler().now() - t0);
  }
  span.end(rt_->scheduler().now());
  co_return Status::ok();
}

void Communicator::export_metrics(obs::MetricRegistry& reg) const {
  reg.counter("coll.allreduce_ops").set(metrics_.allreduce_ops);
  reg.counter("coll.halo_ops").set(metrics_.halo_ops);
  reg.counter("coll.bytes").set(metrics_.bytes);
  reg.counter("coll.eager_ops").set(metrics_.eager_ops);
  reg.counter("coll.ring_ops").set(metrics_.ring_ops);
  reg.counter("coll.staged_d2h_bytes").set(metrics_.staged_d2h_bytes);
  reg.counter("coll.host_carry_bytes").set(metrics_.host_carry_bytes);
  reg.counter("coll.put_retries").set(metrics_.put_retries);
  if (!metrics_.allreduce_eager_latency_ps.empty()) {
    reg.histogram("coll.allreduce.eager_latency_ps")
        .record_series(metrics_.allreduce_eager_latency_ps);
  }
  if (!metrics_.allreduce_ring_latency_ps.empty()) {
    reg.histogram("coll.allreduce.ring_latency_ps")
        .record_series(metrics_.allreduce_ring_latency_ps);
  }
  if (!metrics_.halo_latency_ps.empty()) {
    reg.histogram("coll.halo.latency_ps")
        .record_series(metrics_.halo_latency_ps);
  }
  rt_->export_metrics(reg);
}

}  // namespace tca::coll
