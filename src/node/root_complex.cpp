#include "node/root_complex.h"

#include <algorithm>
#include <utility>

#include "common/log.h"

namespace tca::node {

using calib::kHostReadLatencyPs;
using calib::kHostWriteCommitPs;
using calib::kMaxPayloadBytes;

RootComplex::RootComplex(sim::Scheduler& sched, int socket,
                         mem::Dram& host_dram, std::uint64_t host_base,
                         pcie::DeviceId cpu_id)
    : sched_(sched),
      socket_(socket),
      host_dram_(host_dram),
      host_base_(host_base),
      cpu_id_(cpu_id) {
  const Status st = map_.add(host_base, host_dram.size(),
                             Attachment{Attachment::Kind::kHostMemory});
  TCA_ASSERT(st.is_ok());
}

Status RootComplex::attach_device(
    pcie::DeviceId id, pcie::LinkPort& rc_port,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& bars) {
  const Attachment device{Attachment::Kind::kDevice, egress_.size()};
  for (const auto& [base, size] : bars) {
    Status st = map_.add(base, size, device);
    if (!st.is_ok()) return st;
  }
  requester_route_[id] = device;
  rc_port.set_sink(this);
  add_egress(rc_port);
  return Status::ok();
}

void RootComplex::connect_qpi(pcie::LinkPort& qpi_port) {
  qpi_port_ = &qpi_port;
  qpi_port.set_sink(this);
  qpi_egress_ = add_egress(qpi_port);
}

std::size_t RootComplex::add_egress(pcie::LinkPort& port) {
  const std::size_t i = egress_.size();
  egress_.push_back(Egress{&port, {}});
  port.set_tx_ready([this, i] { pump(egress_[i]); });
  return i;
}

void RootComplex::inject_from_cpu(pcie::TlpPtr tlp) {
  route(std::move(tlp), /*arrived_via_qpi=*/false);
}

// tca-protocol: owns(rx-credit)
void RootComplex::on_tlp(pcie::TlpPtr tlp, pcie::LinkPort& port) {
  // The RC has ample internal buffering: return link credits on receipt.
  port.release_rx(tlp->wire_bytes());
  route(std::move(tlp), /*arrived_via_qpi=*/&port == qpi_port_);
}

void RootComplex::route(pcie::TlpPtr tlp, bool arrived_via_qpi) {
  if (tlp->type == pcie::TlpType::kCompletion) {
    send_to_requester(std::move(tlp));
    return;
  }

  const std::uint64_t span = std::max<std::uint64_t>(
      1, tlp->type == pcie::TlpType::kMemRead ? tlp->length
                                              : tlp->payload.size());
  const auto* range = map_.find_span(tlp->address, span);
  if (range == nullptr) {
    // Not local to this socket: cross QPI once.
    if (!arrived_via_qpi && qpi_port_ != nullptr) {
      forward(qpi_egress_, std::move(tlp));
      return;
    }
    ++unroutable_;
    Log::write(LogLevel::kWarn, sched_.now(), "rc", "unroutable TLP dropped");
    return;
  }

  switch (range->value.kind) {
    case Attachment::Kind::kHostMemory:
      if (tlp->type == pcie::TlpType::kMemWrite) {
        handle_host_write(std::move(tlp));
      } else if (tlp->type == pcie::TlpType::kMemRead) {
        handle_host_read(std::move(tlp));
      } else {
        ++unroutable_;  // vendor messages never target host memory
      }
      break;
    case Attachment::Kind::kDevice:
      forward(range->value.egress, std::move(tlp));
      break;
  }
}

void RootComplex::handle_host_write(pcie::TlpPtr tlp) {
  host_wr_ += tlp->payload.size();
  const std::uint64_t offset = tlp->address - host_base_;
  // tca-protocol: commit-point, owns(commit-ack)
  auto commit = [this, offset, t = std::move(tlp)] {
    host_dram_.write(offset, t->payload);  // tca-protocol: commit
    // tca-protocol: release(commit-ack)
    if (t->commit_notifier != nullptr) {
      t->commit_notifier->on_write_commit(t->ack_address, t->tag);
    }
  };
  sched_.schedule_after(kHostWriteCommitPs, std::move(commit));
}

void RootComplex::handle_host_read(pcie::TlpPtr tlp) {
  host_rd_ += tlp->length;
  auto respond = [this, req = std::move(tlp)] {
    const std::uint64_t offset = req->address - host_base_;
    std::uint32_t remaining = req->length;
    while (remaining > 0) {
      const std::uint32_t chunk = std::min(remaining, kMaxPayloadBytes);
      pcie::TlpPtr cpl = pcie::Tlp::completion(*req, chunk, remaining);
      host_dram_.read(offset + (req->length - remaining), cpl->payload);
      send_to_requester(std::move(cpl));
      remaining -= chunk;
    }
  };
  sched_.schedule_after(kHostReadLatencyPs, std::move(respond));
}

void RootComplex::send_to_requester(pcie::TlpPtr cpl) {
  if (cpl->requester == cpu_id_) {
    TCA_ASSERT(cpu_completion_ != nullptr);
    cpu_completion_(std::move(cpl));
    return;
  }
  if (auto it = requester_route_.find(cpl->requester);
      it != requester_route_.end()) {
    forward(it->second.egress, std::move(cpl));
    return;
  }
  if (qpi_port_ != nullptr) {
    forward(qpi_egress_, std::move(cpl));
    return;
  }
  ++unroutable_;
}

void RootComplex::forward(std::size_t egress, pcie::TlpPtr tlp) {
  Egress& eg = egress_[egress];
  eg.queue.push_back(std::move(tlp));
  pump(eg);
}

void RootComplex::pump(Egress& eg) {
  while (!eg.queue.empty() && eg.port->can_send(*eg.queue.front())) {
    eg.port->send(std::move(eg.queue.front()));
    eg.queue.pop_front();
  }
}

}  // namespace tca::node
