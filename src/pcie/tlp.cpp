#include "pcie/tlp.h"

#include <new>

#include "common/error.h"

namespace tca::pcie {

const char* to_string(TlpType type) {
  switch (type) {
    case TlpType::kMemWrite: return "MWr";
    case TlpType::kMemRead: return "MRd";
    case TlpType::kCompletion: return "CplD";
    case TlpType::kVendorMsg: return "Msg";
  }
  return "?";
}

TlpPtr Tlp::make() {
  return TlpPtr(::new (sim::arena_alloc(sizeof(Tlp))) Tlp());
}

void Tlp::rewrite_as_mem_write(std::uint64_t to, DeviceId from) {
  TCA_ASSERT(payload.size() <= calib::kMaxPayloadBytes);
  type = TlpType::kMemWrite;
  address = to;
  length = static_cast<std::uint32_t>(payload.size());
  requester = from;
  tag = 0;
  byte_count_remaining = 0;
  ack_address = 0;
  commit_notifier = nullptr;
}

TlpPtr Tlp::mem_write(std::uint64_t address, std::span<const std::byte> data,
                      DeviceId requester) {
  TCA_ASSERT(data.size() <= calib::kMaxPayloadBytes);
  TlpPtr tlp = make();
  tlp->address = address;
  tlp->length = static_cast<std::uint32_t>(data.size());
  tlp->requester = requester;
  tlp->payload.assign(data.begin(), data.end());
  return tlp;
}

TlpPtr Tlp::mem_read(std::uint64_t address, std::uint32_t length,
                     DeviceId requester, std::uint8_t tag) {
  TCA_ASSERT(length > 0 && length <= calib::kMaxReadRequestBytes);
  TlpPtr tlp = make();
  tlp->type = TlpType::kMemRead;
  tlp->address = address;
  tlp->length = length;
  tlp->requester = requester;
  tlp->tag = tag;
  tlp->byte_count_remaining = length;
  return tlp;
}

TlpPtr Tlp::completion(const Tlp& request, std::uint32_t length,
                       std::uint32_t byte_count_remaining) {
  TCA_ASSERT(request.type == TlpType::kMemRead);
  TCA_ASSERT(length <= byte_count_remaining);
  TlpPtr tlp = make();
  tlp->type = TlpType::kCompletion;
  tlp->address = request.address + (request.length - byte_count_remaining);
  tlp->length = length;
  tlp->requester = request.requester;
  tlp->tag = request.tag;
  tlp->byte_count_remaining = byte_count_remaining;
  tlp->payload.resize(length);
  return tlp;
}

TlpPtr Tlp::vendor_msg(std::uint64_t address, DeviceId requester,
                       std::uint8_t tag) {
  TlpPtr tlp = make();
  tlp->type = TlpType::kVendorMsg;
  tlp->address = address;
  tlp->requester = requester;
  tlp->tag = tag;
  return tlp;
}

}  // namespace tca::pcie
