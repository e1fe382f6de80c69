#include "pcie/tlp.h"

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

std::uint64_t Tlp::wire_bytes() const {
  switch (type) {
    case TlpType::kMemWrite:
      return calib::kTlpWithDataOverheadBytes + payload.size();
    case TlpType::kMemRead:
      return calib::kTlpReadRequestBytes;
    case TlpType::kCompletion:
      return calib::kTlpCompletionOverheadBytes + payload.size();
    case TlpType::kVendorMsg:
      return calib::kTlpReadRequestBytes;  // header-only message
  }
  return calib::kTlpWithDataOverheadBytes;
}

Tlp Tlp::mem_write(std::uint64_t address, std::span<const std::byte> data,
                   DeviceId requester) {
  return mem_write(address, Payload(data.begin(), data.end()), requester);
}

Tlp Tlp::mem_write(std::uint64_t address, Payload&& data,
                   DeviceId requester) {
  TCA_ASSERT(data.size() <= calib::kMaxPayloadBytes);
  Tlp tlp;
  tlp.type = TlpType::kMemWrite;
  tlp.address = address;
  tlp.length = static_cast<std::uint32_t>(data.size());
  tlp.requester = requester;
  tlp.payload = std::move(data);
  return tlp;
}

Tlp Tlp::mem_read(std::uint64_t address, std::uint32_t length,
                  DeviceId requester, std::uint8_t tag) {
  TCA_ASSERT(length > 0 && length <= calib::kMaxReadRequestBytes);
  Tlp tlp;
  tlp.type = TlpType::kMemRead;
  tlp.address = address;
  tlp.length = length;
  tlp.requester = requester;
  tlp.tag = tag;
  tlp.byte_count_remaining = length;
  return tlp;
}

Tlp Tlp::completion(const Tlp& request, std::uint32_t length,
                    std::uint32_t byte_count_remaining) {
  TCA_ASSERT(request.type == TlpType::kMemRead);
  TCA_ASSERT(length <= byte_count_remaining);
  Tlp tlp;
  tlp.type = TlpType::kCompletion;
  tlp.address = request.address + (request.length - byte_count_remaining);
  tlp.length = length;
  tlp.requester = request.requester;
  tlp.tag = request.tag;
  tlp.byte_count_remaining = byte_count_remaining;
  tlp.payload.resize(length);
  return tlp;
}

Tlp Tlp::vendor_msg(std::uint64_t address, DeviceId requester,
                    std::uint8_t tag) {
  Tlp tlp;
  tlp.type = TlpType::kVendorMsg;
  tlp.address = address;
  tlp.requester = requester;
  tlp.tag = tag;
  return tlp;
}

}  // namespace tca::pcie
