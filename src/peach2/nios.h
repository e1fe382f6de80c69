// NIOS management processor (Section III-D).
//
// "The PEACH2 chip also includes Altera's NIOS processor as a micro
//  controller. The controller works only to monitor and manage PEARL,
//  except for the packet transfer. Thus, a small, low-power controller is
//  sufficient."
//
// Modeled as interrupt-driven firmware: port attach / link up / link down
// notifications land in a timestamped event log (after a firmware service
// delay), counters accumulate, and management commands arrive via the
// register file. The Gigabit Ethernet / RS-232 side channels of the real
// board are subsumed by the register interface (see DESIGN.md §7).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.h"
#include "peach2/routing.h"
#include "sim/scheduler.h"

namespace tca::peach2 {

class Peach2Chip;

class NiosController {
 public:
  /// Firmware interrupt-service delay: a link event becomes visible in the
  /// log/registers this long after the hardware transition.
  static constexpr TimePs kServiceDelay = units::us(2);

  NiosController(sim::Scheduler& sched, Peach2Chip& chip);

  /// Hardware notification of a link transition (surprise down / retrain);
  /// becomes visible after kServiceDelay.
  void on_link_change(PortId port, bool up);

  /// Construction-time cabling: recorded synchronously (not a runtime
  /// transition, and it must not leave stray events in the scheduler).
  void on_port_attached(PortId port);

  struct LinkEvent {
    TimePs time;
    PortId port;
    bool up;
  };

  [[nodiscard]] const std::vector<LinkEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::uint64_t event_count() const { return events_.size(); }
  [[nodiscard]] TimePs uptime() const;

  /// Firmware's latched view of a port's link state (updated after the
  /// service delay).
  [[nodiscard]] bool link_view(PortId port) const {
    return link_view_[static_cast<std::size_t>(port)];
  }

  /// Registers the (single) listener fired when the firmware services a
  /// link transition — i.e. kServiceDelay after the hardware edge, with
  /// duplicates collapsed. This is the hook the fabric manager uses for
  /// ring failover: reacting at firmware speed, not wire speed, matches the
  /// paper's division of labor (the NIOS "works only to monitor and manage
  /// PEARL").
  void set_link_listener(std::function<void(PortId, bool)> listener) {
    link_listener_ = std::move(listener);
  }

  // --- Register-file surface (dispatched by the chip) -----------------------
  static constexpr std::uint64_t kCmdClearEvents = 1;
  static constexpr std::uint64_t kCmdPing = 2;

  [[nodiscard]] std::uint64_t read_register(std::uint64_t offset) const;
  void write_register(std::uint64_t offset, std::uint64_t value);

 private:
  sim::Scheduler& sched_;
  Peach2Chip& chip_;
  TimePs boot_time_;
  std::array<bool, kPortCount> link_view_{};
  std::vector<LinkEvent> events_;
  std::function<void(PortId, bool)> link_listener_;
  std::uint64_t pings_ = 0;
};

}  // namespace tca::peach2
