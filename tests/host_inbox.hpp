// Test-side record of the packets an attack::Host receives.
//
// Host keeps no inbox of its own: tests that inspect what arrived attach
// an Inbox, which records through Host::add_listener (after the packet
// hook, in arrival order) from the moment it is constructed.
#pragma once

#include <memory>
#include <vector>

#include "attack/host.hpp"

namespace tmg::testutil {

class Inbox {
 public:
  explicit Inbox(attack::Host& host) {
    // The listener co-owns the log, so it stays valid whichever of the
    // host and the Inbox is destroyed first.
    host.add_listener([log = log_](const net::Packet& pkt) {
      log->push_back(pkt);
    });
  }

  [[nodiscard]] const std::vector<net::Packet>& packets() const {
    return *log_;
  }
  void clear() { log_->clear(); }

 private:
  std::shared_ptr<std::vector<net::Packet>> log_ =
      std::make_shared<std::vector<net::Packet>>();
};

}  // namespace tmg::testutil
