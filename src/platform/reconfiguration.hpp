// Self-healing deployment reconfiguration.
//
// Sec. 2.3: "the deployment of a function to a hardware can depend on the
// installed applications and current load of every hardware component in
// the vehicle ... The final mapping might only be applied in the vehicle on
// the road." The ReconfigurationManager implements the on-the-road half of
// that loop: it supervises ECU liveness and, when a host dies, re-deploys
// its (non-replicated) applications to another ECU that passes the local
// admission test — deployment variants from the model first, then any node
// with capacity. Replicated apps are left to the RedundancyManager, which
// has warm state; reconfiguration is the cold-migration fallback for
// everything else.
#pragma once

#include <string>
#include <vector>

#include "platform/platform.hpp"

namespace dynaplat::platform {

struct ReconfigConfig {
  /// Liveness sweep period.
  sim::Duration check_period = 50 * sim::kMillisecond;
};

struct Migration {
  sim::Time at = 0;
  std::string app;
  std::string from_ecu;
  std::string to_ecu;  ///< empty if no placement was found
  bool success = false;
};

class ReconfigurationManager {
 public:
  ReconfigurationManager(DynamicPlatform& platform,
                         ReconfigConfig config = {});
  ~ReconfigurationManager();

  void engage();
  void disengage();

  const std::vector<Migration>& migrations() const { return migrations_; }
  /// Apps currently without a live host (placement failed).
  const std::vector<std::string>& stranded() const { return stranded_; }

 private:
  void sweep();
  /// True if a running, live instance of `app` exists anywhere.
  bool alive_somewhere(const std::string& app);
  /// Attempts placement; returns the hosting ECU name or empty.
  std::string place(const model::AppDef& def,
                    const std::vector<std::string>& preferred,
                    const std::string& exclude_ecu);

  DynamicPlatform& platform_;
  ReconfigConfig config_;
  sim::EventId sweeper_;
  std::vector<Migration> migrations_;
  std::vector<std::string> stranded_;
  std::vector<std::string> previously_stranded_;
  bool engaged_ = false;
};

}  // namespace dynaplat::platform
