// Electronic Control Unit: one compute node of the E/E architecture.
//
// Aggregates a Processor, protected memory and a network attachment, plus
// fault-injection hooks (fail/recover) used by the redundancy experiments.
// The dynamic platform (src/platform) layers application management on top
// of a set of Ecus — "logically located across multiple hardware elements
// and operating systems" (Sec. 1.1).
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "net/medium.hpp"
#include "os/memory.hpp"
#include "os/processor.hpp"

namespace dynaplat::os {

enum class OsKind : std::uint8_t {
  kRtos,          ///< time/priority scheduling, fit for deterministic apps
  kGeneralPurpose ///< fair scheduling only; NDAs only (Sec. 1.1)
};

struct EcuConfig {
  std::string name;
  CpuModel cpu = {};
  /// Core count; every core shares the CpuModel. The paper's central
  /// computing platforms are multicore by necessity (Sec. 1 "increasing
  /// computation requirements").
  int cores = 1;
  std::size_t memory_bytes = 64 * 1024 * 1024;
  bool has_mmu = true;
  OsKind os = OsKind::kRtos;
  std::uint64_t seed = 1;
};

class Ecu {
 public:
  /// `node` is this ECU's address on `medium`; pass nullptr for an
  /// unconnected bench ECU.
  Ecu(sim::Simulator& simulator, EcuConfig config, net::Medium* medium,
      net::NodeId node, sim::Trace* trace = nullptr);
  ~Ecu();
  Ecu(const Ecu&) = delete;
  Ecu& operator=(const Ecu&) = delete;

  /// Core 0 (also the core the communication stack runs on).
  Processor& processor() { return *processors_[0]; }
  const Processor& processor() const { return *processors_[0]; }
  /// A specific core.
  Processor& processor(std::size_t core) { return *processors_[core]; }
  const Processor& processor(std::size_t core) const {
    return *processors_[core];
  }
  std::size_t core_count() const { return processors_.size(); }
  MemoryManager& memory() { return *memory_; }
  const EcuConfig& config() const { return config_; }
  const std::string& name() const { return config_.name; }
  net::NodeId node_id() const { return node_; }
  net::Medium* medium() { return medium_; }
  sim::Simulator& simulator() { return sim_; }
  sim::Trace* trace() { return trace_; }

  /// Sends a frame from this ECU (no-op when failed or unconnected).
  void send(net::Frame frame);
  /// Sends a burst of frames (a fragmented message) in one medium call.
  /// The vector is consumed; it comes back empty with capacity intact so
  /// the transport can reuse it without reallocating.
  void send_batch(std::vector<net::Frame>& frames);
  /// Registers the receive path; frames are dropped while failed.
  void set_receive_handler(net::ReceiveHandler handler);

  /// Hard fault: processor halts, frames are no longer sent or received.
  /// Models the "ECU failure on the highway" of Sec. 3.3.
  void fail();
  /// Restores operation (processor restarts releases of remaining tasks).
  void recover();
  bool failed() const { return failed_; }

 private:
  sim::Simulator& sim_;
  EcuConfig config_;
  net::Medium* medium_;
  net::NodeId node_;
  sim::Trace* trace_;
  std::vector<std::unique_ptr<Processor>> processors_;
  std::unique_ptr<MemoryManager> memory_;
  net::ReceiveHandler receive_handler_;
  bool failed_ = false;
};

std::unique_ptr<Scheduler> default_scheduler_for(OsKind os);

}  // namespace dynaplat::os
