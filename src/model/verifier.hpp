// Verification engine (paper Sec. 2.2: "an attached verification engine
// should ensure that the interconnections and deployment mappings fulfill
// the defined requirements"; Sec. 2.3: "every possible mapping [must be]
// functional, safe, and secure").
//
// Rules implemented (paper rationale in parentheses):
//   structure.*    referenced names exist, one owner per interface,
//                  every consumed interface has a provider (Sec. 2.1/2.2)
//   memory.*       per-ECU memory capacity; MMU present when apps share an
//                  ECU (Sec. 3.1 "Memory")
//   cpu.*          utilization feasibility; deterministic apps only on RTOS
//                  ECUs (Sec. 1.1, 3.1 "CPU")
//   asil.*         app ASIL within ECU certification; providers carry at
//                  least their consumers' ASIL (Sec. 3 "correct safety
//                  ratings for all dependencies")
//   redundancy.*   replica count satisfiable on distinct ECUs (Sec. 3.3)
//   security.*     crypto-demanding apps on capable ECUs or flagged for
//                  update-master delegation (Sec. 4.1)
//   network.*      shared medium between communicating apps, latency
//                  requirement vs. medium floor, stream bandwidth budget
//                  (Sec. 2.2 interface attributes)
//
// Variant-bearing deployments are expanded (capped) and each concrete
// assignment verified, implementing Sec. 2.3 literally.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "model/system_model.hpp"

namespace dynaplat::model {

enum class Severity : std::uint8_t { kError, kWarning };

struct Violation {
  Severity severity = Severity::kError;
  std::string rule;     ///< e.g. "asil.dependency"
  std::string subject;  ///< offending app/ecu/interface
  std::string message;
};

/// One concrete placement: app name -> ECU names hosting it (one entry per
/// replica; size == AppDef::replicas).
struct Assignment {
  std::map<std::string, std::vector<std::string>> placement;

  /// Apps hosted on `ecu` (replicas count once per hosting).
  std::vector<std::string> apps_on(const std::string& ecu) const;
};

/// Thread-safety contract: a configured Verifier is immutable — verify()
/// and verify_assignment() are const, keep no per-call state on the object
/// and may be invoked concurrently from any number of threads (the DSE
/// explorer's parallel fitness workers share one instance). The one
/// configuration mutator, set_schedulability_hook(), must happen-before the
/// first concurrent use, and the installed hook itself must be reentrant
/// (dse::make_verifier_hook()'s is: it captures nothing and only touches
/// locals).
class Verifier {
 public:
  /// Optional exact schedulability test (provided by dse::); receives the
  /// apps placed on one ECU. Returning false adds a cpu.schedulability
  /// error with `why`.
  using SchedulabilityHook = std::function<bool(
      const EcuDef& ecu, const std::vector<const AppDef*>& apps,
      std::string* why)>;

  void set_schedulability_hook(SchedulabilityHook hook) {
    sched_hook_ = std::move(hook);
  }

  /// Expands deployment variants (up to `max_variants` combinations) and
  /// verifies every concrete assignment. Violations are deduplicated by
  /// (rule, subject).
  std::vector<Violation> verify(const SystemModel& model,
                                const DeploymentDef& deployment,
                                std::size_t max_variants = 4096) const;

  /// Verifies one concrete assignment.
  std::vector<Violation> verify_assignment(const SystemModel& model,
                                           const Assignment& assignment) const;

  /// Expands a deployment into concrete assignments. Apps with replicas == n
  /// occupy their first n candidates in every variant; single-replica apps
  /// range over all their candidates. Truncated at `max_variants`.
  static std::vector<Assignment> expand(const SystemModel& model,
                                        const DeploymentDef& deployment,
                                        std::size_t max_variants = 4096);

  static bool has_errors(const std::vector<Violation>& violations);

 private:
  void check_structure(const SystemModel& model, const Assignment& assignment,
                       std::vector<Violation>& out) const;
  void check_capacity(const SystemModel& model, const Assignment& assignment,
                      std::vector<Violation>& out) const;
  void check_safety(const SystemModel& model, const Assignment& assignment,
                    std::vector<Violation>& out) const;
  void check_security(const SystemModel& model, const Assignment& assignment,
                      std::vector<Violation>& out) const;
  void check_network(const SystemModel& model, const Assignment& assignment,
                     std::vector<Violation>& out) const;

  SchedulabilityHook sched_hook_;
};

/// The host rule (Sec. 1.1, Sec. 3): `ecu` may host `app` only if its
/// certification covers the app's ASIL and, when the app is deterministic,
/// it runs an RTOS. Appends an asil.ecu-certification and/or a
/// cpu.rtos-required error (subject: the app) to `out` when given, and
/// returns whether the placement is allowed. The verifier, the DSE, node
/// install and recovery planning all ask this one function.
bool host_admits(const AppDef& app, const EcuDef& ecu,
                 std::vector<Violation>* out = nullptr);

/// Minimum achievable one-way latency of a payload on a network kind
/// (transmission time only) — the floor an interface requirement is checked
/// against.
sim::Duration network_latency_floor(const NetworkDef& network,
                                    std::size_t payload_bytes);

}  // namespace dynaplat::model
