#include "model/verifier.hpp"

#include <algorithm>
#include <set>
#include <sstream>

namespace dynaplat::model {

std::vector<std::string> Assignment::apps_on(const std::string& ecu) const {
  std::vector<std::string> out;
  for (const auto& [app, ecus] : placement) {
    for (const auto& host : ecus) {
      if (host == ecu) {
        out.push_back(app);
        break;
      }
    }
  }
  return out;
}

bool Verifier::has_errors(const std::vector<Violation>& violations) {
  return std::any_of(violations.begin(), violations.end(),
                     [](const Violation& v) {
                       return v.severity == Severity::kError;
                     });
}

std::vector<Assignment> Verifier::expand(const SystemModel& model,
                                         const DeploymentDef& deployment,
                                         std::size_t max_variants) {
  // Replica apps pin their first `replicas` candidates; single-replica apps
  // contribute a free choice each.
  std::vector<Assignment> variants(1);
  for (const auto& binding : deployment.bindings) {
    const AppDef* app = model.app(binding.app);
    const int replicas = app != nullptr ? app->replicas : 1;
    if (replicas > 1) {
      std::vector<std::string> hosts;
      for (int i = 0; i < replicas &&
                      i < static_cast<int>(binding.candidates.size());
           ++i) {
        hosts.push_back(binding.candidates[static_cast<std::size_t>(i)]);
      }
      for (auto& variant : variants) {
        variant.placement[binding.app] = hosts;
      }
      continue;
    }
    std::vector<Assignment> next;
    next.reserve(variants.size() * binding.candidates.size());
    for (const auto& variant : variants) {
      for (const auto& candidate : binding.candidates) {
        Assignment extended = variant;
        extended.placement[binding.app] = {candidate};
        next.push_back(std::move(extended));
        if (next.size() >= max_variants) break;
      }
      if (next.size() >= max_variants) break;
    }
    variants = std::move(next);
    if (variants.size() >= max_variants) break;
  }
  return variants;
}

std::vector<Violation> Verifier::verify(const SystemModel& model,
                                        const DeploymentDef& deployment,
                                        std::size_t max_variants) const {
  std::vector<Violation> all;
  std::set<std::pair<std::string, std::string>> seen;
  for (const auto& assignment : expand(model, deployment, max_variants)) {
    for (auto& violation : verify_assignment(model, assignment)) {
      if (seen.insert({violation.rule, violation.subject}).second) {
        all.push_back(std::move(violation));
      }
    }
  }
  return all;
}

std::vector<Violation> Verifier::verify_assignment(
    const SystemModel& model, const Assignment& assignment) const {
  std::vector<Violation> out;
  check_structure(model, assignment, out);
  check_capacity(model, assignment, out);
  check_safety(model, assignment, out);
  check_security(model, assignment, out);
  check_network(model, assignment, out);
  return out;
}

void Verifier::check_structure(const SystemModel& model,
                               const Assignment& assignment,
                               std::vector<Violation>& out) const {
  // Referenced names resolve.
  for (const auto& [app_name, hosts] : assignment.placement) {
    if (model.app(app_name) == nullptr) {
      out.push_back({Severity::kError, "structure.unknown-app", app_name,
                     "deployed app is not defined in the model"});
    }
    for (const auto& host : hosts) {
      if (model.ecu(host) == nullptr) {
        out.push_back({Severity::kError, "structure.unknown-ecu", host,
                       "deployment targets an undefined ECU"});
      }
    }
  }
  for (const auto& ecu : model.ecus()) {
    if (!ecu.network.empty() && model.network(ecu.network) == nullptr) {
      out.push_back({Severity::kError, "structure.unknown-network", ecu.name,
                     "ECU references undefined network '" + ecu.network + "'"});
    }
  }
  // One owner per interface; every consumed interface provided; referenced
  // interfaces defined.
  for (const auto& interface : model.interfaces()) {
    int providers = 0;
    for (const auto& app : model.apps()) {
      providers += static_cast<int>(
          std::count(app.provides.begin(), app.provides.end(),
                     interface.name));
    }
    if (providers > 1) {
      out.push_back({Severity::kError, "structure.multiple-owners",
                     interface.name,
                     "interface has more than one provider/owner"});
    }
  }
  for (const auto& app : model.apps()) {
    for (const auto& name : app.provides) {
      if (model.interface(name) == nullptr) {
        out.push_back({Severity::kError, "structure.unknown-interface",
                       app.name, "provides undefined interface '" + name + "'"});
      }
    }
    for (const auto& name : app.consumes) {
      const InterfaceDef* interface = model.interface(name);
      if (interface == nullptr) {
        out.push_back({Severity::kError, "structure.unknown-interface",
                       app.name,
                       "consumes undefined interface '" + name + "'"});
      } else if (model.provider_of(name) == nullptr) {
        out.push_back({Severity::kError, "structure.unprovided-interface",
                       name, "consumed by " + app.name +
                                 " but no app provides it"});
      } else {
        auto pinned = app.min_versions.find(name);
        if (pinned != app.min_versions.end() &&
            interface->version < pinned->second) {
          std::ostringstream msg;
          msg << "requires '" << name << "' version >= " << pinned->second
              << " but the model defines version " << interface->version;
          out.push_back({Severity::kError, "structure.version-mismatch",
                         app.name, msg.str()});
        }
      }
    }
    if (assignment.placement.count(app.name) == 0) {
      out.push_back({Severity::kWarning, "structure.undeployed-app", app.name,
                     "app is modeled but not deployed"});
    }
  }
}

void Verifier::check_capacity(const SystemModel& model,
                              const Assignment& assignment,
                              std::vector<Violation>& out) const {
  for (const auto& ecu : model.ecus()) {
    const auto apps = assignment.apps_on(ecu.name);
    std::size_t memory = 0;
    double utilization = 0.0;
    std::vector<const AppDef*> defs;
    bool any_da = false;
    for (const auto& app_name : apps) {
      const AppDef* app = model.app(app_name);
      if (app == nullptr) continue;
      defs.push_back(app);
      memory += app->memory_bytes;
      utilization += app->utilization_on(ecu.mips);
      any_da = any_da || app->app_class == AppClass::kDeterministic;
    }
    if (memory > ecu.memory_bytes) {
      std::ostringstream msg;
      msg << "apps need " << memory << " B but ECU has " << ecu.memory_bytes
          << " B";
      out.push_back({Severity::kError, "memory.capacity", ecu.name,
                     msg.str()});
    }
    if (apps.size() > 1 && !ecu.has_mmu) {
      out.push_back({Severity::kError, "memory.mmu-required", ecu.name,
                     "multiple apps share this ECU but it has no MMU "
                     "(freedom from interference, Sec. 3.1)"});
    }
    const double capacity = std::max(1, ecu.cores);
    if (utilization > capacity) {
      std::ostringstream msg;
      msg << "utilization " << utilization << " exceeds " << capacity
          << " core(s)";
      out.push_back({Severity::kError, "cpu.overload", ecu.name, msg.str()});
    } else if (any_da && utilization > 0.69 * capacity && !sched_hook_) {
      out.push_back({Severity::kWarning, "cpu.high-utilization", ecu.name,
                     "deterministic apps above the Liu-Layland bound; exact "
                     "schedulability analysis required"});
    }
    if (sched_hook_ && !defs.empty()) {
      std::string why;
      if (!sched_hook_(ecu, defs, &why)) {
        out.push_back({Severity::kError, "cpu.schedulability", ecu.name,
                       why.empty() ? "task set not schedulable" : why});
      }
    }
  }
}

bool host_admits(const AppDef& app, const EcuDef& ecu,
                 std::vector<Violation>* out) {
  const bool certified = app.asil <= ecu.max_asil;
  const bool rtos_ok = app.app_class != AppClass::kDeterministic || ecu.rtos;
  if (out != nullptr && !certified) {
    out->push_back({Severity::kError, "asil.ecu-certification", app.name,
                    "app ASIL " + std::string(to_string(app.asil)) +
                        " exceeds ECU '" + ecu.name + "' certification " +
                        to_string(ecu.max_asil)});
  }
  if (out != nullptr && !rtos_ok) {
    out->push_back({Severity::kError, "cpu.rtos-required", app.name,
                    "deterministic app on non-RTOS ECU '" + ecu.name + "'"});
  }
  return certified && rtos_ok;
}

void Verifier::check_safety(const SystemModel& model,
                            const Assignment& assignment,
                            std::vector<Violation>& out) const {
  for (const auto& [app_name, hosts] : assignment.placement) {
    const AppDef* app = model.app(app_name);
    if (app == nullptr) continue;
    for (const auto& host : hosts) {
      const EcuDef* ecu = model.ecu(host);
      if (ecu != nullptr) host_admits(*app, *ecu, &out);
    }
    // Dependency safety: every provider of a consumed interface must carry
    // at least this app's ASIL.
    for (const AppDef* dep : model.dependencies_of(*app)) {
      if (dep->asil < app->asil) {
        out.push_back({Severity::kError, "asil.dependency", app_name,
                       "depends on '" + dep->name + "' (ASIL " +
                           to_string(dep->asil) + ") below own ASIL " +
                           to_string(app->asil)});
      }
    }
    // Redundancy: replicas on distinct, live ECUs.
    if (app->replicas > 1) {
      std::set<std::string> distinct(hosts.begin(), hosts.end());
      if (static_cast<int>(distinct.size()) < app->replicas) {
        std::ostringstream msg;
        msg << "needs " << app->replicas << " replicas on distinct ECUs, got "
            << distinct.size();
        out.push_back({Severity::kError, "redundancy.placement", app_name,
                       msg.str()});
      }
    }
  }
}

void Verifier::check_security(const SystemModel& model,
                              const Assignment& assignment,
                              std::vector<Violation>& out) const {
  for (const auto& [app_name, hosts] : assignment.placement) {
    const AppDef* app = model.app(app_name);
    if (app == nullptr || !app->needs_crypto) continue;
    for (const auto& host : hosts) {
      const EcuDef* ecu = model.ecu(host);
      if (ecu == nullptr) continue;
      if (!ecu->crypto_accelerator && ecu->mips < 1000) {
        out.push_back(
            {Severity::kWarning, "security.weak-crypto-host", app_name,
             "crypto-demanding app on weak ECU '" + host +
                 "' without accelerator; delegate verification to an "
                 "update master (Sec. 4.1)"});
      }
    }
  }
}

sim::Duration network_latency_floor(const NetworkDef& network,
                                    std::size_t payload_bytes) {
  std::size_t on_wire_bits = 0;
  switch (network.kind) {
    case NetworkKind::kCan: {
      // Segmentation into 8-byte frames, 135 worst-case bits each.
      const std::size_t frames = (payload_bytes + 7) / 8;
      on_wire_bits = frames * 135;
      break;
    }
    case NetworkKind::kEthernet:
    case NetworkKind::kTsn: {
      const std::size_t frames = (payload_bytes + 1499) / 1500;
      const std::size_t last = payload_bytes - (frames - 1) * 1500;
      on_wire_bits = (frames - 1) * (1500 + 42) * 8 +
                     (std::max<std::size_t>(last, 46) + 42) * 8;
      // Two hops through the switch.
      on_wire_bits *= 2;
      break;
    }
    case NetworkKind::kFlexRay: {
      const std::size_t frames = (payload_bytes + 253) / 254;
      on_wire_bits = frames * (254 + 10) * 8;
      break;
    }
  }
  return static_cast<sim::Duration>(
      static_cast<std::uint64_t>(on_wire_bits) * sim::kSecond /
      network.bitrate_bps);
}

void Verifier::check_network(const SystemModel& model,
                             const Assignment& assignment,
                             std::vector<Violation>& out) const {
  // Bandwidth budget per network and latency floors per interface.
  std::map<std::string, std::uint64_t> stream_load;

  for (const auto& interface : model.interfaces()) {
    const AppDef* provider = model.provider_of(interface.name);
    if (provider == nullptr) continue;
    const auto provider_hosts = assignment.placement.find(provider->name);
    if (provider_hosts == assignment.placement.end()) continue;

    for (const AppDef* consumer : model.consumers_of(interface.name)) {
      const auto consumer_hosts = assignment.placement.find(consumer->name);
      if (consumer_hosts == assignment.placement.end()) continue;
      // Cross-ECU pairs must share a network; latency floor applies.
      for (const auto& ph : provider_hosts->second) {
        for (const auto& ch : consumer_hosts->second) {
          if (ph == ch) continue;  // co-located: RTE-local, no network
          const EcuDef* pe = model.ecu(ph);
          const EcuDef* ce = model.ecu(ch);
          if (pe == nullptr || ce == nullptr) continue;
          if (pe->network.empty() || pe->network != ce->network) {
            out.push_back({Severity::kError, "network.unreachable",
                           interface.name,
                           "provider on '" + ph + "' and consumer on '" + ch +
                               "' share no network"});
            continue;
          }
          const NetworkDef* net = model.network(pe->network);
          if (net == nullptr) continue;
          if (interface.max_latency > 0) {
            const sim::Duration floor =
                network_latency_floor(*net, interface.payload_bytes);
            if (interface.max_latency < floor) {
              std::ostringstream msg;
              msg << "latency requirement " << interface.max_latency
                  << " ns below network floor " << floor << " ns on "
                  << net->name;
              out.push_back({Severity::kError, "network.latency-floor",
                             interface.name, msg.str()});
            }
          }
          if (interface.paradigm == Paradigm::kStream &&
              interface.bandwidth_bps > 0) {
            stream_load[net->name] += interface.bandwidth_bps;
          }
        }
      }
    }
  }

  for (const auto& [net_name, load] : stream_load) {
    const NetworkDef* net = model.network(net_name);
    if (net == nullptr) continue;
    // 75% usable capacity keeps queues bounded.
    if (load > net->bitrate_bps * 3 / 4) {
      std::ostringstream msg;
      msg << "aggregate stream bandwidth " << load << " bps exceeds 75% of "
          << net->bitrate_bps << " bps";
      out.push_back(
          {Severity::kError, "network.bandwidth", net_name, msg.str()});
    }
  }
}

}  // namespace dynaplat::model
