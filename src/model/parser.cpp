#include "model/parser.hpp"

#include <cctype>
#include <map>
#include <sstream>
#include <stdexcept>

namespace dynaplat::model {
namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream stream(line);
  std::string token;
  while (stream >> token) {
    if (token[0] == '#') break;  // comment to end of line
    tokens.push_back(token);
  }
  return tokens;
}

/// Splits "key=value" tokens into a map; positional tokens go to `positional`.
std::map<std::string, std::string> split_attrs(
    const std::vector<std::string>& tokens, std::size_t first,
    std::size_t line_no) {
  std::map<std::string, std::string> attrs;
  for (std::size_t i = first; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    if (eq == std::string::npos || eq == 0) {
      throw ParseError(line_no, "expected key=value, got '" + tokens[i] + "'");
    }
    attrs[tokens[i].substr(0, eq)] = tokens[i].substr(eq + 1);
  }
  return attrs;
}

bool parse_bool(const std::string& text, std::size_t line_no) {
  if (text == "yes" || text == "true" || text == "1") return true;
  if (text == "no" || text == "false" || text == "0") return false;
  throw ParseError(line_no, "expected yes/no, got '" + text + "'");
}

/// `value` when it lies in [0, limit): a negative, NaN, infinite or too
/// large literal is an error rather than an undefined integer cast.
double in_range(const std::string& text, double value, double limit) {
  if (!(value >= 0.0 && value < limit)) {
    throw std::out_of_range("value '" + text + "' is negative or out of range");
  }
  return value;
}

std::uint64_t parse_scaled(const std::string& text, std::uint64_t k) {
  if (text.empty()) throw std::invalid_argument("empty numeric literal");
  std::size_t pos = 0;
  const double value = std::stod(text, &pos);
  std::uint64_t scale = 1;
  if (pos < text.size()) {
    switch (text[pos]) {
      case 'K': case 'k': scale = k; break;
      case 'M': case 'm': scale = k * k; break;
      case 'G': case 'g': scale = k * k * k; break;
      default:
        throw std::invalid_argument("bad suffix in '" + text + "'");
    }
  }
  return static_cast<std::uint64_t>(
      in_range(text, value * static_cast<double>(scale), 0x1p64));
}

}  // namespace

sim::Duration parse_duration(const std::string& text) {
  if (text.empty()) throw std::invalid_argument("empty duration");
  std::size_t pos = 0;
  const double value = std::stod(text, &pos);
  const std::string suffix = text.substr(pos);
  double scale = 1;  // default nanoseconds
  if (suffix == "ns" || suffix.empty()) scale = 1;
  else if (suffix == "us") scale = 1e3;
  else if (suffix == "ms") scale = 1e6;
  else if (suffix == "s") scale = 1e9;
  else throw std::invalid_argument("bad duration suffix '" + suffix + "'");
  return static_cast<sim::Duration>(in_range(text, value * scale, 0x1p63));
}

std::uint64_t parse_size(const std::string& text) {
  return parse_scaled(text, 1024);
}

ParsedSystem parse_system(const std::string& text) {
  ParsedSystem out;
  std::istringstream stream(text);
  std::string line;
  std::size_t line_no = 0;
  AppDef* current_app = nullptr;

  auto get = [](const std::map<std::string, std::string>& attrs,
                const std::string& key) -> const std::string* {
    auto it = attrs.find(key);
    return it == attrs.end() ? nullptr : &it->second;
  };

  while (std::getline(stream, line)) {
    ++line_no;
    const bool indented =
        !line.empty() && (line[0] == ' ' || line[0] == '\t');
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& keyword = tokens[0];

    try {
      if (keyword == "network") {
        current_app = nullptr;
        if (tokens.size() < 2) throw ParseError(line_no, "network needs a name");
        NetworkDef def;
        def.name = tokens[1];
        const auto attrs = split_attrs(tokens, 2, line_no);
        if (const auto* v = get(attrs, "kind")) {
          if (*v == "can") def.kind = NetworkKind::kCan;
          else if (*v == "ethernet") def.kind = NetworkKind::kEthernet;
          else if (*v == "tsn") def.kind = NetworkKind::kTsn;
          else if (*v == "flexray") def.kind = NetworkKind::kFlexRay;
          else throw ParseError(line_no, "unknown network kind '" + *v + "'");
        }
        if (const auto* v = get(attrs, "bitrate")) {
          def.bitrate_bps = parse_scaled(*v, 1000);
        }
        out.model.add_network(std::move(def));

      } else if (keyword == "ecu") {
        current_app = nullptr;
        if (tokens.size() < 2) throw ParseError(line_no, "ecu needs a name");
        EcuDef def;
        def.name = tokens[1];
        const auto attrs = split_attrs(tokens, 2, line_no);
        if (const auto* v = get(attrs, "mips")) {
          def.mips = parse_scaled(*v, 1000);
          // Execution time is work / mips: a zero rate has no timing model.
          if (def.mips == 0) throw ParseError(line_no, "mips must be positive");
        }
        if (const auto* v = get(attrs, "cores")) def.cores = std::stoi(*v);
        if (const auto* v = get(attrs, "memory")) def.memory_bytes = parse_size(*v);
        if (const auto* v = get(attrs, "mmu")) def.has_mmu = parse_bool(*v, line_no);
        if (const auto* v = get(attrs, "crypto")) {
          def.crypto_accelerator = parse_bool(*v, line_no);
        }
        if (const auto* v = get(attrs, "asil")) {
          if (!parse_asil(*v, def.max_asil)) {
            throw ParseError(line_no, "bad asil '" + *v + "'");
          }
        }
        if (const auto* v = get(attrs, "os")) {
          if (*v == "rtos") def.rtos = true;
          else if (*v == "posix" || *v == "gpos") def.rtos = false;
          else throw ParseError(line_no, "unknown os '" + *v + "'");
        }
        if (const auto* v = get(attrs, "network")) def.network = *v;
        out.model.add_ecu(std::move(def));

      } else if (keyword == "interface") {
        current_app = nullptr;
        if (tokens.size() < 2) {
          throw ParseError(line_no, "interface needs a name");
        }
        InterfaceDef def;
        def.name = tokens[1];
        const auto attrs = split_attrs(tokens, 2, line_no);
        if (const auto* v = get(attrs, "paradigm")) {
          if (!parse_paradigm(*v, def.paradigm)) {
            throw ParseError(line_no, "bad paradigm '" + *v + "'");
          }
        }
        if (const auto* v = get(attrs, "version")) {
          def.version = static_cast<std::uint32_t>(std::stoul(*v));
        }
        if (const auto* v = get(attrs, "payload")) {
          def.payload_bytes = parse_size(*v);
        }
        if (const auto* v = get(attrs, "period")) {
          def.period = parse_duration(*v);
        }
        if (const auto* v = get(attrs, "max_latency")) {
          def.max_latency = parse_duration(*v);
        }
        if (const auto* v = get(attrs, "max_jitter")) {
          def.max_jitter = parse_duration(*v);
        }
        if (const auto* v = get(attrs, "bandwidth")) {
          def.bandwidth_bps = parse_scaled(*v, 1000);
        }
        out.model.add_interface(std::move(def));

      } else if (keyword == "app") {
        if (tokens.size() < 2) throw ParseError(line_no, "app needs a name");
        AppDef def;
        def.name = tokens[1];
        const auto attrs = split_attrs(tokens, 2, line_no);
        if (const auto* v = get(attrs, "class")) {
          if (*v == "deterministic" || *v == "da") {
            def.app_class = AppClass::kDeterministic;
          } else if (*v == "nondeterministic" || *v == "nda") {
            def.app_class = AppClass::kNonDeterministic;
          } else {
            throw ParseError(line_no, "unknown app class '" + *v + "'");
          }
        }
        if (const auto* v = get(attrs, "asil")) {
          if (!parse_asil(*v, def.asil)) {
            throw ParseError(line_no, "bad asil '" + *v + "'");
          }
        }
        if (const auto* v = get(attrs, "version")) {
          def.version = static_cast<std::uint32_t>(std::stoul(*v));
        }
        if (const auto* v = get(attrs, "memory")) {
          def.memory_bytes = parse_size(*v);
        }
        if (const auto* v = get(attrs, "crypto")) {
          def.needs_crypto = parse_bool(*v, line_no);
        }
        if (const auto* v = get(attrs, "replicas")) {
          def.replicas = std::stoi(*v);
        }
        out.model.add_app(std::move(def));
        // Safe: add_app stores by value in a vector we only append to
        // before the next lookup; re-find to keep a stable pointer.
        current_app = const_cast<AppDef*>(out.model.app(tokens[1]));

      } else if (keyword == "task") {
        if (!indented || current_app == nullptr) {
          throw ParseError(line_no, "task outside app block");
        }
        if (tokens.size() < 2) throw ParseError(line_no, "task needs a name");
        TaskDef def;
        def.name = tokens[1];
        const auto attrs = split_attrs(tokens, 2, line_no);
        if (const auto* v = get(attrs, "period")) {
          def.period = parse_duration(*v);
        }
        if (const auto* v = get(attrs, "deadline")) {
          def.deadline = parse_duration(*v);
        }
        if (const auto* v = get(attrs, "wcet")) {
          def.instructions = parse_scaled(*v, 1000);
        }
        if (const auto* v = get(attrs, "jitter")) {
          def.execution_jitter = std::stod(*v);
        }
        if (const auto* v = get(attrs, "priority")) {
          def.priority = std::stoi(*v);
        }
        current_app->tasks.push_back(std::move(def));

      } else if (keyword == "provides") {
        if (!indented || current_app == nullptr) {
          throw ParseError(line_no, "provides outside app block");
        }
        for (std::size_t i = 1; i < tokens.size(); ++i) {
          current_app->provides.push_back(tokens[i]);
        }

      } else if (keyword == "consumes") {
        if (!indented || current_app == nullptr) {
          throw ParseError(line_no, "consumes outside app block");
        }
        for (std::size_t i = 1; i < tokens.size(); ++i) {
          // "Name@N" pins a minimum interface version.
          const auto at = tokens[i].find('@');
          if (at == std::string::npos) {
            current_app->consumes.push_back(tokens[i]);
          } else {
            const std::string name = tokens[i].substr(0, at);
            current_app->consumes.push_back(name);
            current_app->min_versions[name] = static_cast<std::uint32_t>(
                std::stoul(tokens[i].substr(at + 1)));
          }
        }

      } else if (keyword == "deploy") {
        current_app = nullptr;
        // deploy <app> -> <ecu> [| <ecu> ...]
        if (tokens.size() < 4 || tokens[2] != "->") {
          throw ParseError(line_no, "expected: deploy <app> -> <ecu> [| ...]");
        }
        DeploymentDef::Binding binding;
        binding.app = tokens[1];
        for (std::size_t i = 3; i < tokens.size(); ++i) {
          if (tokens[i] == "|") continue;
          binding.candidates.push_back(tokens[i]);
        }
        if (binding.candidates.empty()) {
          throw ParseError(line_no, "deploy needs at least one candidate");
        }
        out.deployment.bindings.push_back(std::move(binding));

      } else {
        throw ParseError(line_no, "unknown keyword '" + keyword + "'");
      }
    } catch (const ParseError&) {
      throw;
    } catch (const std::exception& e) {
      throw ParseError(line_no, e.what());
    }
  }
  return out;
}

std::string to_dsl(const SystemModel& model,
                   const DeploymentDef& deployment) {
  std::ostringstream os;
  for (const auto& n : model.networks()) {
    os << "network " << n.name << " kind=" << to_string(n.kind)
       << " bitrate=" << n.bitrate_bps << "\n";
  }
  for (const auto& e : model.ecus()) {
    os << "ecu " << e.name << " mips=" << e.mips << " cores=" << e.cores
       << " memory=" << e.memory_bytes << " mmu=" << (e.has_mmu ? "yes" : "no")
       << " crypto=" << (e.crypto_accelerator ? "yes" : "no")
       << " asil=" << to_string(e.max_asil)
       << " os=" << (e.rtos ? "rtos" : "posix");
    if (!e.network.empty()) os << " network=" << e.network;
    os << "\n";
  }
  for (const auto& i : model.interfaces()) {
    os << "interface " << i.name << " paradigm=" << to_string(i.paradigm)
       << " version=" << i.version << " payload=" << i.payload_bytes;
    if (i.period > 0) os << " period=" << i.period << "ns";
    if (i.max_latency > 0) os << " max_latency=" << i.max_latency << "ns";
    if (i.max_jitter > 0) os << " max_jitter=" << i.max_jitter << "ns";
    if (i.bandwidth_bps > 0) os << " bandwidth=" << i.bandwidth_bps;
    os << "\n";
  }
  for (const auto& a : model.apps()) {
    os << "app " << a.name << " class="
       << (a.app_class == AppClass::kDeterministic ? "deterministic"
                                                   : "nondeterministic")
       << " asil=" << to_string(a.asil) << " version=" << a.version
       << " memory=" << a.memory_bytes
       << " crypto=" << (a.needs_crypto ? "yes" : "no")
       << " replicas=" << a.replicas << "\n";
    for (const auto& t : a.tasks) {
      os << "  task " << t.name;
      if (t.period > 0) os << " period=" << t.period << "ns";
      if (t.deadline > 0) os << " deadline=" << t.deadline << "ns";
      os << " wcet=" << t.instructions << " priority=" << t.priority;
      if (t.execution_jitter > 0) os << " jitter=" << t.execution_jitter;
      os << "\n";
    }
    if (!a.provides.empty()) {
      os << "  provides";
      for (const auto& p : a.provides) os << " " << p;
      os << "\n";
    }
    if (!a.consumes.empty()) {
      os << "  consumes";
      for (const auto& c : a.consumes) {
        os << " " << c;
        auto pinned = a.min_versions.find(c);
        if (pinned != a.min_versions.end()) os << "@" << pinned->second;
      }
      os << "\n";
    }
  }
  for (const auto& b : deployment.bindings) {
    os << "deploy " << b.app << " ->";
    for (std::size_t i = 0; i < b.candidates.size(); ++i) {
      if (i > 0) os << " |";
      os << " " << b.candidates[i];
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace dynaplat::model
