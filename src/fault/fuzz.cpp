#include "fault/fuzz.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>

#include "obs/json.hpp"
#include "sim/sweep.hpp"

namespace dynaplat::fault {

namespace {

/// Salt separating the mutation-RNG stream family from every other
/// Random::stream user (sweep indices, DSE chains, ...).
constexpr std::uint64_t kFuzzSalt = 0x46555A5Aull;  // "FUZZ"

/// Corpus bound; beyond it a stronger entry replaces the weakest one.
constexpr std::size_t kMaxCorpus = 64;

/// AFL-style hit-count bucket: the bit width of the per-run count, so
/// 1, 2-3, 4-7, 8-15, ... are distinct "edges".
std::uint8_t bucket_of(std::uint64_t count) {
  std::uint8_t width = 0;
  while (count > 0) {
    ++width;
    count >>= 1;
  }
  return width;
}

void write_campaign_config(obs::json::Writer& out,
                           const CampaignConfig& config) {
  out.begin_object()
      .member("seed", hex_u64(config.seed))
      .member("start_ns", config.start)
      .member("horizon_ns", config.horizon)
      .member("episodes", config.episodes)
      .member("min_duration_ns", config.min_duration)
      .member("max_duration_ns", config.max_duration)
      .member("weight_crash", config.weight_crash)
      .member("weight_partition", config.weight_partition)
      .member("weight_babble", config.weight_babble)
      .member("weight_burst", config.weight_burst)
      .member("weight_corruption", config.weight_corruption)
      .member("weight_overrun", config.weight_overrun)
      .member("weight_memory", config.weight_memory)
      .member("magnitude_scale", config.magnitude_scale)
      .member("partition_fraction", config.partition_fraction)
      .end_object();
}

}  // namespace

const char* to_string(MutationOp op) {
  switch (op) {
    case MutationOp::kSeedEntry: return "seed_entry";
    case MutationOp::kReseed: return "reseed";
    case MutationOp::kSpliceSeeds: return "splice_seeds";
    case MutationOp::kFaultMix: return "fault_mix";
    case MutationOp::kEpisodes: return "episodes";
    case MutationOp::kTiming: return "timing";
    case MutationOp::kHorizon: return "horizon";
    case MutationOp::kMagnitude: return "magnitude";
    case MutationOp::kPartition: return "partition";
  }
  return "?";
}

FuzzScheduler::FuzzScheduler(FuzzConfig config, ScenarioRunner runner)
    : config_(config), runner_(std::move(runner)) {}

std::size_t FuzzScheduler::pick_parent(sim::Random& rng) const {
  std::uint64_t total = 0;
  for (const CorpusEntry& entry : corpus_) {
    total += 1 + std::min<std::uint64_t>(entry.new_edges, 64);
  }
  std::uint64_t roll = rng.next_below(total);
  for (std::size_t i = 0; i < corpus_.size(); ++i) {
    const std::uint64_t weight =
        1 + std::min<std::uint64_t>(corpus_[i].new_edges, 64);
    if (roll < weight) return i;
    roll -= weight;
  }
  return 0;
}

std::vector<FuzzScheduler::Candidate> FuzzScheduler::plan_round(int round) {
  // Candidate generation depends ONLY on (master seed, round, corpus state
  // at round start): this is what makes the search deterministic at any
  // thread count — execution order inside the batch cannot feed back.
  sim::Random rng = sim::Random::stream(config_.master_seed ^ kFuzzSalt,
                                        static_cast<std::uint64_t>(round));
  std::vector<Candidate> batch;
  batch.reserve(static_cast<std::size_t>(config_.batch));
  for (int i = 0; i < config_.batch; ++i) {
    Candidate candidate;
    candidate.parent = pick_parent(rng);
    candidate.config = corpus_[candidate.parent].config;
    CampaignConfig& mutated = candidate.config;
    // Draw order is fixed per operator — part of the replay contract.
    switch (rng.next_below(8)) {
      case 0:
        candidate.op = MutationOp::kReseed;
        mutated.seed = rng.next_u64();
        break;
      case 1: {
        candidate.op = MutationOp::kSpliceSeeds;
        const CorpusEntry& other = corpus_[static_cast<std::size_t>(
            rng.next_below(corpus_.size()))];
        // Splice via the stream derivation: a pure, collision-guarded
        // function of both parent seeds (see Random::stream).
        mutated.seed =
            sim::Random::stream(mutated.seed, other.config.seed).next_u64();
        break;
      }
      case 2: {
        candidate.op = MutationOp::kFaultMix;
        double* weights[] = {&mutated.weight_crash, &mutated.weight_partition,
                             &mutated.weight_babble, &mutated.weight_burst,
                             &mutated.weight_corruption,
                             &mutated.weight_overrun, &mutated.weight_memory};
        // Skewed high on purpose: a family enabled at a whisper (0.25 vs
        // six families at 1.0) rarely wins an episode, so the run yields
        // no new coverage and the search never learns the family exists.
        constexpr double kLevels[] = {0.0, 0.5, 1.0, 2.0, 4.0, 8.0};
        double* chosen = weights[rng.next_below(7)];
        *chosen = kLevels[rng.next_below(6)];
        break;
      }
      case 3:
        candidate.op = MutationOp::kEpisodes;
        mutated.episodes = std::clamp<int>(
            mutated.episodes +
                static_cast<int>(rng.uniform_int(-3, 4)),
            1, 24);
        break;
      case 4: {
        candidate.op = MutationOp::kTiming;
        const double factor = std::exp2(rng.uniform(-1.0, 1.0));
        mutated.min_duration = std::clamp<sim::Duration>(
            static_cast<sim::Duration>(
                static_cast<double>(mutated.min_duration) * factor),
            1 * sim::kMillisecond, 250 * sim::kMillisecond);
        mutated.max_duration = std::clamp<sim::Duration>(
            static_cast<sim::Duration>(
                static_cast<double>(mutated.max_duration) * factor),
            mutated.min_duration + sim::kMillisecond, 500 * sim::kMillisecond);
        break;
      }
      case 5: {
        candidate.op = MutationOp::kHorizon;
        const double factor = std::exp2(rng.uniform(-0.5, 0.75));
        mutated.horizon = std::clamp<sim::Duration>(
            static_cast<sim::Duration>(
                static_cast<double>(mutated.horizon) * factor),
            500 * sim::kMillisecond, 5 * sim::kSecond);
        break;
      }
      case 6:
        candidate.op = MutationOp::kMagnitude;
        mutated.magnitude_scale = std::clamp(
            mutated.magnitude_scale * std::exp2(rng.uniform(-1.0, 1.5)),
            0.25, 8.0);
        break;
      default: {
        candidate.op = MutationOp::kPartition;
        constexpr double kFractions[] = {0.0, 0.25, 0.5, 0.75};
        mutated.partition_fraction = kFractions[rng.next_below(4)];
        break;
      }
    }
    batch.push_back(std::move(candidate));
  }
  return batch;
}

void FuzzScheduler::merge_result(int round, int index,
                                 const Candidate& candidate,
                                 const FuzzRunResult& result) {
  // Novelty: keys this run covered that the whole search had not, plus
  // AFL-style hit-count bucket upgrades. Computed name-keyed, so the sum
  // is independent of either map's interning order.
  std::size_t new_edges = 0;
  result.coverage.for_each([&](std::string_view name, std::uint64_t count) {
    if (count == 0) return;
    const bool newly_covered = coverage_.count(name) == 0;
    const std::uint32_t key = coverage_.key(name);
    if (key >= best_bucket_.size()) best_bucket_.resize(key + 1, 0);
    const std::uint8_t bucket = bucket_of(count);
    if (newly_covered) {
      ++new_edges;
    } else if (bucket > best_bucket_[key]) {
      ++new_edges;
    }
    best_bucket_[key] = std::max(best_bucket_[key], bucket);
  });
  coverage_.merge_from(result.coverage);
  ++executed_;
  timeline_.push_back(coverage_.unique_hit_count());

  bool admitted = false;
  if (new_edges > 0) {
    CorpusEntry entry;
    entry.config = candidate.config;
    entry.new_edges = new_edges;
    entry.fingerprint = result.fingerprint;
    entry.round = round;
    entry.parent = candidate.parent;
    entry.op = candidate.op;
    if (corpus_.size() < kMaxCorpus) {
      corpus_.push_back(std::move(entry));
      admitted = true;
    } else if (corpus_.size() > 1) {
      // Replace the weakest non-seed entry if strictly stronger (first
      // minimum wins, so eviction is deterministic).
      std::size_t weakest = 1;
      for (std::size_t i = 2; i < corpus_.size(); ++i) {
        if (corpus_[i].new_edges < corpus_[weakest].new_edges) weakest = i;
      }
      if (corpus_[weakest].new_edges < new_edges) {
        corpus_[weakest] = std::move(entry);
        admitted = true;
      }
    }
  }
  if (!result.invariants_passed && failures_.size() < config_.max_failures) {
    failures_.push_back({candidate.config, result.violated, result.detail,
                         result.fingerprint});
  }

  JournalRecord record;
  record.round = round;
  record.index = index;
  record.parent = candidate.parent;
  record.op = candidate.op;
  record.config = candidate.config;
  record.new_edges = new_edges;
  record.admitted = admitted;
  record.invariants_passed = result.invariants_passed;
  record.violated = result.violated;
  journal_.push_back(std::move(record));
}

void FuzzScheduler::execute_batch(sim::ScenarioSweep& sweep, int round,
                                  const std::vector<Candidate>& batch) {
  const std::vector<FuzzRunResult> results = sweep.run<FuzzRunResult>(
      batch.size(),
      [&](sim::ScenarioRun& run) { return runner_(batch[run.index].config); });
  for (std::size_t i = 0; i < results.size(); ++i) {
    merge_result(round, static_cast<int>(i), batch[i], results[i]);
  }
}

void FuzzScheduler::run(double budget_ms) {
  const auto started = std::chrono::steady_clock::now();
  const auto out_of_time = [&] {
    if (budget_ms <= 0.0) return false;
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - started)
               .count() >= budget_ms;
  };
  sim::ScenarioSweep sweep({.threads = config_.threads});
  if (!bootstrapped_) {
    Candidate seed_entry;
    seed_entry.config = config_.base;
    execute_batch(sweep, -1, {seed_entry});
    if (corpus_.empty()) {
      // A run with no coverage wiring still needs a corpus to mutate from.
      CorpusEntry entry;
      entry.config = config_.base;
      corpus_.push_back(std::move(entry));
    }
    bootstrapped_ = true;
  }
  while (rounds_done_ < config_.rounds && !out_of_time()) {
    execute_batch(sweep, rounds_done_, plan_round(rounds_done_));
    ++rounds_done_;
  }
}

std::string FuzzScheduler::journal_json() const {
  obs::json::Writer out;
  out.begin_object()
      .member("kind", "dynaplat_fuzz_journal")
      .member("master_seed", hex_u64(config_.master_seed))
      .member("rounds_completed", rounds_done_)
      .member("batch", config_.batch)
      .member("executed", executed_)
      .member("unique_keys", unique_keys());
  write_campaign_config(out.key("base"), config_.base);
  out.key("records").begin_array();
  for (const JournalRecord& record : journal_) {
    out.begin_object()
        .member("round", record.round)
        .member("index", record.index)
        .member("parent", record.parent)
        .member("op", to_string(record.op))
        .member("new_edges", record.new_edges)
        .member("admitted", record.admitted)
        .member("passed", record.invariants_passed)
        .member("violated", record.violated);
    write_campaign_config(out.key("config"), record.config);
    out.end_object();
  }
  out.end_array();
  coverage_.write_json(out.key("coverage"));
  out.end_object();
  return out.take();
}

std::string campaign_config_json(const CampaignConfig& config) {
  obs::json::Writer out;
  write_campaign_config(out, config);
  return out.take();
}

bool campaign_config_from_json(std::string_view json_text,
                               CampaignConfig* out) {
  obs::json::Value doc;
  if (!obs::json::parse(json_text, &doc) || !doc.is_object()) return false;
  CampaignConfig config;
  if (!doc.at("seed").is_string()) return false;
  config.seed = std::strtoull(doc.at("seed").string.c_str(), nullptr, 16);
  const bool integers_fit =
      doc.at("start_ns").to_integer(&config.start) &&
      doc.at("horizon_ns").to_integer(&config.horizon) &&
      doc.at("episodes").to_integer(&config.episodes) &&
      doc.at("min_duration_ns").to_integer(&config.min_duration) &&
      doc.at("max_duration_ns").to_integer(&config.max_duration);
  if (!integers_fit) return false;
  config.weight_crash = doc.at("weight_crash").number;
  config.weight_partition = doc.at("weight_partition").number;
  config.weight_babble = doc.at("weight_babble").number;
  config.weight_burst = doc.at("weight_burst").number;
  config.weight_corruption = doc.at("weight_corruption").number;
  config.weight_overrun = doc.at("weight_overrun").number;
  config.weight_memory = doc.at("weight_memory").number;
  config.magnitude_scale = doc.at("magnitude_scale").number;
  config.partition_fraction = doc.at("partition_fraction").number;
  *out = config;
  return true;
}

}  // namespace dynaplat::fault
