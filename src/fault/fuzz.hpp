// Coverage-guided chaos fuzzer: searches the campaign-configuration space
// instead of blindly enumerating seeds.
//
// PR 3-5 built seed-deterministic fault campaigns and a parallel seed
// sweep, but a blind sweep spends almost all its compute re-visiting the
// same platform states — the paper's "million scenarios" claim needs the
// scenarios to be *different*. obs::CoverageMap (PR 7) records exactly
// which states a run reached: degradation edges, recovery/update phases,
// invariant verdicts, transport edge paths, injected fault kinds. This
// scheduler treats a CampaignConfig (seed + fault-type mix + timing +
// magnitudes + partition topology) as a corpus entry, scores every run by
// the coverage it adds, and mutates high-yield entries toward unexplored
// states — AFL's loop, with campaign plans instead of byte buffers.
//
// The search is batch-synchronous so it stays seed-deterministic AND
// parallel: each round derives its candidate batch from the corpus state
// at round start via Random::stream(master_seed, round) only, the batch
// runs on a sim::ScenarioSweep (inline, or across its worker threads), and
// results merge in index order. Same master seed => bit-identical corpus,
// journal and coverage at any thread count. The journal serializes
// every candidate (parent, operator, full config, verdict), so a campaign
// found at round 37 replays from the journal alone.
//
// Failing candidates (invariant violations) are retained for the
// delta-debugging minimizer (fault/minimize.hpp) to shrink into repro
// bundles.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "obs/coverage.hpp"

namespace dynaplat::sim {
class ScenarioSweep;
}

namespace dynaplat::fault {

/// What one campaign run reports back to the scheduler. The runner must be
/// a pure function of the config (the FaultCampaign determinism contract)
/// and safe to call from several threads at once: the fuzzer replays,
/// journals and runs batches in parallel on that assumption.
struct FuzzRunResult {
  obs::CoverageMap coverage;
  std::uint64_t fingerprint = 0;
  bool invariants_passed = true;
  std::string violated;  ///< first violated invariant, empty when passed
  std::string detail;
};

using ScenarioRunner = std::function<FuzzRunResult(const CampaignConfig&)>;

/// Mutation operators over a corpus entry's CampaignConfig.
enum class MutationOp : std::uint8_t {
  kSeedEntry,     ///< corpus bootstrap (journal bookkeeping, not a mutation)
  kReseed,        ///< fresh campaign seed
  kSpliceSeeds,   ///< seed derived from two parents via Random::stream
  kFaultMix,      ///< rescale one fault-family weight
  kEpisodes,      ///< episode-count jitter
  kTiming,        ///< episode duration-range jitter
  kHorizon,       ///< campaign window jitter
  kMagnitude,     ///< post-draw magnitude_scale jitter
  kPartition,     ///< partition_fraction (island topology) jitter
};

const char* to_string(MutationOp op);

struct FuzzConfig {
  std::uint64_t master_seed = 1;
  /// Corpus entry 0; the blind-sweep baseline starts from the same config,
  /// so fuzz-vs-blind A/Bs compare search, not starting points.
  CampaignConfig base;
  int rounds = 8;
  int batch = 8;  ///< candidates per round (the parallel unit)
  std::size_t max_failures = 16;  ///< failing configs retained for triage
  /// Sweep worker threads besides the caller (SweepConfig::threads); 0 runs
  /// candidates inline. Results are identical either way (index-ordered
  /// merge).
  std::size_t threads = 0;
};

struct CorpusEntry {
  CampaignConfig config;
  std::size_t new_edges = 0;  ///< coverage novelty when admitted (energy)
  std::uint64_t fingerprint = 0;
  int round = -1;             ///< admission round, -1 = seed entry
  std::size_t parent = 0;     ///< corpus index mutated from
  MutationOp op = MutationOp::kSeedEntry;
};

/// One failing candidate, kept verbatim for minimization.
struct FuzzFailure {
  CampaignConfig config;
  std::string violated;
  std::string detail;
  std::uint64_t fingerprint = 0;
};

/// One journal line per executed candidate — the replay record.
struct JournalRecord {
  int round = -1;
  int index = 0;  ///< position within the round's batch
  std::size_t parent = 0;
  MutationOp op = MutationOp::kSeedEntry;
  CampaignConfig config;
  std::size_t new_edges = 0;
  bool admitted = false;
  bool invariants_passed = true;
  std::string violated;
};

class FuzzScheduler {
 public:
  FuzzScheduler(FuzzConfig config, ScenarioRunner runner);

  /// Runs the configured rounds. budget_ms > 0 additionally time-boxes the
  /// search, checked at round boundaries so completed rounds stay
  /// deterministic (the journal is always a whole-round prefix).
  void run(double budget_ms = 0.0);

  /// Accumulated coverage across every executed candidate.
  const obs::CoverageMap& coverage() const { return coverage_; }
  /// Covered (nonzero-count) keys in the accumulated map.
  std::size_t unique_keys() const { return coverage_.unique_hit_count(); }
  /// unique_keys() after each executed scenario, in execution index order —
  /// the coverage-over-time curve of the search.
  const std::vector<std::size_t>& timeline() const { return timeline_; }

  const std::vector<CorpusEntry>& corpus() const { return corpus_; }
  const std::vector<FuzzFailure>& failures() const { return failures_; }
  const std::vector<JournalRecord>& journal() const { return journal_; }
  std::size_t executed() const { return executed_; }
  int rounds_completed() const { return rounds_done_; }

  /// Full search journal as one JSON document (configs inline): the replay
  /// artifact and the CI coverage-snapshot companion.
  std::string journal_json() const;

 private:
  struct Candidate {
    CampaignConfig config;
    std::size_t parent = 0;
    MutationOp op = MutationOp::kSeedEntry;
  };

  std::vector<Candidate> plan_round(int round);
  void execute_batch(sim::ScenarioSweep& sweep, int round,
                     const std::vector<Candidate>& batch);
  void merge_result(int round, int index, const Candidate& candidate,
                    const FuzzRunResult& result);
  std::size_t pick_parent(sim::Random& rng) const;

  FuzzConfig config_;
  ScenarioRunner runner_;
  obs::CoverageMap coverage_;
  /// AFL-style hit-count bucketing: per key, the highest log2 bucket any
  /// single run reached. A run that hits a known key 100x when the best
  /// was 2x still counts as novelty.
  std::vector<std::uint8_t> best_bucket_;  // indexed by coverage_ key index
  std::vector<CorpusEntry> corpus_;
  std::vector<FuzzFailure> failures_;
  std::vector<JournalRecord> journal_;
  std::vector<std::size_t> timeline_;
  std::size_t executed_ = 0;
  int rounds_done_ = 0;
  bool bootstrapped_ = false;
};

/// CampaignConfig <-> JSON (journal records, repro bundles, CLI replay).
std::string campaign_config_json(const CampaignConfig& config);
bool campaign_config_from_json(std::string_view json_text,
                               CampaignConfig* out);

}  // namespace dynaplat::fault
