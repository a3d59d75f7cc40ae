// Seeded mutation fuzzing of the JSON decoders: obs::json::parse and the
// two replay loaders built on it, fault::load_repro and
// fault::campaign_config_from_json. The corpus is the repository's
// checked-in BENCH_*.json and fuzz_*.json artifacts. Every mutant must come
// back as a plain true/false; a crash, a sanitizer report (out-of-bounds
// read, stack overflow, out-of-range float-to-integer cast) fails the run.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "fault/fuzz.hpp"
#include "fault/minimize.hpp"
#include "obs/json.hpp"
#include "sim/random.hpp"

namespace dynaplat {
namespace {

constexpr std::uint64_t kSeed = 0x4A534F4E;  // "JSON"
constexpr int kMutants = 3000;

std::vector<std::string> load_corpus() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(DYNAPLAT_SOURCE_DIR)) {
    const std::string name = entry.path().filename().string();
    if (!name.ends_with(".json")) continue;
    if (name.starts_with("BENCH_") || name.starts_with("fuzz_")) {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());  // directory order is unspecified
  std::vector<std::string> corpus;
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    corpus.emplace_back(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
  }
  // A config document, so campaign_config_from_json gets past its shape
  // checks; the checked-in files only embed configs.
  corpus.push_back(fault::campaign_config_json(fault::CampaignConfig{}));
  return corpus;
}

std::size_t pick(sim::Random& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.next_below(n));
}

/// One mutant of a corpus document: byte flips, a truncation, a splice with
/// another document, a nesting splice (a run of text starting at an opening
/// bracket, repeated up to far beyond kMaxDepth), or a number splice (a
/// digit replaced by a literal no integer field can hold, which keeps the
/// document parseable so the loaders' field conversions see it).
std::string mutate(sim::Random& rng, const std::vector<std::string>& corpus) {
  std::string text = corpus[pick(rng, corpus.size())];
  if (text.empty()) return text;
  switch (rng.next_below(5)) {
    case 0: {
      const std::size_t flips = 1 + pick(rng, 8);
      for (std::size_t i = 0; i < flips; ++i) {
        text[pick(rng, text.size())] ^=
            static_cast<char>(1 + rng.next_below(255));
      }
      return text;
    }
    case 1:
      return text.substr(0, pick(rng, text.size()));
    case 2: {
      const std::string& other = corpus[pick(rng, corpus.size())];
      return text.substr(0, pick(rng, text.size())) +
             other.substr(pick(rng, other.size() + 1));
    }
    case 3: {
      constexpr const char* kLiterals[] = {
          "1e300", "-1e300", "-1", "1e19", "9223372036854775808", "4294967296"};
      std::vector<std::size_t> digits;
      for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] >= '0' && text[i] <= '9') digits.push_back(i);
      }
      if (digits.empty()) return text;
      return text.replace(digits[pick(rng, digits.size())], 1,
                          kLiterals[pick(rng, std::size(kLiterals))]);
    }
    default: {
      std::vector<std::size_t> openers;
      for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '{' || text[i] == '[') openers.push_back(i);
      }
      if (openers.empty()) return text;
      const std::size_t at = openers[pick(rng, openers.size())];
      const std::string unit = text.substr(at, 1 + pick(rng, 24));
      constexpr std::size_t kRepeats[] = {1, 3, obs::json::kMaxDepth,
                                          obs::json::kMaxDepth + 1, 1000};
      const std::size_t repeats = kRepeats[pick(rng, std::size(kRepeats))];
      std::string nested;
      nested.reserve(unit.size() * repeats);
      for (std::size_t i = 0; i < repeats; ++i) nested += unit;
      return text.insert(at, nested);
    }
  }
}

TEST(JsonMutation, CorpusIsTheCheckedInArtifacts) {
  const std::vector<std::string> corpus = load_corpus();
  // Ten BENCH results, the trace and post-mortem demos, two fuzz files and
  // the config document.
  ASSERT_GE(corpus.size(), 15u);
  for (const std::string& text : corpus) {
    obs::json::Value doc;
    std::string error;
    EXPECT_TRUE(obs::json::parse(text, &doc, &error)) << error;
  }
}

TEST(JsonMutation, DecodersReturnCleanlyOnMutants) {
  const std::vector<std::string> corpus = load_corpus();
  ASSERT_FALSE(corpus.empty());
  sim::Random rng(kSeed);
  int parsed = 0;
  int repros = 0;
  int configs = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string mutant = mutate(rng, corpus);
    obs::json::Value doc;
    if (!obs::json::parse(mutant, &doc)) continue;
    // The loaders parse with the same parser, so only accepted documents
    // reach their field conversions.
    ++parsed;
    fault::Repro repro;
    if (fault::load_repro(mutant, &repro)) ++repros;
    fault::CampaignConfig config;
    if (fault::campaign_config_from_json(mutant, &config)) ++configs;
  }
  // The mutants reach every decoder's field handling, not just the syntax.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(repros, 0);
  EXPECT_GT(configs, 0);
}

}  // namespace
}  // namespace dynaplat
