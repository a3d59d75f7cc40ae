// State-coverage telemetry: dense interned-key counters of *reached states*
// (paper Sec. 3.4 — the backend needs to know which degradation states,
// recovery phases and transport edge paths a run actually exercised, not
// just its latency profile).
//
// A CoverageMap is simulator-thread-only, like TraceBuffer: each scenario in
// a sim::ScenarioSweep owns its own map, and the sweep merges the maps in
// index order after the barrier (ScenarioSweep::merge_coverage), so the
// merged snapshot is bit-identical at any thread count.
//
// Hot paths pre-resolve keys with key() once and hit(u32) per event; cold
// paths use the string overload. snapshot_json() renders a flat JSON object
// sorted by key name — the coverage section of the fuzz journal and the
// post-mortem bundle, which embed it through write_json().
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace dynaplat::obs {

namespace json {
class Writer;
}

class CoverageMap {
 public:
  /// Interns `name`, returning a dense index valid for this map's lifetime.
  std::uint32_t key(std::string_view name);

  void hit(std::uint32_t key_index, std::uint64_t n = 1) {
    counts_[key_index] += n;
  }
  void hit(std::string_view name, std::uint64_t n = 1) { hit(key(name), n); }

  /// Count recorded under `name`, 0 if the key was never interned.
  std::uint64_t count(std::string_view name) const;

  /// Distinct keys interned (hit or not).
  std::size_t size() const { return names_.size(); }
  bool empty() const { return names_.empty(); }

  /// Keys with a nonzero count — the *covered* states, as opposed to keys
  /// that were merely interned by a hot-path key() pre-resolve. This is the
  /// novelty measure the coverage-guided fuzzer scores runs by.
  std::size_t unique_hit_count() const;

  /// Order-independent FNV-1a over the sorted (name, count) pairs: two maps
  /// with equal content fingerprint equally regardless of interning order,
  /// so a threaded merge can be compared bit-for-bit against a serial one.
  std::uint64_t fingerprint() const;

  /// Adds every count in `other` into this map, interning keys as needed.
  /// Iterates `other` in its own interning order, so merging a fixed map
  /// sequence in index order is deterministic regardless of which threads
  /// produced the maps.
  void merge_from(const CoverageMap& other);

  /// Visits (name, count) pairs in interning order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      fn(std::string_view{names_[i]}, counts_[i]);
    }
  }

  /// Flat JSON object `{"key": count, ...}` sorted by key name, so two maps
  /// with the same content serialize byte-identically.
  std::string snapshot_json() const;
  /// Writes the snapshot object as the writer's next value.
  void write_json(json::Writer& out) const;

  void clear();

 private:
  /// Interning indices sorted by key name.
  std::vector<std::size_t> sorted_order() const;

  std::unordered_map<std::string, std::uint32_t> index_;
  std::vector<std::string> names_;
  std::vector<std::uint64_t> counts_;
};

}  // namespace dynaplat::obs
