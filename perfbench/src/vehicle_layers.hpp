// Instrumentation shared by the vehicle-level workloads (vehicle_steady and
// campaign_sweep): the benchmark apps' own accounting and the read-out of
// the platform's layer counters after a run.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "net/medium.hpp"
#include "platform/platform.hpp"

namespace perfbench {

/// Writes `at` (sim ns) little-endian into the first 8 bytes of `payload`.
void put_stamp(std::vector<std::uint8_t>& payload, dynaplat::sim::Time at);
/// Reads the stamp back; -1 when the payload is shorter than 8 bytes.
std::int64_t get_stamp(const std::vector<std::uint8_t>& payload);

/// Per-run accounting of the benchmark's own applications.
struct AppStats {
  std::uint64_t activations = 0;  ///< task completions + handler calls
  std::uint64_t send_calls = 0;   ///< publish / call / stream_send
  std::uint64_t delivered = 0;    ///< handler invocations with data
  std::uint64_t latency_sum_ns = 0;
  Fnv delivery_fold;

  /// Counts one delivery stamped by put_stamp at its send time.
  void on_delivery(const std::vector<std::uint8_t>& data,
                   dynaplat::sim::Time now);
  std::uint64_t fingerprint() const;
};

/// Layer counters read from a platform after a run. Sums over nodes,
/// processors and media; add() merges runs (response_p99_us excepted).
struct LayerCounts {
  std::uint64_t messages_sent = 0;
  std::uint64_t retries = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t delivery_failures = 0;
  std::uint64_t reassembly_evictions = 0;
  std::uint64_t failed_calls = 0;
  std::uint64_t can_delivered = 0;
  std::uint64_t can_dropped = 0;
  double can_latency_sum_ns = 0.0;
  std::uint64_t can_latency_n = 0;
  std::uint64_t eth_delivered = 0;
  std::uint64_t eth_dropped = 0;
  double eth_latency_sum_ns = 0.0;
  std::uint64_t eth_latency_n = 0;
  std::uint64_t completions = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t da_deadline_misses = 0;
  /// Worst per-task p99 response time (sim us).
  double response_p99_us = 0.0;
  std::uint64_t client_attempts = 0;
  std::uint64_t client_timeouts = 0;
  std::uint64_t client_breaker_opens = 0;
  std::uint64_t client_fast_fails = 0;
  std::uint64_t client_stale_served = 0;
  std::uint64_t client_local_admissions = 0;
  std::uint64_t client_exhausted = 0;

  void add(const LayerCounts& other);
  /// Per-layer metrics under the names main.cpp reports.
  std::vector<Metric> metrics() const;
  std::uint64_t fingerprint() const;
};

LayerCounts collect_layers(dynaplat::platform::DynamicPlatform& platform,
                           const std::vector<dynaplat::net::Medium*>& eth,
                           const std::vector<dynaplat::net::Medium*>& can = {});

}  // namespace perfbench
