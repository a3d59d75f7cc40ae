#include "vehicle_layers.hpp"

#include <algorithm>

namespace perfbench {

using namespace dynaplat;

void put_stamp(std::vector<std::uint8_t>& payload, sim::Time at) {
  const auto value = static_cast<std::uint64_t>(at);
  for (std::size_t i = 0; i < 8 && i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

std::int64_t get_stamp(const std::vector<std::uint8_t>& payload) {
  if (payload.size() < 8) return -1;
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(payload[i]) << (8 * i);
  }
  return static_cast<std::int64_t>(value);
}

void AppStats::on_delivery(const std::vector<std::uint8_t>& data,
                           sim::Time now) {
  ++delivered;
  const std::int64_t stamp = get_stamp(data);
  const std::uint64_t latency =
      stamp < 0 || stamp > now ? 0 : static_cast<std::uint64_t>(now - stamp);
  latency_sum_ns += latency;
  delivery_fold.mix(latency);
  delivery_fold.mix(data.size());
}

std::uint64_t AppStats::fingerprint() const {
  Fnv fold = delivery_fold;
  fold.mix(activations);
  fold.mix(send_calls);
  fold.mix(delivered);
  fold.mix(latency_sum_ns);
  return fold.value();
}

void LayerCounts::add(const LayerCounts& o) {
  messages_sent += o.messages_sent;
  retries += o.retries;
  acks_sent += o.acks_sent;
  duplicates_suppressed += o.duplicates_suppressed;
  delivery_failures += o.delivery_failures;
  reassembly_evictions += o.reassembly_evictions;
  failed_calls += o.failed_calls;
  can_delivered += o.can_delivered;
  can_dropped += o.can_dropped;
  can_latency_sum_ns += o.can_latency_sum_ns;
  can_latency_n += o.can_latency_n;
  eth_delivered += o.eth_delivered;
  eth_dropped += o.eth_dropped;
  eth_latency_sum_ns += o.eth_latency_sum_ns;
  eth_latency_n += o.eth_latency_n;
  completions += o.completions;
  deadline_misses += o.deadline_misses;
  da_deadline_misses += o.da_deadline_misses;
  client_attempts += o.client_attempts;
  client_timeouts += o.client_timeouts;
  client_breaker_opens += o.client_breaker_opens;
  client_fast_fails += o.client_fast_fails;
  client_stale_served += o.client_stale_served;
  client_local_admissions += o.client_local_admissions;
  client_exhausted += o.client_exhausted;
}

std::vector<Metric> LayerCounts::metrics() const {
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto mean_us = [](double sum_ns, std::uint64_t n) {
    return n == 0 ? 0.0 : sum_ns / static_cast<double>(n) / 1e3;
  };
  return {
      {"middleware.failed_calls", count(failed_calls), "count"},
      {"transport.messages_sent", count(messages_sent), "count"},
      {"transport.retries", count(retries), "count"},
      {"transport.acks_sent", count(acks_sent), "count"},
      {"transport.duplicates_suppressed", count(duplicates_suppressed),
       "count"},
      {"transport.delivery_failures", count(delivery_failures), "count"},
      {"transport.reassembly_evictions", count(reassembly_evictions),
       "count"},
      {"net.can.frames_delivered", count(can_delivered), "count"},
      {"net.can.frames_dropped", count(can_dropped), "count"},
      {"net.can.latency_mean_us", mean_us(can_latency_sum_ns, can_latency_n),
       "sim_us"},
      {"net.eth.frames_delivered", count(eth_delivered), "count"},
      {"net.eth.frames_dropped", count(eth_dropped), "count"},
      {"net.eth.latency_mean_us", mean_us(eth_latency_sum_ns, eth_latency_n),
       "sim_us"},
      {"os.completions", count(completions), "count"},
      {"os.deadline_misses", count(deadline_misses), "count"},
      {"os.response_p99_us", response_p99_us, "sim_us"},
      {"client.attempts", count(client_attempts), "count"},
      {"client.timeouts", count(client_timeouts), "count"},
      {"client.breaker_opens", count(client_breaker_opens), "count"},
      {"client.fast_fails", count(client_fast_fails), "count"},
      {"client.stale_served", count(client_stale_served), "count"},
      {"client.local_admissions", count(client_local_admissions), "count"},
      {"client.fallback_none", count(client_exhausted), "count"},
  };
}

std::uint64_t LayerCounts::fingerprint() const {
  Fnv fold;
  for (const Metric& m : metrics()) fold.mix_double(m.value);
  fold.mix(da_deadline_misses);
  return fold.value();
}

LayerCounts collect_layers(platform::DynamicPlatform& platform,
                           const std::vector<net::Medium*>& eth,
                           const std::vector<net::Medium*>& can) {
  LayerCounts c;
  for (const std::string& name : platform.node_names()) {
    platform::PlatformNode* node = platform.node(name);
    const middleware::Transport& transport = node->comm().transport();
    c.messages_sent += transport.messages_sent();
    c.retries += transport.retries();
    c.acks_sent += transport.acks_sent();
    c.duplicates_suppressed += transport.duplicates_suppressed();
    c.delivery_failures += transport.delivery_failures();
    c.reassembly_evictions += transport.reassembly_evictions();
    c.failed_calls += node->comm().failed_calls();
    os::Ecu& ecu = node->ecu();
    for (std::size_t core = 0; core < ecu.core_count(); ++core) {
      const os::Processor& cpu = ecu.processor(core);
      for (const os::TaskId id : cpu.task_ids()) {
        const os::TaskStats& stats = cpu.stats(id);
        c.completions += stats.completions;
        c.deadline_misses += stats.deadline_misses;
        c.response_p99_us = std::max(
            c.response_p99_us, stats.response_time.percentile(99.0) / 1e3);
      }
    }
    for (const std::string& label : node->running_instances()) {
      const platform::AppInstance* inst = node->instance(label);
      if (inst == nullptr ||
          inst->def.app_class != model::AppClass::kDeterministic) {
        continue;
      }
      // Tasks lost to an ECU crash are gone from the rebuilt processor.
      const os::Processor& cpu = ecu.processor(inst->core);
      const std::vector<os::TaskId> live = cpu.task_ids();
      for (const os::TaskId id : inst->tasks) {
        if (std::find(live.begin(), live.end(), id) == live.end()) continue;
        c.da_deadline_misses += cpu.stats(id).deadline_misses;
      }
    }
  }
  for (const net::Medium* medium : can) {
    c.can_delivered += medium->frames_delivered();
    c.can_dropped += medium->frames_dropped();
    c.can_latency_sum_ns += medium->latency_stats().sum();
    c.can_latency_n += medium->latency_stats().count();
  }
  for (const net::Medium* medium : eth) {
    c.eth_delivered += medium->frames_delivered();
    c.eth_dropped += medium->frames_dropped();
    c.eth_latency_sum_ns += medium->latency_stats().sum();
    c.eth_latency_n += medium->latency_stats().count();
  }
  backend::BackendClient& client = platform.backend_client();
  c.client_attempts = client.attempts();
  c.client_timeouts = client.timeouts();
  c.client_breaker_opens = client.breaker_opens();
  c.client_fast_fails = client.breaker_fast_fails();
  c.client_stale_served = client.stale_served();
  c.client_local_admissions = client.local_admissions();
  c.client_exhausted = client.exhausted();
  return c;
}

}  // namespace perfbench
