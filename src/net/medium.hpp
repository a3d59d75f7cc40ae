// Abstract communication medium.
//
// A Medium accepts frames from attached nodes and delivers them later
// according to its timing model (arbitration, queuing, gating). All media are
// event-driven on the shared sim::Simulator, so cross-medium scenarios (CAN
// body bus + Ethernet backbone) compose naturally.
//
// Fault-injection hooks (XiL, Sec. 2.4; fault campaigns, src/fault): frame
// loss (uniform or Gilbert-Elliott bursty), payload bit-flip corruption and
// bus partitions are all modeled here so every concrete medium inherits
// them. All randomness is seeded deterministically — by default from the
// medium's *name*, so two buses with identical configs still see
// uncorrelated loss patterns.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>

#include "net/frame.hpp"
#include "obs/fnv.hpp"
#include "obs/metrics.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/slot_pool.hpp"
#include "sim/trace.hpp"

namespace dynaplat::net {

using ReceiveHandler = std::function<void(const Frame&)>;

/// Two-state bursty loss model: the channel alternates between a Good and a
/// Bad state with the given transition probabilities (evaluated per frame);
/// each state drops frames with its own probability. Captures the
/// correlated loss bursts of EMI / connector faults that a uniform rate
/// cannot (loss_bad = 1.0 models a hard burst outage).
struct GilbertElliott {
  double p_good_to_bad = 0.0;
  double p_bad_to_good = 1.0;
  double loss_good = 0.0;
  double loss_bad = 1.0;
};

class Medium {
 public:
  explicit Medium(sim::Simulator& simulator, std::string name)
      : sim_(simulator), name_(std::move(name)) {}
  virtual ~Medium() = default;
  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  /// Registers a node; `handler` is invoked at delivery time.
  void attach(NodeId node, ReceiveHandler handler) {
    receivers_[node] = std::move(handler);
    on_attach(node);
  }
  void detach(NodeId node) { receivers_.erase(node); }
  bool attached(NodeId node) const { return receivers_.count(node) > 0; }
  /// Attached node ids in deterministic (sorted) order — fault campaigns
  /// use this to carve reproducible partition islands.
  std::vector<NodeId> attached_nodes() const {
    std::vector<NodeId> nodes;
    nodes.reserve(receivers_.size());
    for (const auto& [id, handler] : receivers_) nodes.push_back(id);
    return nodes;
  }

  /// Submits a frame for transmission. The medium stamps enqueued_at.
  virtual void send(Frame frame) = 0;

  /// Submits a burst of frames in one call (a fragmented message's
  /// fragments). The default forwards each frame through send() in index
  /// order, so fault-injection RNG draws and timing are identical to N
  /// separate calls; media whose enqueue has a common setup cost (CAN
  /// arbitration restart, FlexRay cycle scheduling) override this to pay it
  /// once per burst instead of once per frame.
  virtual void send_batch(std::vector<Frame>& frames) {
    for (Frame& frame : frames) send(std::move(frame));
    frames.clear();
  }

  /// Largest payload a single frame may carry (segmentation is the
  /// transport layer's job; see middleware::Transport).
  virtual std::size_t max_payload() const = 0;

  const std::string& name() const { return name_; }
  sim::Simulator& simulator() { return sim_; }

  /// End-to-end frame latency samples (enqueue -> delivery), nanoseconds.
  const obs::Histogram& latency_stats() const { return latency_stats_; }
  std::uint64_t frames_delivered() const { return frames_delivered_; }
  std::uint64_t frames_dropped() const { return frames_dropped_; }
  std::uint64_t frames_corrupted() const { return frames_corrupted_; }
  std::uint64_t frames_partition_dropped() const {
    return frames_partition_dropped_;
  }

  /// Uniform frame loss: drop each frame with probability `loss_rate` at
  /// submission. Deterministic in `seed`; seed 0 derives a per-medium seed
  /// from the name so buses never share a drop sequence by default.
  void set_fault_injection(double loss_rate, std::uint64_t seed = 0) {
    loss_rate_ = loss_rate;
    burst_.p_good_to_bad = 0.0;  // uniform mode disables the burst model
    fault_rng_ = sim::Random(derive_seed(seed, 0x10551055ULL));
  }

  /// Bursty (Gilbert-Elliott) frame loss, replacing the uniform knob while
  /// configured. Deterministic in `seed` (0 = derive from the name).
  void set_burst_loss(GilbertElliott model, std::uint64_t seed = 0) {
    burst_ = model;
    loss_rate_ = 0.0;
    burst_bad_ = false;
    fault_rng_ = sim::Random(derive_seed(seed, 0xB0B5B0B5ULL));
  }
  void clear_loss() {
    loss_rate_ = 0.0;
    burst_ = GilbertElliott{};
    burst_bad_ = false;
  }
  /// Whether the burst model currently sits in the Bad state (tests).
  bool burst_state_bad() const { return burst_bad_; }

  /// Frame-pool slots ever created (see park()): the most frames ever in
  /// flight at once, for tests and allocation audits.
  std::size_t frame_slots() const { return parked_.capacity(); }
  /// Frames parked right now.
  std::size_t frames_parked() const { return parked_.size(); }

  /// Payload corruption: with probability `rate` a transmitted frame has
  /// one random payload bit flipped (detectable only by an end-to-end
  /// integrity check, e.g. the reliable transport's CRC32).
  void set_corruption(double rate, std::uint64_t seed = 0) {
    corruption_rate_ = rate;
    corrupt_rng_ = sim::Random(derive_seed(seed, 0xC0DEC0DEULL));
  }

  /// Partitions the bus: nodes inside `island` can only reach each other,
  /// nodes outside only each other. Frames crossing the cut are dropped
  /// (counted in frames_partition_dropped). Models a severed harness /
  /// failed switch plane between two segments.
  void set_partition(std::set<NodeId> island) {
    partitioned_ = true;
    island_ = std::move(island);
  }
  void heal_partition() {
    partitioned_ = false;
    island_.clear();
  }
  bool partitioned() const { return partitioned_; }

  /// Attaches the observability sink: on-wire transmissions become kNetwork
  /// spans on the bus lane, and delivered/dropped counters plus a
  /// utilization gauge register under "net.<bus>.*". Ecu auto-wires this
  /// when it shares a trace with its medium.
  void set_trace(sim::Trace* trace) {
    trace_ = trace;
    if (trace_ == nullptr) return;
    trace_source_ = trace_->buffer().intern(name_);
    ev_tx_ = trace_->buffer().intern("tx");
    auto& metrics = trace_->metrics();
    delivered_counter_ = &metrics.counter("net." + name_ + ".frames_delivered");
    dropped_counter_ = &metrics.counter("net." + name_ + ".frames_dropped");
    corrupted_counter_ = &metrics.counter("net." + name_ + ".frames_corrupted");
    utilization_gauge_ = &metrics.gauge("net." + name_ + ".utilization");
  }
  sim::Trace* trace() const { return trace_; }

 protected:
  /// Records one on-wire transmission span [start, end] on `lane` (interned
  /// source id; 0 means the bus's own lane) and rolls the utilization gauge
  /// (cumulative busy time / elapsed time) forward. Span timestamps may lie
  /// in the future — concrete media call this when they commit to a
  /// transmission; the exporter orders events by timestamp.
  void trace_tx_span(sim::Time start, sim::Time end, std::uint32_t lane = 0) {
    if (end > start) busy_accum_ += end - start;
    if (trace_ == nullptr) return;
    if (utilization_gauge_ != nullptr && end > 0) {
      utilization_gauge_->set(static_cast<double>(busy_accum_) /
                              static_cast<double>(end));
    }
    if (!trace_->enabled(sim::TraceCategory::kNetwork)) return;
    const std::uint32_t source = lane != 0 ? lane : trace_source_;
    trace_->buffer().begin_span(start, sim::TraceCategory::kNetwork, source,
                                ev_tx_);
    trace_->buffer().end_span(end, sim::TraceCategory::kNetwork, source,
                              ev_tx_);
  }
  std::uint32_t trace_lane(const std::string& name) {
    return trace_ == nullptr ? 0 : trace_->buffer().intern(name);
  }
  /// Notifies a concrete medium that a node joined (e.g. the Ethernet switch
  /// provisions an egress port so broadcast flooding reaches the node).
  virtual void on_attach(NodeId node) { (void)node; }

  /// The media's one frame pool. A frame waiting between two hops of a
  /// timing model (switch ingress -> egress queue -> egress wire, CAN
  /// arbitration, a FlexRay slot) is parked here and the hop's kernel
  /// callback captures the slot, not the ~150 B frame, so the callback fits
  /// sim::InlineFunction's inline buffer. Frames still parked are destroyed
  /// with the medium.
  std::uint32_t park(Frame frame) { return parked_.put(std::move(frame)); }
  const Frame& parked(std::uint32_t slot) const { return parked_[slot]; }
  /// Takes a parked frame out and frees its slot.
  Frame unpark(std::uint32_t slot) { return parked_.take(slot); }

  /// Delivers to the destination (or floods on broadcast), excluding `src`.
  /// Partition cuts apply here, after the medium's timing model ran: the
  /// frame occupied the wire but never arrived across the cut.
  void deliver(Frame frame) {
    frame.delivered_at = sim_.now();
    if (frame.dst == kBroadcast) {
      bool any = false;
      for (auto& [node, handler] : receivers_) {
        if (node == frame.src || !handler) continue;
        if (!reachable(frame.src, node)) {
          ++frames_partition_dropped_;
          continue;
        }
        if (!any) {
          count_delivery(frame);
          any = true;
        }
        handler(frame);
      }
      if (!any && partitioned_) count_drop();
      return;
    }
    if (!reachable(frame.src, frame.dst)) {
      ++frames_partition_dropped_;
      count_drop();
      return;
    }
    count_delivery(frame);
    auto it = receivers_.find(frame.dst);
    if (it != receivers_.end() && it->second) it->second(frame);
  }

  void count_drop() {
    ++frames_dropped_;
    if (dropped_counter_ != nullptr) dropped_counter_->add();
  }

  /// Subclasses call this at the top of send(); true means the frame was
  /// consumed by fault injection (loss). May also flip a payload bit in
  /// place (corruption) while letting the frame through.
  bool inject_faults(Frame& frame) {
    bool drop = false;
    if (burst_.p_good_to_bad > 0.0 || burst_bad_) {
      // Advance the two-state channel, then sample loss in the new state.
      if (burst_bad_) {
        if (fault_rng_.chance(burst_.p_bad_to_good)) burst_bad_ = false;
      } else {
        if (fault_rng_.chance(burst_.p_good_to_bad)) burst_bad_ = true;
      }
      drop = fault_rng_.chance(burst_bad_ ? burst_.loss_bad
                                          : burst_.loss_good);
    } else if (loss_rate_ > 0.0) {
      drop = fault_rng_.chance(loss_rate_);
    }
    if (drop) {
      count_drop();
      return true;
    }
    if (corruption_rate_ > 0.0 && !frame.payload.empty() &&
        corrupt_rng_.chance(corruption_rate_)) {
      const std::uint64_t bit =
          corrupt_rng_.next_below(frame.payload.size() * 8);
      frame.payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      ++frames_corrupted_;
      if (corrupted_counter_ != nullptr) corrupted_counter_->add();
    }
    return false;
  }

  sim::Simulator& sim_;

 private:
  void count_delivery(const Frame& frame) {
    latency_stats_.observe(frame.delivered_at - frame.enqueued_at);
    ++frames_delivered_;
    if (delivered_counter_ != nullptr) delivered_counter_->add();
  }

  bool reachable(NodeId a, NodeId b) const {
    if (!partitioned_) return true;
    return (island_.count(a) > 0) == (island_.count(b) > 0);
  }

  /// seed != 0 is honored verbatim; 0 mixes an FNV-1a hash of the medium
  /// name with the purpose salt, so distinct buses (and distinct fault
  /// types on one bus) draw from independent deterministic streams.
  std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) const {
    if (seed != 0) return seed;
    return obs::fnv1a(obs::kFnvOffset, name_) ^ salt;
  }

  std::string name_;
  sim::SlotPool<Frame> parked_;
  std::map<NodeId, ReceiveHandler> receivers_;
  obs::Histogram latency_stats_;
  std::uint64_t frames_delivered_ = 0;
  std::uint64_t frames_dropped_ = 0;
  std::uint64_t frames_corrupted_ = 0;
  std::uint64_t frames_partition_dropped_ = 0;
  double loss_rate_ = 0.0;
  GilbertElliott burst_;
  bool burst_bad_ = false;
  double corruption_rate_ = 0.0;
  bool partitioned_ = false;
  std::set<NodeId> island_;
  sim::Random fault_rng_{99};
  sim::Random corrupt_rng_{77};
  sim::Trace* trace_ = nullptr;
  std::uint32_t trace_source_ = 0;  // interned bus lane
  std::uint32_t ev_tx_ = 0;
  sim::Duration busy_accum_ = 0;  // cumulative on-wire time, all lanes
  obs::Counter* delivered_counter_ = nullptr;
  obs::Counter* dropped_counter_ = nullptr;
  obs::Counter* corrupted_counter_ = nullptr;
  obs::Gauge* utilization_gauge_ = nullptr;
};

}  // namespace dynaplat::net
