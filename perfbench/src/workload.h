// The benchmark's workloads: a LAN of TPS peers in one process on a 0 ms
// NetworkFabric, driven open loop by a single generator thread.
//
// One run_phase() call builds the LAN one or more times (set-up time is
// taken per build), pushes paced streams of events through each build,
// optionally alternating them with back-to-back bursts ("drain"), and
// accounts every (event, subscriber) pair in a Ledger.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "events/ski_rental.h"
#include "jxta/peer.h"
#include "ledger.h"
#include "net/fabric.h"
#include "obs/metrics.h"
#include "tps/tps.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  int publishers = 1;   // peers that publish
  int subscribers = 1;  // peers that subscribe
  bool mesh = false;    // the publishers are the subscribers
  bool batched = false; // publishers run the fast publish pipeline
  double rate = 1000;   // paced events per second, aggregate
  double subtype_share = 0;  // share of SkiRentalWithLessons events
  std::uint64_t drain_events = 0;
};

// The three workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(std::string_view name);

// The paper's message size (§5: "messages size: 1910 bytes").
inline constexpr std::size_t kMessageBytes = 1910;

// Deterministic event contents. Event `seq` carries its sequence number at
// the head of its shop name, so the oracle can match deliveries.
class EventFactory {
 public:
  explicit EventFactory(std::uint64_t seed) : seed_(seed) {}

  [[nodiscard]] bool subtype(std::uint64_t seq, double share) const;
  // The event for `seq`; a SkiRentalWithLessons when `with_lessons`.
  [[nodiscard]] std::shared_ptr<const p2p::events::SkiRental> make(
      std::uint64_t seq, bool with_lessons) const;

  // Hash over every field, the dynamic type included.
  static std::uint64_t value_hash(const p2p::events::SkiRental& e);
  // Reads the sequence number of a measured event ("E<seq>|...").
  static bool parse_seq(std::string_view shop, std::uint64_t* seq);

 private:
  std::uint64_t seed_;
};

std::uint64_t mix64(std::uint64_t x);
std::int64_t now_ns();  // steady clock
std::size_t pow2_at_least(std::uint64_t n);

// A LAN of started peers on one 0 ms fabric; stops them on destruction.
class Lan {
 public:
  explicit Lan(std::uint64_t seed);
  Lan(const Lan&) = delete;
  Lan& operator=(const Lan&) = delete;
  ~Lan();

  p2p::jxta::Peer& add_peer(const std::string& name);
  p2p::net::NetworkFabric& fabric() { return fabric_; }
  const std::vector<std::unique_ptr<p2p::jxta::Peer>>& peers() const {
    return peers_;
  }

 private:
  p2p::net::NetworkFabric fabric_;
  std::vector<std::unique_ptr<p2p::jxta::Peer>> peers_;
};

// Counts the warm-up events each subscriber has seen; set-up waits on it.
class WarmupGate {
 public:
  explicit WarmupGate(int subscribers);
  void arrive(int subscriber);
  bool wait(int expected, std::chrono::milliseconds timeout);

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<int> seen_;
};

// A set-up event: tag 'F' (warm-up, awaited by set-up) or 'W' (probe).
std::shared_ptr<const p2p::events::SkiRental> warmup_event(
    char tag, std::size_t n, bool with_lessons);

// Expected value hashes by sequence number, written by the generator
// before each publish and read by subscriber callbacks.
using ExpectedHashes = std::unique_ptr<std::atomic<std::uint64_t>[]>;

// Checks one arrival against the ledger: parses the sequence number and
// compares the value with what was published.
void check_arrival(Ledger& ledger, const std::atomic<std::uint64_t>* expected,
                   int subscriber, const p2p::events::SkiRental& event,
                   std::int64_t now);

// The open-loop generator publishes from the calling thread on a fixed
// schedule. Figures are taken per window of one second of schedule, and a
// phase reports a quantile over its windows, so interference from outside
// the process (the machine is shared) moves the result only when it covers
// most of the run, while a change to the program moves every window.
// Interference only ever delays a delivery, so delivery figures take the
// first quartile. Publish time and CPU per event take the median: a
// stalled host backs up the publishers' queues, and then publish calls
// return sooner and batches fill, so those figures move both ways.
struct PacedWindow {
  double publish_us_p50 = 0;
  double delivery_us_p50 = 0;
  double delivery_us_p90 = 0;
  double cpu_us_per_event = 0;
};
struct PacedResult {
  std::vector<double> publish_us;   // wall time of each publish call
  std::vector<double> delivery_us;  // scheduled send to last subscriber
  std::vector<double> gen_lag_us;   // how late each publish started
  std::vector<PacedWindow> windows;
  std::uint64_t failed_publishes = 0;

  // The quantile over windows of one window figure (see above).
  [[nodiscard]] double over_windows(double PacedWindow::*figure) const;
};
using PublishFn = std::function<bool(
    std::uint64_t seq, std::shared_ptr<const p2p::events::SkiRental>)>;
// Publishes events [first, first + events) at `rate` per second, waits
// for their deliveries, and appends their figures to `result`. Events
// before `first` must be complete or lost already. `publish` returns false
// when the publish was rejected or shed.
void run_paced(PacedResult& result, Ledger& ledger,
               std::atomic<std::uint64_t>* expected,
               const EventFactory& factory, double rate, std::uint64_t first,
               std::uint64_t events, double subtype_share,
               const PublishFn& publish,
               std::uint64_t* useful_bytes = nullptr);

// With bursts, each LAN build alternates this many paced stretches, each
// followed by a back-to-back burst of WorkloadSpec::drain_events.
inline constexpr std::uint64_t kRoundsPerBuild = 5;

// Settings of one phase.
struct PhaseConfig {
  double seconds = 10;      // paced duration
  int setups = 1;           // LAN builds, each measured in turn
  bool drain = false;       // follow the paced stream with bursts
  bool tps_tracing = true;  // TpsConfig::tracing (the shipped default)
  bool layer_trace = false; // collect the per-layer ledger
};

// What the per-layer ledger needs from a traced phase.
struct LayerTrace {
  p2p::tps::TpsStats pub;  // summed over publishing sessions
  p2p::tps::TpsStats sub;  // summed over subscribing sessions
  std::uint64_t send_queue_hwm = 0;  // max over publishing sessions
  p2p::net::FabricStats fabric;      // delta over the paced phase
  p2p::obs::Snapshot registry;       // every peer's delta, summed
  std::vector<double> timer_lag_us;  // shared timer queue fires
  std::vector<double> flush_us;      // flush() after a 16-event burst
  std::uint64_t useful_bytes = 0;    // encoded event bytes x receivers
  std::size_t dedup_capacity = 0;
};

struct PhaseResult {
  std::vector<double> setup_s;  // one per LAN build
  std::vector<double> init_s;   // each new_interface() of the last build
  std::uint64_t paced_events = 0;
  PacedResult paced;
  double drain_eps = 0;            // median over bursts
  std::vector<double> burst_eps;   // each burst
  Tally tally;
  LayerTrace trace;
};

PhaseResult run_phase(const WorkloadSpec& spec, const PhaseConfig& config,
                      std::uint64_t seed);

}  // namespace perfbench
