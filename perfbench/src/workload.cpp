#include "workload.h"

#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "jxta/peer.h"
#include "net/inproc_transport.h"
#include "util/bytes.h"
#include "util/timer_queue.h"
#include "stats.h"

namespace perfbench {

using p2p::events::SkiRental;
using p2p::events::SkiRentalWithLessons;

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {.name = "fanout-sync",
       .publishers = 1,
       .subscribers = 4,
       .rate = 2000,
       .drain_events = 10000},
      {.name = "fanin-batched",
       .publishers = 4,
       .subscribers = 1,
       .batched = true,
       .rate = 20000,
       .drain_events = 25000},
      {.name = "mesh-sr",
       .publishers = 4,
       .subscribers = 4,
       .mesh = true,
       .rate = 1000,
       .subtype_share = 0.5,
       .drain_events = 4000},
  };
  return specs;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const auto& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::uint64_t mix64(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool EventFactory::subtype(std::uint64_t seq, double share) const {
  const std::uint64_t draw = mix64(seed_ ^ mix64(seq ^ 0x5b7ULL)) % 1000;
  return static_cast<double>(draw) < share * 1000;
}

std::shared_ptr<const SkiRental> EventFactory::make(std::uint64_t seq,
                                                    bool with_lessons) const {
  static constexpr std::array<const char*, 4> kBrands = {
      "Rossignol", "Salomon", "Atomic", "Volkl"};
  const std::uint64_t m = mix64(seed_ ^ mix64(seq));
  std::string shop(1, 'E');
  shop += std::to_string(seq);
  shop += '|';
  const std::string brand = kBrands[(m >> 8) % kBrands.size()];
  // Serialized size: shop and brand with their length prefixes, plus two
  // f64 fields — padded to the paper's message size.
  const std::size_t fixed = shop.size() + 2 + brand.size() + 1 + 16;
  const std::size_t pad = kMessageBytes > fixed ? kMessageBytes - fixed : 0;
  shop.reserve(shop.size() + pad);
  for (std::size_t i = 0; i < pad; ++i) {
    shop.push_back(static_cast<char>('a' + ((m >> ((i % 8) * 8)) + i) % 26));
  }
  const auto price = static_cast<float>((m >> 16) % 10000) / 100.0F;
  const auto days = static_cast<float>(1 + (m >> 32) % 14);
  if (with_lessons) {
    return std::make_shared<const SkiRentalWithLessons>(
        std::move(shop), price, brand, days,
        "Instructor-" + std::to_string((m >> 40) % 100));
  }
  return std::make_shared<const SkiRental>(std::move(shop), price, brand,
                                           days);
}

std::uint64_t EventFactory::value_hash(const SkiRental& e) {
  const std::hash<std::string_view> h;
  std::uint64_t x = h(e.shop());
  x = mix64(x ^ h(e.brand()));
  std::uint32_t bits = 0;
  const float price = e.price();
  const float days = e.number_of_days();
  std::memcpy(&bits, &price, sizeof bits);
  x = mix64(x ^ bits);
  std::memcpy(&bits, &days, sizeof bits);
  x = mix64(x ^ bits);
  if (const auto* lessons = dynamic_cast<const SkiRentalWithLessons*>(&e)) {
    x = mix64(x ^ h(lessons->instructor()) ^ 0x1e550115ULL);
  }
  return x;
}

bool EventFactory::parse_seq(std::string_view shop, std::uint64_t* seq) {
  if (shop.size() < 3 || shop[0] != 'E') return false;
  std::uint64_t value = 0;
  std::size_t i = 1;
  for (; i < shop.size() && i < 21 && shop[i] >= '0' && shop[i] <= '9';
       ++i) {
    value = value * 10 + static_cast<std::uint64_t>(shop[i] - '0');
  }
  if (i == 1 || i >= shop.size() || shop[i] != '|') return false;
  *seq = value;
  return true;
}

std::size_t pow2_at_least(std::uint64_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Lan::Lan(std::uint64_t seed) : fabric_(seed) {
  fabric_.set_default_link({.latency_ms = 0});
}

Lan::~Lan() {
  for (auto it = peers_.rbegin(); it != peers_.rend(); ++it) (*it)->stop();
}

p2p::jxta::Peer& Lan::add_peer(const std::string& name) {
  p2p::jxta::PeerConfig config;
  config.name = name;
  // As the fig18-20 benches: the propagation loop-suppression memory must
  // span the whole run.
  config.rdv.seen_cache_size = 1 << 20;
  auto peer = std::make_unique<p2p::jxta::Peer>(config);
  peer->add_transport(
      std::make_shared<p2p::net::InProcTransport>(fabric_, name));
  peer->start();
  peers_.push_back(std::move(peer));
  return *peers_.back();
}

WarmupGate::WarmupGate(int subscribers)
    : seen_(static_cast<std::size_t>(subscribers), 0) {}

void WarmupGate::arrive(int subscriber) {
  const std::lock_guard lock(mu_);
  ++seen_[static_cast<std::size_t>(subscriber)];
  cv_.notify_all();
}

bool WarmupGate::wait(int expected, std::chrono::milliseconds timeout) {
  std::unique_lock lock(mu_);
  return cv_.wait_for(lock, timeout, [&] {
    return std::all_of(seen_.begin(), seen_.end(),
                       [&](int n) { return n >= expected; });
  });
}

void check_arrival(Ledger& ledger, const std::atomic<std::uint64_t>* expected,
                   int subscriber, const SkiRental& event, std::int64_t now) {
  std::uint64_t seq = 0;
  if (!EventFactory::parse_seq(event.shop(), &seq) || seq >= ledger.events()) {
    ledger.arrive(-1, 0, false, now);
    return;
  }
  const bool intact = EventFactory::value_hash(event) ==
                      expected[seq].load(std::memory_order_relaxed);
  ledger.arrive(subscriber, seq, intact, now);
}

namespace {

using Interface = p2p::tps::TpsInterface<SkiRental>;

// How long a stretch or a burst waits for its last deliveries. Only a lost
// event makes a wait run out, and fifteen of each must fit in one run's
// 170-second limit next to the measured time.
constexpr std::chrono::seconds kStretchTimeout{2};
constexpr std::chrono::seconds kBurstTimeout{4};

std::int64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e9;
}

// Encoded size of an event's value (the useful bytes of a delivery).
std::size_t value_bytes(const SkiRental& e) {
  p2p::util::ByteWriter w;
  if (const auto* lessons = dynamic_cast<const SkiRentalWithLessons*>(&e)) {
    p2p::serial::EventTraits<SkiRentalWithLessons>::encode(*lessons, w);
  } else {
    p2p::serial::EventTraits<SkiRental>::encode(e, w);
  }
  return w.take().size();
}

void add_stats(p2p::tps::TpsStats& acc, const p2p::tps::TpsStats& a,
               const p2p::tps::TpsStats& b) {
  acc.published += a.published - b.published;
  acc.wire_sends += a.wire_sends - b.wire_sends;
  acc.received_unique += a.received_unique - b.received_unique;
  acc.duplicates_suppressed +=
      a.duplicates_suppressed - b.duplicates_suppressed;
  acc.decode_failures += a.decode_failures - b.decode_failures;
  acc.callback_errors += a.callback_errors - b.callback_errors;
  acc.codec_fallbacks += a.codec_fallbacks - b.codec_fallbacks;
  acc.batches_sent += a.batches_sent - b.batches_sent;
  acc.batched_events += a.batched_events - b.batched_events;
  acc.encode_cache_hits += a.encode_cache_hits - b.encode_cache_hits;
  acc.publish_drops += a.publish_drops - b.publish_drops;
  acc.deliveries_inline += a.deliveries_inline - b.deliveries_inline;
  acc.delivery_drops += a.delivery_drops - b.delivery_drops;
  acc.dedup_probes += a.dedup_probes - b.dedup_probes;
}

p2p::net::FabricStats fabric_delta(const p2p::net::FabricStats& a,
                                   const p2p::net::FabricStats& b) {
  return {.submitted = a.submitted - b.submitted,
          .delivered = a.delivered - b.delivered,
          .dropped_loss = a.dropped_loss - b.dropped_loss,
          .dropped_unknown = a.dropped_unknown - b.dropped_unknown,
          .dropped_partition = a.dropped_partition - b.dropped_partition,
          .bytes_delivered = a.bytes_delivered - b.bytes_delivered};
}

// Adds counters and histogram buckets of `s` into `acc`.
void merge_snapshot(p2p::obs::Snapshot& acc, const p2p::obs::Snapshot& s) {
  using Kind = p2p::obs::MetricValue::Kind;
  for (const auto& [name, value] : s.values) {
    auto [it, inserted] = acc.values.emplace(name, value);
    if (inserted) continue;
    auto& into = it->second;
    if (value.kind == Kind::kCounter) into.counter += value.counter;
    if (value.kind == Kind::kGauge) {
      into.gauge = std::max(into.gauge, value.gauge);
    }
    if (value.kind == Kind::kHistogram &&
        into.histogram.counts.size() == value.histogram.counts.size()) {
      for (std::size_t i = 0; i < value.histogram.counts.size(); ++i) {
        into.histogram.counts[i] += value.histogram.counts[i];
      }
      into.histogram.count += value.histogram.count;
      into.histogram.sum += value.histogram.sum;
    }
  }
}

// Lag of every callback the shared timer queue fires (each fabric
// delivery is one). Owned by the installed observer, so a fire still in
// flight when the observer is replaced never touches freed memory.
struct LagSamples {
  std::mutex mu;
  std::vector<double> us;
};

// One LAN with its TPS sessions, built and warmed up by the constructor.
class World {
 public:
  World(const WorkloadSpec& spec, const PhaseConfig& config,
        std::uint64_t seed, std::size_t dedup_capacity, Ledger& ledger,
        const std::atomic<std::uint64_t>* expected)
      : spec_(spec), ledger_(ledger), expected_(expected),
        warmup_(spec.subscribers) {
    const std::int64_t t0 = now_ns();
    // Publishing a subtype needs it registered (the engine registers only
    // the subscribed type).
    if (spec.subtype_share > 0) {
      p2p::serial::register_event_with_ancestors<SkiRentalWithLessons>();
    }
    auto base = p2p::tps::TpsConfig::Builder()
                    .adv_search_timeout(std::chrono::milliseconds(300))
                    .no_history()
                    .dedup_cache(dedup_capacity);
    if (!config.tps_tracing) base.no_tracing();
    auto fast = base;
    fast.batching(16, std::chrono::microseconds(200))
        .encode_cache(1024)
        .prefer_binary();
    const p2p::tps::TpsConfig sub_config = base.build();
    const p2p::tps::TpsConfig pub_config =
        spec.batched ? fast.build() : sub_config;

    lan_ = std::make_unique<Lan>(mix64(seed ^ 0xfab41cULL));
    // Peer roles. A mesh peer is both; otherwise publishers come first.
    std::vector<int> order;  // session init order, by peer index
    const int peers = spec.mesh ? spec.publishers
                                : spec.publishers + spec.subscribers;
    for (int i = 0; i < peers; ++i) {
      if (spec.mesh) {
        lan_->add_peer("peer" + std::to_string(i));
      } else if (i < spec.publishers) {
        lan_->add_peer("pub" + std::to_string(i));
      } else {
        lan_->add_peer("sub" + std::to_string(i - spec.publishers));
      }
      order.push_back(i);
    }
    // fanin: the subscriber creates the advertisement; the rest find it.
    if (!spec.mesh && spec.subscribers < spec.publishers) {
      std::rotate(order.begin(), order.begin() + spec.publishers, order.end());
    }
    std::vector<int> half_a, half_b;
    if (spec.mesh) {
      // Two advertisements per type: the seed splits the peers into two
      // partitioned halves that each create their own, then heals.
      for (std::size_t i = order.size() - 1; i > 0; --i) {
        std::swap(order[i], order[mix64(seed ^ (0x9a47ULL + i)) % (i + 1)]);
      }
      half_a.assign(order.begin(), order.begin() + peers / 2);
      half_b.assign(order.begin() + peers / 2, order.end());
      partition(half_a, half_b, true);
    }

    ifaces_.resize(static_cast<std::size_t>(peers));
    for (const int i : order) {
      const bool pub = spec.mesh || i < spec.publishers;
      auto& peer = *lan_->peers()[static_cast<std::size_t>(i)];
      p2p::tps::TpsEngine<SkiRental> engine(
          peer, pub ? pub_config : sub_config);
      const std::int64_t t = now_ns();
      ifaces_[static_cast<std::size_t>(i)].emplace(engine.new_interface());
      init_s_.push_back(seconds_since(t));
    }
    // Publishers and subscribers in peer order, so subscriber k and the
    // publisher of event seq are fixed peers.
    for (int i = 0; i < peers; ++i) {
      const auto index = static_cast<std::size_t>(i);
      if (is_publisher(index)) publishers_.push_back(&*ifaces_[index]);
      if (!is_subscriber(index)) continue;
      const int k = static_cast<int>(subs_.size());
      subs_.push_back(ifaces_[index]->subscribe(
          [this, k](const SkiRental& e) { on_event(k, e); }));
    }

    if (spec.mesh) {
      // The subtype's advertisements are created while still partitioned,
      // one per half, then every binding converges after the heal.
      for (const auto* half : {&half_a, &half_b}) {
        for (const int i : *half) probe(i, true);
      }
      partition(half_a, half_b, false);
      converge();
    }
    // One warm-up event (of each type) from every publisher, delivered to
    // every subscriber.
    const int per_publisher = spec.subtype_share > 0 ? 2 : 1;
    for (std::size_t p = 0; p < publishers_.size(); ++p) {
      (void)publishers_[p]->try_publish(warmup_event('F', p, false));
      if (per_publisher == 2) {
        (void)publishers_[p]->try_publish(warmup_event('F', p, true));
      }
      publishers_[p]->flush();
    }
    if (!warmup_.wait(static_cast<int>(publishers_.size()) * per_publisher,
                      std::chrono::seconds(20))) {
      throw std::runtime_error(spec.name + ": warm-up events not delivered");
    }
    setup_s_ = seconds_since(t0);
  }

  // Subscriber callbacks hold `this`.
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] double setup_s() const { return setup_s_; }
  [[nodiscard]] const std::vector<double>& init_s() const { return init_s_; }
  [[nodiscard]] Lan& lan() { return *lan_; }
  [[nodiscard]] const std::vector<Interface*>& publishers() const {
    return publishers_;
  }
  [[nodiscard]] std::vector<Interface*> sessions() {
    std::vector<Interface*> out;
    for (auto& i : ifaces_) out.push_back(&*i);
    return out;
  }
  [[nodiscard]] bool is_publisher(std::size_t peer) const {
    return spec_.mesh || peer < static_cast<std::size_t>(spec_.publishers);
  }
  [[nodiscard]] bool is_subscriber(std::size_t peer) const {
    return spec_.mesh || peer >= static_cast<std::size_t>(spec_.publishers);
  }

  p2p::tps::PublishTicket publish(std::uint64_t seq,
                                  std::shared_ptr<const SkiRental> event) {
    return publishers_[seq % publishers_.size()]->try_publish(std::move(event));
  }

 private:
  void on_event(int subscriber, const SkiRental& e) {
    const std::int64_t now = now_ns();
    const char tag = e.shop().empty() ? '\0' : e.shop()[0];
    if (tag == 'F') {
      warmup_.arrive(subscriber);
    } else if (tag != 'W') {  // "W": set-up probes, not accounted
      check_arrival(ledger_, expected_, subscriber, e, now);
    }
  }

  void partition(const std::vector<int>& a, const std::vector<int>& b,
                 bool on) {
    for (const int i : a) {
      for (const int j : b) {
        const auto& x = lan_->peers()[static_cast<std::size_t>(i)]->name();
        const auto& y = lan_->peers()[static_cast<std::size_t>(j)]->name();
        if (on) {
          lan_->fabric().partition(x, y);
        } else {
          lan_->fabric().heal(x, y);
        }
      }
    }
  }

  // Publishes one "W" probe; returns its wire transmissions.
  std::uint64_t probe(int peer, bool with_lessons) {
    return ifaces_[static_cast<std::size_t>(peer)]
        ->try_publish(warmup_event('W', static_cast<std::size_t>(peer),
                                   with_lessons))
        .wire_sends;
  }

  // Probes until every peer sends each SkiRental on both advertisements
  // and each SkiRentalWithLessons on both of its own plus SkiRental's.
  void converge() {
    const std::int64_t deadline = now_ns() + 30'000'000'000LL;
    while (now_ns() < deadline) {
      bool done = true;
      for (std::size_t i = 0; i < ifaces_.size(); ++i) {
        if (probe(static_cast<int>(i), false) != 2) done = false;
        if (probe(static_cast<int>(i), true) != 4) done = false;
      }
      if (done) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    throw std::runtime_error(spec_.name + ": advertisements did not converge");
  }

  const WorkloadSpec& spec_;
  Ledger& ledger_;
  const std::atomic<std::uint64_t>* expected_;
  WarmupGate warmup_;
  double setup_s_ = 0;
  std::vector<double> init_s_;
  // Destroyed in reverse: subscriptions, then sessions, then the LAN.
  std::unique_ptr<Lan> lan_;
  std::vector<std::optional<Interface>> ifaces_;
  std::vector<Interface*> publishers_;
  std::vector<p2p::tps::Subscription> subs_;
};

}  // namespace

std::shared_ptr<const SkiRental> warmup_event(char tag, std::size_t n,
                                              bool with_lessons) {
  std::string shop(1, tag);
  shop += std::to_string(n);
  shop += "|warm-up";
  if (with_lessons) {
    return std::make_shared<const SkiRentalWithLessons>(
        std::move(shop), 1.0F, "Warm", 1.0F, "Instructor");
  }
  return std::make_shared<const SkiRental>(std::move(shop), 1.0F, "Warm",
                                           1.0F);
}

void run_paced(PacedResult& r, Ledger& ledger,
               std::atomic<std::uint64_t>* expected,
               const EventFactory& factory, double rate, std::uint64_t first,
               std::uint64_t events, double subtype_share,
               const PublishFn& publish, std::uint64_t* useful_bytes) {
  const std::size_t published_before = r.publish_us.size();
  // Earlier events are complete or lost already; wait for this stream's.
  const std::uint64_t done_before = ledger.completed();
  const double period_ns = 1e9 / rate;
  const auto due_ns = [&, start = now_ns() + 1'000'000](std::uint64_t i) {
    return start + std::llround(static_cast<double>(i) * period_ns);
  };
  // Window boundaries: one per second of schedule; a partial tail joins
  // the last full window.
  const auto per_window = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(rate)));
  const std::uint64_t windows = std::max<std::uint64_t>(1, events / per_window);
  // CPU samples at each boundary: process, generator thread, and the
  // generator's CPU inside publish calls so far.
  struct CpuSample {
    std::int64_t process = 0, generator = 0, publishing = 0;
  };
  std::vector<CpuSample> cpu;
  std::int64_t publish_cpu_ns = 0;
  const auto sample_cpu = [&] {
    cpu.push_back({cpu_ns(CLOCK_PROCESS_CPUTIME_ID),
                   cpu_ns(CLOCK_THREAD_CPUTIME_ID), publish_cpu_ns});
  };
  std::uint64_t failed = 0;
  for (std::uint64_t i = 0; i < events; ++i) {
    const std::uint64_t seq = first + i;
    auto event = factory.make(seq, factory.subtype(seq, subtype_share));
    expected[seq].store(EventFactory::value_hash(*event),
                        std::memory_order_relaxed);
    if (useful_bytes != nullptr) {
      *useful_bytes += value_bytes(*event) *
                       static_cast<std::uint64_t>(ledger.subscribers());
    }
    const std::int64_t due = due_ns(i);
    if (now_ns() < due) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
    }
    if (i % per_window == 0 && i / per_window < windows) sample_cpu();
    const std::int64_t c0 = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
    const std::int64_t t0 = now_ns();
    const bool ok = publish(seq, std::move(event));
    const std::int64_t t1 = now_ns();
    publish_cpu_ns += cpu_ns(CLOCK_THREAD_CPUTIME_ID) - c0;
    if (!ok) {
      ledger.publish_failed(seq);
      ++failed;
    }
    r.publish_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    r.gen_lag_us.push_back(static_cast<double>(t0 - due) / 1e3);
  }
  r.failed_publishes += failed;
  ledger.wait_completed(done_before + events - failed, kStretchTimeout);
  sample_cpu();

  for (std::uint64_t w = 0; w < windows && events > 0; ++w) {
    const std::uint64_t from = w * per_window;
    const std::uint64_t to = w + 1 == windows ? events : from + per_window;
    std::vector<double> delivery;
    for (std::uint64_t i = from; i < to; ++i) {
      const std::int64_t done = ledger.done_ns(first + i);
      if (done != 0) {
        delivery.push_back(static_cast<double>(done - due_ns(i)) / 1e3);
      }
    }
    r.delivery_us.insert(r.delivery_us.end(), delivery.begin(), delivery.end());
    // Process CPU minus the generator's own work (its CPU outside the
    // publish calls), per published event.
    const CpuSample& c0 = cpu[w];
    const CpuSample& c1 = cpu[w + 1];
    const std::int64_t busy = (c1.process - c0.process) -
                              ((c1.generator - c0.generator) -
                               (c1.publishing - c0.publishing));
    r.windows.push_back(
        {.publish_us_p50 = median(std::vector<double>(
             r.publish_us.begin() +
                 static_cast<std::ptrdiff_t>(published_before + from),
             r.publish_us.begin() +
                 static_cast<std::ptrdiff_t>(published_before + to))),
         .delivery_us_p50 = median(delivery),
         .delivery_us_p90 = percentile(delivery, 90),
         .cpu_us_per_event = static_cast<double>(busy) / 1e3 /
                             static_cast<double>(to - from)});
  }
}

double PacedResult::over_windows(double PacedWindow::*figure) const {
  std::vector<double> values;
  for (const auto& w : windows) values.push_back(w.*figure);
  const bool delivery = figure == &PacedWindow::delivery_us_p50 ||
                        figure == &PacedWindow::delivery_us_p90;
  return percentile(values, delivery ? 25 : 50);
}

namespace {

// One back-to-back burst of events [first, first + events), honouring
// backpressure. Returns events per second until the last subscriber had
// the last of them. `failed` counts failed publishes of the whole phase.
// The events are made before the clock starts: making one costs about as
// much as publishing it, and a generator that slow would leave the
// publishers' batches part-empty, so the burst would measure the
// generator rather than the pipeline.
double run_burst(World& world, Ledger& ledger,
                 std::atomic<std::uint64_t>* expected,
                 const EventFactory& factory, const WorkloadSpec& spec,
                 std::uint64_t first, std::uint64_t events,
                 std::uint64_t& failed) {
  std::vector<std::shared_ptr<const SkiRental>> made;
  made.reserve(events);
  for (std::uint64_t seq = first; seq < first + events; ++seq) {
    made.push_back(
        factory.make(seq, factory.subtype(seq, spec.subtype_share)));
    expected[seq].store(EventFactory::value_hash(*made.back()),
                        std::memory_order_relaxed);
  }
  const std::uint64_t done_before = ledger.completed();
  const std::uint64_t failed_before = failed;
  const std::int64_t t0 = now_ns();
  for (std::uint64_t seq = first; seq < first + events; ++seq) {
    const auto& event = made[seq - first];
    p2p::tps::PublishTicket ticket = world.publish(seq, event);
    while (ticket.dropped()) {  // queue full: let the sender drain it
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      ticket = world.publish(seq, event);
    }
    if (!ticket.ok()) {
      ledger.publish_failed(seq);
      ++failed;
    }
  }
  ledger.wait_completed(done_before + events - (failed - failed_before),
                        kBurstTimeout);
  std::int64_t last = t0;
  for (std::uint64_t seq = first; seq < first + events; ++seq) {
    last = std::max(last, ledger.done_ns(seq));
  }
  return static_cast<double>(events) /
         std::max(static_cast<double>(last - t0) / 1e9, 1e-9);
}

// Per-layer baselines taken when a traced stream starts, turned into the
// stream's deltas when it ends.
class LayerProbe {
 public:
  explicit LayerProbe(World& world) : sessions_(world.sessions()) {
    for (const auto& peer : world.lan().peers()) {
      snapshots_.push_back(peer->metrics().snapshot());
    }
    for (auto* s : sessions_) stats_.push_back(s->stats());
    fabric_ = world.lan().fabric().stats();
    p2p::util::TimerQueue::shared().set_fire_observer(
        [lags = lags_](std::int64_t lag_us) {
          const std::lock_guard lock(lags->mu);
          lags->us.push_back(static_cast<double>(lag_us));
        });
  }

  void finish(World& world, LayerTrace& out) {
    p2p::util::TimerQueue::shared().set_fire_observer({});
    {
      const std::lock_guard lock(lags_->mu);
      out.timer_lag_us = lags_->us;
    }
    const auto& peers = world.lan().peers();
    for (std::size_t i = 0; i < peers.size(); ++i) {
      merge_snapshot(out.registry, p2p::obs::diff(
                                       snapshots_[i],
                                       peers[i]->metrics().snapshot()));
    }
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      const auto now = sessions_[i]->stats();
      if (world.is_publisher(i)) {
        add_stats(out.pub, now, stats_[i]);
        out.send_queue_hwm =
            std::max<std::uint64_t>(out.send_queue_hwm, now.send_queue_hwm);
      }
      if (world.is_subscriber(i)) add_stats(out.sub, now, stats_[i]);
    }
    out.fabric = fabric_delta(world.lan().fabric().stats(), fabric_);
    // flush() right after a 16-event burst on the first publisher.
    Interface* pub = world.publishers().front();
    for (int i = 0; i < 200; ++i) {
      for (int j = 0; j < 16; ++j) {
        (void)pub->try_publish(warmup_event('W', 0, false));
      }
      const std::int64_t t0 = now_ns();
      pub->flush();
      out.flush_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
  }

 private:
  std::vector<Interface*> sessions_;
  std::vector<p2p::obs::Snapshot> snapshots_;
  std::vector<p2p::tps::TpsStats> stats_;
  p2p::net::FabricStats fabric_;
  std::shared_ptr<LagSamples> lags_ = std::make_shared<LagSamples>();
};

}  // namespace

PhaseResult run_phase(const WorkloadSpec& spec, const PhaseConfig& config,
                      std::uint64_t seed) {
  PhaseResult r;
  // Every LAN build is measured in turn, and with bursts each alternates
  // paced stretches and bursts, so the figures sample every build and the
  // whole run rather than one end of it.
  const auto builds = static_cast<std::uint64_t>(config.setups);
  const std::uint64_t per_build = config.drain ? kRoundsPerBuild : 1;
  const auto per_round = static_cast<std::uint64_t>(std::llround(
      spec.rate * config.seconds / static_cast<double>(builds * per_build)));
  const std::uint64_t burst = config.drain ? spec.drain_events : 0;
  const std::uint64_t total = (per_round + burst) * builds * per_build;
  r.paced_events = per_round * builds * per_build;
  Ledger ledger(total, spec.subscribers);
  const ExpectedHashes expected =
      std::make_unique<std::atomic<std::uint64_t>[]>(total);
  const EventFactory factory(seed);
  // "A dedup cache that spans the run": every event id of the phase fits.
  const std::size_t dedup_capacity = pow2_at_least(total + 4096);
  r.trace.dedup_capacity = dedup_capacity;

  std::vector<double> burst_eps;
  std::uint64_t next = 0;  // sequence number of the next event
  for (std::uint64_t build = 0; build < builds; ++build) {
    World world(spec, config, seed, dedup_capacity, ledger, expected.get());
    r.setup_s.push_back(world.setup_s());
    r.init_s = world.init_s();
    std::optional<LayerProbe> probe;
    if (config.layer_trace) probe.emplace(world);
    for (std::uint64_t round = 0; round < per_build; ++round) {
      run_paced(
          r.paced, ledger, expected.get(), factory, spec.rate, next, per_round,
          spec.subtype_share,
          [&](std::uint64_t seq, std::shared_ptr<const SkiRental> event) {
            return world.publish(seq, std::move(event)).ok();
          },
          config.layer_trace ? &r.trace.useful_bytes : nullptr);
      next += per_round;
      if (burst > 0) {
        burst_eps.push_back(run_burst(world, ledger, expected.get(), factory,
                                      spec, next, burst,
                                      r.paced.failed_publishes));
        next += burst;
      }
    }
    if (probe) probe->finish(world, r.trace);
    // Late duplicates still count against the oracle.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  // The median over many bursts spread across the run and its builds.
  r.drain_eps = median(burst_eps);
  r.burst_eps = burst_eps;
  r.tally = ledger.total();
  return r;
}

}  // namespace perfbench
