#include "layers.h"

#include <array>
#include <chrono>
#include <cmath>
#include <functional>
#include <iostream>
#include <span>
#include <stdexcept>
#include <thread>

#include "jxta/wire.h"
#include "obs/trace.h"
#include "srjxta/sr_session.h"
#include "stats.h"
#include "tps/batch.h"
#include "tps/codec.h"
#include "util/dedup_ring.h"
#include "util/uuid.h"

namespace perfbench {

namespace {

using p2p::events::SkiRental;
using p2p::util::Bytes;

// --- the layer comparison: fanout-sync traffic without TPS ----------------

struct SeriesResult {
  double publish_us_p50 = 0;
  double delivery_us_p50 = 0;
  double send_us_p50 = 0;  // WireOutputPipe::send alone (JXTA-WIRE only)
  Tally tally;
};

// Receives one payload at subscriber k.
using PayloadSink = std::function<void(int k, const Bytes& payload)>;

// A substrate under test: the hand-written SR-JXTA layer or raw JXTA-WIRE.
class Stack {
 public:
  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  virtual ~Stack() = default;
  virtual void publish(const Bytes& payload) = 0;
  // Spans around the substrate's own send call, where it has one.
  std::vector<double> send_us;
};

// JXTA-WIRE: raw wire pipes on one pre-shared advertisement; no
// discovery, no duplicate handling (the paper's lower bound).
class WireStack final : public Stack {
 public:
  WireStack(Lan& lan, const PayloadSink& sink) {
    namespace jxta = p2p::jxta;
    jxta::PipeAdvertisement pipe;
    pipe.pid = jxta::PipeId::derive("perfbench:wire");
    pipe.name = "perfbench";
    pipe.type = jxta::PipeAdvertisement::Type::kPropagate;
    jxta::PeerGroupAdvertisement adv;
    adv.gid = jxta::PeerGroupId::derive("perfbench:wire");
    adv.creator = lan.peers().front()->id();
    adv.name = "PS_perfbench";
    adv.is_rendezvous = true;
    auto wire = jxta::WireService::make_service_advertisement(pipe);
    adv.services.emplace(wire.name, std::move(wire));
    const auto& peers = lan.peers();
    for (std::size_t i = 0; i < peers.size(); ++i) {
      groups_.push_back(peers[i]->create_group(adv));
      if (i == 0) continue;
      auto input = groups_.back()->wire().create_input_pipe(pipe);
      input->set_listener([sink, k = static_cast<int>(i) - 1](jxta::Message m) {
        if (const auto body = m.get_bytes("payload")) sink(k, *body);
      });
      inputs_.push_back(std::move(input));
    }
    output_ = groups_.front()->wire().create_output_pipe(pipe);
  }

  void publish(const Bytes& payload) override {
    p2p::jxta::Message m;
    m.add_bytes("payload", payload);
    const std::int64_t t0 = now_ns();
    output_->send(std::move(m));
    send_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }

 private:
  std::vector<std::shared_ptr<p2p::jxta::PeerGroup>> groups_;
  std::vector<std::shared_ptr<p2p::jxta::WireInputPipe>> inputs_;
  std::shared_ptr<p2p::jxta::WireOutputPipe> output_;
};

// SR-JXTA: the hand-coded application layer (the paper's §4.4 baseline).
class SrStack final : public Stack {
 public:
  SrStack(Lan& lan, const PayloadSink& sink, std::size_t dedup) {
    p2p::srjxta::SrConfig config;
    config.adv_search_timeout = std::chrono::milliseconds(300);
    config.dedup_cache_size = dedup;
    const auto& peers = lan.peers();
    for (std::size_t i = 0; i < peers.size(); ++i) {
      auto session = std::make_shared<p2p::srjxta::SrSession>(
          *peers[i], "perfbench-sr", config);
      session->init();
      if (i > 0) {
        session->set_receiver([sink, k = static_cast<int>(i) - 1](
                                  const Bytes& payload) { sink(k, payload); });
      }
      sessions_.push_back(std::move(session));
    }
  }
  ~SrStack() override {
    for (auto& s : sessions_) s->shutdown();
  }

  void publish(const Bytes& payload) override {
    sessions_.front()->publish(payload);
  }

 private:
  std::vector<std::shared_ptr<p2p::srjxta::SrSession>> sessions_;
};

Bytes encode_value(const SkiRental& e) {
  p2p::util::ByteWriter w;
  p2p::serial::EventTraits<SkiRental>::encode(e, w);
  return w.take();
}

// fanout-sync's traffic — one publisher, four subscribers, 1910-byte
// SkiRental at its paced rate — over `make_stack`. The application
// serializes inside its publish call and deserializes in its receiver,
// as a TPS user does not have to.
SeriesResult run_stack(
    const std::function<std::unique_ptr<Stack>(Lan&, const PayloadSink&,
                                               std::size_t)>& make_stack,
    std::uint64_t seed, double seconds) {
  const WorkloadSpec& fanout = *find_workload("fanout-sync");
  const auto events =
      static_cast<std::uint64_t>(std::llround(fanout.rate * seconds));
  Ledger ledger(events, fanout.subscribers);
  const ExpectedHashes expected =
      std::make_unique<std::atomic<std::uint64_t>[]>(events);
  const EventFactory factory(seed);
  WarmupGate warmup(fanout.subscribers);
  const PayloadSink sink = [&](int k, const Bytes& payload) {
    const std::int64_t now = now_ns();
    p2p::util::ByteReader r(payload);
    SkiRental e;
    try {
      e = p2p::serial::EventTraits<SkiRental>::decode(r);
    } catch (const std::exception&) {
      ledger.arrive(-1, 0, false, now);
      return;
    }
    const char tag = e.shop().empty() ? '\0' : e.shop()[0];
    if (tag == 'F') {
      warmup.arrive(k);
    } else {
      check_arrival(ledger, expected.get(), k, e, now);
    }
  };

  SeriesResult result;
  {
    Lan lan(mix64(seed ^ 0x57acULL));
    lan.add_peer("pub0");
    for (int i = 0; i < fanout.subscribers; ++i) {
      lan.add_peer("sub" + std::to_string(i));
    }
    const std::unique_ptr<Stack> stack =
        make_stack(lan, sink, pow2_at_least(events + 4096));
    stack->publish(encode_value(*warmup_event('F', 0, false)));
    if (!warmup.wait(1, std::chrono::seconds(20))) {
      throw std::runtime_error("layer comparison: warm-up not delivered");
    }
    PacedResult paced;
    run_paced(
        paced, ledger, expected.get(), factory, fanout.rate, 0, events, 0,
        [&](std::uint64_t, std::shared_ptr<const SkiRental> event) {
          stack->publish(encode_value(*event));
          return true;
        });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    result.publish_us_p50 = paced.over_windows(&PacedWindow::publish_us_p50);
    result.delivery_us_p50 = paced.over_windows(&PacedWindow::delivery_us_p50);
    result.send_us_p50 = median(stack->send_us);
    result.tally = ledger.total();
  }
  return result;
}

// --- replays of each layer's public functions -----------------------------

// Median over rounds of the per-item time of `body(i)` over `items` items.
template <typename Body>
double ns_per_item(std::size_t items, Body&& body) {
  constexpr int kRounds = 9;
  std::vector<double> rounds;
  for (int round = 0; round < kRounds; ++round) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < items; ++i) body(i);
    rounds.push_back(static_cast<double>(now_ns() - t0) /
                     static_cast<double>(items));
  }
  return median(rounds);
}

struct Replays {
  std::uint64_t sink = 0;  // consumed results, printed so none is elided
  std::vector<Metric> metrics;
};

Replays replay_layers(const WorkloadSpec& spec, std::uint64_t seed,
                      double dup_ratio, std::size_t dedup_capacity) {
  constexpr std::size_t kEvents = 1024;
  constexpr std::size_t kBatch = 16;
  const EventFactory factory(seed);
  const auto& registry = p2p::serial::TypeRegistry::global();
  const p2p::util::DecodeLimits limits;
  std::vector<std::shared_ptr<const SkiRental>> events;
  for (std::size_t i = 0; i < kEvents; ++i) {
    events.push_back(factory.make(i, factory.subtype(i, spec.subtype_share)));
  }
  Replays out;
  auto& sink = out.sink;
  const auto add = [&](const char* name, double value) {
    out.metrics.push_back({name, value, "ns"});
  };

  // serial: the typed EventTraits<SkiRental> body.
  std::vector<Bytes> bodies(kEvents);
  add("serial.encode_ns", ns_per_item(kEvents, [&](std::size_t i) {
        bodies[i] = encode_value(*events[i]);
        sink += bodies[i].size();
      }));
  add("serial.decode_ns", ns_per_item(kEvents, [&](std::size_t i) {
        p2p::util::ByteReader r(bodies[i]);
        sink += p2p::serial::EventTraits<SkiRental>::decode(r).shop().size();
      }));

  // tps codecs: tagged payloads by dynamic type.
  std::array<std::vector<std::shared_ptr<const Bytes>>, 2> payloads;
  const std::array<const p2p::tps::Codec*, 2> codecs = {
      &p2p::tps::xml_codec(), &p2p::tps::binary_codec()};
  const std::array<std::array<const char*, 2>, 2> codec_names = {{
      {"codec.xml.encode_ns", "codec.xml.decode_ns"},
      {"codec.binary.encode_ns", "codec.binary.decode_ns"},
  }};
  for (std::size_t c = 0; c < codecs.size(); ++c) {
    payloads[c].resize(kEvents);
    add(codec_names[c][0], ns_per_item(kEvents, [&](std::size_t i) {
          payloads[c][i] = std::make_shared<const Bytes>(
              codecs[c]->encode(registry, *events[i]));
          sink += payloads[c][i]->size();
        }));
    add(codec_names[c][1], ns_per_item(kEvents, [&](std::size_t i) {
          sink += codecs[c]->decode(registry, payloads[c][i], limits).ok()
                      ? 1
                      : 1000;
        }));
  }

  // tps batch frames of 16 binary payloads.
  std::vector<p2p::tps::BatchItem> items;
  for (std::size_t i = 0; i < kEvents; ++i) {
    items.push_back({p2p::util::Uuid::generate(), payloads[1][i]});
  }
  const std::size_t frames = kEvents / kBatch;
  std::vector<Bytes> frame_bytes(frames);
  add("batch.encode_ns_per_event",
      ns_per_item(frames, [&](std::size_t f) {
        frame_bytes[f] = p2p::tps::encode_batch_frame(
            std::span(items).subspan(f * kBatch, kBatch));
        sink += frame_bytes[f].size();
      }) / kBatch);
  add("batch.decode_ns_per_event",
      ns_per_item(frames, [&](std::size_t f) {
        sink += p2p::tps::try_decode_batch_frame(frame_bytes[f]).items.size();
      }) / kBatch);

  // util dedup ring at the workload's duplicate ratio: a duplicate is the
  // second wire copy of the event just seen, as fan-out produces it.
  constexpr std::size_t kOps = 1 << 16;
  std::vector<p2p::util::Uuid> ids;
  ids.reserve(kOps);
  for (std::size_t i = 0; i < kOps; ++i) {
    const auto draw = static_cast<double>(mix64(seed ^ i) % 1000);
    const bool dup = !ids.empty() && draw < dup_ratio * 1000;
    ids.push_back(dup ? ids.back() : p2p::util::Uuid::generate());
  }
  {
    std::vector<double> rounds;
    for (int round = 0; round < 5; ++round) {
      p2p::util::DedupRing ring(dedup_capacity);
      const std::int64_t t0 = now_ns();
      for (const auto& id : ids) sink += ring.test_and_set(id) ? 1 : 0;
      rounds.push_back(static_cast<double>(now_ns() - t0) / kOps);
    }
    add("dedup.test_and_set_ns", median(rounds));
  }

  // jxta messages shaped like a synchronous TPS publication, trace
  // elements included (tracing is on by default).
  std::vector<p2p::jxta::Message> messages(kEvents);
  std::vector<Bytes> wire(kEvents);
  for (std::size_t i = 0; i < kEvents; ++i) {
    p2p::jxta::Message& m = messages[i];
    m.add_bytes("tps:event", *payloads[0][i]);
    p2p::util::ByteWriter id;
    id.write_u64(i);
    id.write_u64(seed);
    m.add_bytes("tps:event-id", id.take());
    m.add_string("tps:type",
                 p2p::serial::EventTraits<SkiRental>::kTypeName);
    p2p::obs::start_trace(m, "perfbench", "publish", 0);
  }
  add("jxta.msg.serialize_ns", ns_per_item(kEvents, [&](std::size_t i) {
        wire[i] = messages[i].serialize();
        sink += wire[i].size();
      }));
  add("jxta.msg.deserialize_ns", ns_per_item(kEvents, [&](std::size_t i) {
        sink += p2p::jxta::Message::try_deserialize(wire[i]) ? 1 : 1000;
      }));
  add("jxta.msg.dup_ns", ns_per_item(kEvents, [&](std::size_t i) {
        sink += messages[i].dup().elements().size();
      }));
  return out;
}

}  // namespace

LayerReport trace_layers(const WorkloadSpec& spec, std::uint64_t seed,
                         double seconds) {
  const double phase_s = seconds / 3;
  const double stack_s = std::min(seconds / 5, 3.0);
  // A: untraced, as the end-to-end run. B: traced. C: traced, no_tracing().
  const PhaseResult a = run_phase(spec, {.seconds = phase_s}, seed);
  const PhaseResult b =
      run_phase(spec, {.seconds = phase_s, .layer_trace = true}, seed);
  const PhaseResult c = run_phase(
      spec, {.seconds = phase_s, .tps_tracing = false, .layer_trace = true},
      seed);
  const WorkloadSpec& fanout = *find_workload("fanout-sync");
  const PhaseResult tps = run_phase(fanout, {.seconds = stack_s}, seed);
  const SeriesResult sr = run_stack(
      [](Lan& lan, const PayloadSink& sink, std::size_t dedup) {
        return std::make_unique<SrStack>(lan, sink, dedup);
      },
      seed, stack_s);
  const SeriesResult wire = run_stack(
      [](Lan& lan, const PayloadSink& sink, std::size_t) {
        return std::make_unique<WireStack>(lan, sink);
      },
      seed, stack_s);

  const LayerTrace& t = b.trace;
  const auto events = static_cast<double>(b.paced_events);
  const auto dbl = [](std::uint64_t v) { return static_cast<double>(v); };
  const double arrivals =
      dbl(t.sub.received_unique + t.sub.duplicates_suppressed);
  const double dup_ratio = ratio(dbl(t.sub.duplicates_suppressed), arrivals);
  const auto hist = [&](const char* name) {
    const auto* m = t.registry.find(name);
    return m == nullptr ? 0.0 : histogram_percentile(m->histogram, 50);
  };
  const auto counter = [&](const char* name) {
    return dbl(t.registry.counter(name));
  };
  constexpr auto kPublish = &PacedWindow::publish_us_p50;
  constexpr auto kCpu = &PacedWindow::cpu_us_per_event;
  const double b_publish = b.paced.over_windows(kPublish);
  const double tps_publish = tps.paced.over_windows(kPublish);

  std::vector<Metric> m = {
      {"tps.init_s_first", b.init_s.front(), "s"},
      {"tps.init_s_rest_mean",
       mean_of(std::vector<double>(b.init_s.begin() + 1, b.init_s.end())), "s"},
      {"tps.wire_sends_per_event", ratio(dbl(t.pub.wire_sends), events),
       "count"},
      {"tps.dup_ratio", dup_ratio, "ratio"},
      {"tps.dedup_probes_per_event", ratio(dbl(t.sub.dedup_probes), arrivals),
       "count"},
      {"tps.flush_us_p50", median(t.flush_us), "us"},
      {"tps.batch_fill",
       ratio(dbl(t.pub.batched_events), dbl(t.pub.batches_sent) * 16), "ratio"},
      {"tps.encode_cache_hit_ratio",
       ratio(dbl(t.pub.encode_cache_hits), dbl(t.pub.published)), "ratio"},
      {"tps.send_queue_hwm", dbl(t.send_queue_hwm), "count"},
      {"tps.codec_fallbacks", dbl(t.pub.codec_fallbacks), "count"},
      {"tps.publish_drops", dbl(t.pub.publish_drops), "count"},
      {"tps.decode_failures", dbl(t.sub.decode_failures), "count"},
      {"tps.callback_errors", dbl(t.sub.callback_errors), "count"},
  };
  const Replays replays =
      replay_layers(spec, seed, dup_ratio, t.dedup_capacity);
  m.insert(m.end(), replays.metrics.begin(), replays.metrics.end());
  const auto& f = t.fabric;
  m.insert(m.end(), {
      {"timer.lag_us_p50", median(t.timer_lag_us), "us"},
      {"jxta.pipe.send_latency_us_p50", wire.send_us_p50, "us"},
      // Wire messages that reached an input pipe, over those that arrived
      // (remote) or left (local delivery at the publisher).
      {"jxta.wire.useful_ratio",
       ratio(counter("jxta.wire.delivered"),
             counter("jxta.wire.received") + counter("jxta.wire.published")),
       "ratio"},
      {"jxta.pipe.recv_latency_us_p50", hist("jxta.pipe.recv_latency_us"),
       "us"},
      {"net.datagrams_per_event", ratio(dbl(f.delivered), events), "count"},
      {"net.bytes_per_event", ratio(dbl(f.bytes_delivered), events), "bytes"},
      {"net.payload_efficiency",
       ratio(dbl(t.useful_bytes), dbl(f.bytes_delivered)), "ratio"},
      {"net.dropped",
       dbl(f.dropped_loss + f.dropped_unknown + f.dropped_partition), "count"},
      {"stack.wire.publish_us_p50", wire.publish_us_p50, "us"},
      {"stack.wire.delivery_us_p50", wire.delivery_us_p50, "us"},
      {"stack.srjxta.publish_us_p50", sr.publish_us_p50, "us"},
      {"stack.srjxta.delivery_us_p50", sr.delivery_us_p50, "us"},
      {"stack.tps_over_srjxta.publish", ratio(tps_publish, sr.publish_us_p50),
       "ratio"},
      {"stack.srjxta_over_wire.publish",
       ratio(sr.publish_us_p50, wire.publish_us_p50), "ratio"},
      {"obs.tracing_share.publish",
       1 - ratio(c.paced.over_windows(kPublish), b_publish), "ratio"},
      {"obs.tracing_share.cpu",
       1 - ratio(c.paced.over_windows(kCpu), b.paced.over_windows(kCpu)),
       "ratio"},
      {"gen.lag_us_p99", percentile(a.paced.gen_lag_us, 99), "us"},
      {"gen.lag_us_max", max_of(a.paced.gen_lag_us), "us"},
      {"bench.trace_overhead",
       ratio(b_publish, a.paced.over_windows(kPublish)) - 1, "ratio"},
  });
  std::cout << "# replay checksum " << replays.sink << "\n"
            << "# layer comparison oracle: JXTA-WIRE failed "
            << wire.tally.failed << "/" << wire.tally.attempted
            << ", SR-JXTA failed " << sr.tally.failed << "/"
            << sr.tally.attempted << "\n";

  LayerReport report;
  report.metrics = std::move(m);
  for (const PhaseResult* p : {&a, &b, &c, &tps}) report.tally += p->tally;
  return report;
}

}  // namespace perfbench
