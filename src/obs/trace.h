// Message tracing: follow one publication end-to-end across peers.
//
// A traced jxta::Message carries two extra elements:
//   obs:trace-id — 16 bytes, the trace's identity (stable across
//                  Message::dup(), unlike the message id);
//   obs:hops     — an append-only list of {peer, stage, t_us} records.
// Each layer that touches the message appends a hop (publish at the TPS
// engine, wire-send / wire-recv at the wire service, deliver at the
// receiving TPS session), so by delivery time the message itself holds its
// whole path with per-hop timing. The receiving peer files the finished
// path into its Tracer, where tests, tools and the monitoring story read
// it back (Peer::tracer()).
//
// Timestamps are microseconds on the process-wide steady clock: peers in
// one process (the simulated-WAN topologies) share a timebase, so cross-
// peer hop deltas are meaningful there.
//
// The hop list is bounded (kMaxHops) so a routing loop cannot grow a
// message without bound. With P2P_OBS_DISABLED, stamping and appending are
// no-ops and messages travel untouched.
#pragma once

#include <chrono>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "jxta/message.h"
#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/clock.h"
#include "util/thread_annotations.h"
#include "util/uuid.h"

namespace p2p::obs {

inline constexpr std::string_view kTraceIdElement = "obs:trace-id";
inline constexpr std::string_view kTraceHopsElement = "obs:hops";
inline constexpr std::size_t kMaxHops = 16;

struct Hop {
  std::string peer;   // peer id URN (or name) of the hop
  std::string stage;  // "publish", "wire-send", "wire-recv", "deliver", ...
  std::int64_t t_us = 0;

  friend bool operator==(const Hop&, const Hop&) = default;
};

struct Trace {
  util::Uuid id;
  std::vector<Hop> hops;
};

// Microseconds on the hop timebase — wall time through the one named
// authority (util/clock.h). Hop stamping happens on real threads even in
// sim runs, so it stays off virtual time; sim metrics exclude hop deltas
// from determinism snapshots.
inline std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             util::SystemClock::instance().now().time_since_epoch())
      .count();
}

// Wire codec for the obs:hops element body:
// [count varint] then per hop [peer string][stage string][t_us i64].
util::Bytes encode_hops(const std::vector<Hop>& hops);
std::vector<Hop> decode_hops(std::span<const std::uint8_t> data);

// Completed traces of one peer (bounded ring; newest kept). The capacity
// is a PeerConfig knob (trace_capacity): long benches file traces without
// bound, so the ring sheds the oldest and counts what it shed — the
// `dropped` counter mirrors into the peer registry as obs.traces_dropped.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 256, Counter dropped = Counter())
      : capacity_(capacity), m_dropped_(dropped) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void record(Trace trace) EXCLUDES(mu_);

  // Newest-last list of completed traces currently retained.
  [[nodiscard]] std::vector<Trace> recent() const EXCLUDES(mu_);
  [[nodiscard]] std::optional<Trace> find(const util::Uuid& id) const
      EXCLUDES(mu_);
  // Total traces ever recorded (not bounded by capacity).
  [[nodiscard]] std::uint64_t recorded() const EXCLUDES(mu_);
  // Traces shed by the retention ring since construction.
  [[nodiscard]] std::uint64_t dropped() const EXCLUDES(mu_);
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  Counter m_dropped_;
  mutable util::Mutex mu_{"obs-tracer"};
  std::deque<Trace> traces_ GUARDED_BY(mu_);
  std::uint64_t recorded_ GUARDED_BY(mu_) = 0;
  std::uint64_t dropped_ GUARDED_BY(mu_) = 0;
};

// --- jxta::Message glue (inline: used only by code already linking jxta) ---

// Starts a trace on an outgoing message: assigns a trace id (if the message
// has none) and appends the first hop. Returns the trace id; nil when
// instrumentation is compiled out.
inline util::Uuid start_trace(jxta::Message& msg, std::string_view peer,
                              std::string_view stage, std::int64_t t_us) {
#if defined(P2P_OBS_DISABLED)
  (void)msg;
  (void)peer;
  (void)stage;
  (void)t_us;
  return util::Uuid{};
#else
  util::Uuid id;
  const auto existing = msg.get_bytes(kTraceIdElement);
  if (!existing || existing->size() != 16 ||
      !util::ByteReader(*existing).try_read_uuid(id)) {
    id = util::Uuid::generate();
    util::ByteWriter w;
    w.write_uuid(id);
    msg.set_bytes(std::string(kTraceIdElement), w.take());
  }
  std::vector<Hop> hops;
  if (const auto body = msg.get_bytes(kTraceHopsElement)) {
    hops = decode_hops(*body);
  }
  if (hops.size() < kMaxHops) {
    hops.push_back(Hop{std::string(peer), std::string(stage), t_us});
    msg.set_bytes(std::string(kTraceHopsElement), encode_hops(hops));
  }
  return id;
#endif
}

// Appends one hop to an already-traced message; returns false (and leaves
// the message untouched) when it carries no trace.
inline bool append_hop(jxta::Message& msg, std::string_view peer,
                       std::string_view stage, std::int64_t t_us) {
#if defined(P2P_OBS_DISABLED)
  (void)msg;
  (void)peer;
  (void)stage;
  (void)t_us;
  return false;
#else
  if (msg.find(kTraceIdElement) == nullptr) return false;
  std::vector<Hop> hops;
  if (const auto body = msg.get_bytes(kTraceHopsElement)) {
    hops = decode_hops(*body);
  }
  if (hops.size() >= kMaxHops) return false;
  hops.push_back(Hop{std::string(peer), std::string(stage), t_us});
  msg.set_bytes(std::string(kTraceHopsElement), encode_hops(hops));
  return true;
#endif
}

// Reads the trace carried by a message, if any.
inline std::optional<Trace> extract_trace(const jxta::Message& msg) {
  const auto id_bytes = msg.get_bytes(kTraceIdElement);
  Trace trace;
  if (!id_bytes || id_bytes->size() != 16 ||
      !util::ByteReader(*id_bytes).try_read_uuid(trace.id)) {
    return std::nullopt;
  }
  if (const auto body = msg.get_bytes(kTraceHopsElement)) {
    trace.hops = decode_hops(*body);
  }
  return trace;
}

}  // namespace p2p::obs
