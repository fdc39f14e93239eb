// Request/reply on top of TPS: the paper's §6 "future work" combination.
//
// "We can for example easily see through our ski-rental application that
// our TPS API does not enable a subscriber to immediately reply to a
// publisher that posted an interesting event. This would require a
// combination with a more traditional RPC kind of interaction or directly
// using the underlying P2P library." (paper §6)
//
// This header implements that combination WITHOUT giving up decoupling on
// the request path:
//   * the request is a normal TPS event, wrapped in RequestEnvelope<T>
//     that also carries a unicast reply-pipe id and a request id;
//   * any number of anonymous responders may answer; each reply flows back
//     over a JXTA unicast pipe (resolved via PBP — the RPC-ish leg), typed
//     and deserialized through the same EventTraits machinery.
//
// The publisher stays unaware of responders (space decoupling) and is not
// blocked (flow decoupling); only the reply leg is addressed — at a pipe,
// not a peer, so responders survive the requester changing addresses.
#pragma once

#include <array>
#include <map>

#include "tps/engine.h"
#include "util/logging.h"
#include "util/thread_annotations.h"

namespace p2p::tps {

namespace detail {

// Compile-time string concatenation for the envelope's type name.
template <std::size_t N, std::size_t M>
constexpr std::array<char, N + M - 1> concat(const char (&a)[N],
                                             std::string_view b) {
  std::array<char, N + M - 1> out{};
  std::size_t i = 0;
  for (; i + 1 < N; ++i) out[i] = a[i];
  for (std::size_t j = 0; j < b.size() && j < M - 1; ++j) out[i + j] = b[j];
  return out;
}

}  // namespace detail

// A request event: the user's event plus the reply path.
template <serial::EventType T>
class RequestEnvelope final : public serial::Event {
 public:
  RequestEnvelope() = default;
  RequestEnvelope(T inner, jxta::PipeId reply_pipe, util::Uuid request_id)
      : inner_(std::move(inner)),
        reply_pipe_(reply_pipe),
        request_id_(request_id) {}

  [[nodiscard]] const T& inner() const { return inner_; }
  [[nodiscard]] const jxta::PipeId& reply_pipe() const { return reply_pipe_; }
  [[nodiscard]] const util::Uuid& request_id() const { return request_id_; }

 private:
  T inner_;
  jxta::PipeId reply_pipe_;
  util::Uuid request_id_;
};

}  // namespace p2p::tps

namespace p2p::serial {

template <EventType T>
struct EventTraits<tps::RequestEnvelope<T>> {
  // "Request:<InnerType>" — a distinct topic per request type, so
  // responders for ski quotes never see unrelated requests.
  static constexpr auto kNameStorage =
      tps::detail::concat<9, 120>("Request:", EventTraits<T>::kTypeName);
  static constexpr std::string_view kTypeName{
      kNameStorage.data(), 8 + EventTraits<T>::kTypeName.size()};
  using Parent = NoParent;

  static void encode(const tps::RequestEnvelope<T>& e, util::ByteWriter& w) {
    w.write_uuid(e.reply_pipe().uuid());
    w.write_uuid(e.request_id());
    EventTraits<T>::encode(e.inner(), w);
  }
  static tps::RequestEnvelope<T> decode(util::ByteReader& r) {
    const jxta::PipeId pipe{util::Uuid{r.read_u64(), r.read_u64()}};
    const util::Uuid request_id{r.read_u64(), r.read_u64()};
    T inner = EventTraits<T>::decode(r);
    return {std::move(inner), pipe, request_id};
  }
};

}  // namespace p2p::serial

namespace p2p::tps {

// The requesting side: publish a request, collect typed replies.
template <serial::EventType T, serial::EventType R>
class Requester {
 public:
  using ReplyHandler = std::function<void(const R&)>;

  Requester(jxta::Peer& peer, TpsConfig config = {})
      : peer_(peer) {
    serial::register_event_with_ancestors<R>();
    // The private reply pipe (unicast; id is fresh per requester).
    jxta::PipeAdvertisement reply_adv;
    reply_adv.pid = jxta::PipeId::generate();
    reply_adv.name = "tps-reply";
    reply_adv.type = jxta::PipeAdvertisement::Type::kUnicast;
    reply_pipe_id_ = reply_adv.pid;
    input_ = peer.pipes().create_input_pipe(reply_adv);
    input_->set_listener([this](jxta::Message msg) { on_reply(msg); });

    TpsEngine<RequestEnvelope<T>> engine(peer, config);
    interface_.emplace(engine.new_interface());
  }

  ~Requester() {
    if (input_) input_->close();
  }

  Requester(const Requester&) = delete;
  Requester& operator=(const Requester&) = delete;

  // Publishes the request; on_reply fires once per responder answer (on
  // the peer's dispatcher). Returns the request id.
  util::Uuid request(const T& event, ReplyHandler on_reply) EXCLUDES(mu_) {
    const util::Uuid id = util::Uuid::generate();
    {
      const util::MutexLock lock(mu_);
      pending_[id] = std::move(on_reply);
    }
    interface_->publish(std::make_shared<const RequestEnvelope<T>>(
        event, reply_pipe_id_, id));
    return id;
  }

  // Stops routing replies for the request (late answers are dropped).
  void forget(const util::Uuid& request_id) EXCLUDES(mu_) {
    const util::MutexLock lock(mu_);
    pending_.erase(request_id);
  }

  [[nodiscard]] std::size_t pending_count() const EXCLUDES(mu_) {
    const util::MutexLock lock(mu_);
    return pending_.size();
  }

 private:
  void on_reply(const jxta::Message& msg) EXCLUDES(mu_) {
    const auto id_bytes = msg.get_bytes("tps:request-id");
    const auto payload = msg.get_bytes("tps:reply");
    util::Uuid id;
    if (!id_bytes || id_bytes->size() != 16 || !payload ||
        !util::ByteReader(*id_bytes).try_read_uuid(id)) {
      return;
    }
    ReplyHandler handler;
    {
      const util::MutexLock lock(mu_);
      const auto it = pending_.find(id);
      if (it == pending_.end()) return;
      handler = it->second;  // keep registered: many responders may answer
    }
    try {
      const auto decoded =
          serial::TypeRegistry::global().decode_tagged(*payload);
      if (const auto typed =
              std::dynamic_pointer_cast<const R>(decoded.event)) {
        handler(*typed);
      }
    } catch (const std::exception& e) {
      P2P_LOG(kWarn, "tps.reply") << "dropping bad reply: " << e.what();
    }
  }

  jxta::Peer& peer_;
  jxta::PipeId reply_pipe_id_;
  std::shared_ptr<jxta::InputPipe> input_;
  std::optional<TpsInterface<RequestEnvelope<T>>> interface_;
  mutable util::Mutex mu_{"tps-requester"};
  std::map<util::Uuid, ReplyHandler> pending_ GUARDED_BY(mu_);
};

// The responding side: a handler that may answer each request.
template <serial::EventType T, serial::EventType R>
class Responder {
 public:
  // Returning nullopt declines to answer (other responders still can).
  using Handler = std::function<std::optional<R>(const T&)>;

  Responder(jxta::Peer& peer, Handler handler, TpsConfig config = {})
      : peer_(peer),
        handler_(std::move(handler)),
        replier_(peer.name() + ".replier") {
    serial::register_event_with_ancestors<R>();
    TpsEngine<RequestEnvelope<T>> engine(peer, config);
    interface_.emplace(engine.new_interface());
    interface_->subscribe(
        make_callback<RequestEnvelope<T>>(
            [this](const RequestEnvelope<T>& request) {
              on_request(request);
            }),
        ignore_exceptions<RequestEnvelope<T>>());
  }

  Responder(const Responder&) = delete;
  Responder& operator=(const Responder&) = delete;

  ~Responder() {
    if (interface_) interface_->unsubscribe();
    replier_.stop();
  }

  [[nodiscard]] std::uint64_t answered() const { return answered_; }

 private:
  void on_request(const RequestEnvelope<T>& request) {
    std::optional<R> reply;
    try {
      reply = handler_(request.inner());
    } catch (const std::exception& e) {
      P2P_LOG(kWarn, "tps.reply") << "handler threw: " << e.what();
      return;
    }
    if (!reply) return;
    // PBP resolution blocks, and we are on the peer dispatcher — hand the
    // reply leg to the responder's own thread.
    const jxta::PipeId pipe_id = request.reply_pipe();
    const util::Uuid request_id = request.request_id();
    const util::Bytes payload =
        serial::TypeRegistry::global().encode_tagged(*reply);
    replier_.post([this, pipe_id, request_id, payload] {
      send_reply(pipe_id, request_id, payload);
    });
  }

  void send_reply(const jxta::PipeId& pipe_id, const util::Uuid& request_id,
                  const util::Bytes& payload) EXCLUDES(mu_) {
    std::shared_ptr<jxta::OutputPipe> pipe;
    {
      const util::MutexLock lock(mu_);
      const auto it = reply_pipes_.find(pipe_id);
      if (it != reply_pipes_.end()) pipe = it->second;
    }
    if (!pipe) {
      jxta::PipeAdvertisement adv;
      adv.pid = pipe_id;
      adv.name = "tps-reply";
      adv.type = jxta::PipeAdvertisement::Type::kUnicast;
      pipe = peer_.pipes().create_output_pipe(
          adv, std::chrono::milliseconds(3000));
      const util::MutexLock lock(mu_);
      reply_pipes_[pipe_id] = pipe;
    }
    jxta::Message msg;
    util::ByteWriter idw;
    idw.write_uuid(request_id);
    msg.add_bytes("tps:request-id", idw.take());
    msg.add_bytes("tps:reply", payload);
    if (pipe->send(msg)) ++answered_;
  }

  jxta::Peer& peer_;
  Handler handler_;
  util::SerialExecutor replier_;
  std::optional<TpsInterface<RequestEnvelope<T>>> interface_;
  util::Mutex mu_{"tps-responder"};
  std::map<jxta::PipeId, std::shared_ptr<jxta::OutputPipe>> reply_pipes_
      GUARDED_BY(mu_);
  std::atomic<std::uint64_t> answered_{0};
};

}  // namespace p2p::tps
