#include "jxta/wire.h"

#include "util/logging.h"

namespace p2p::jxta {

// --- WireInputPipe ------------------------------------------------------------

WireInputPipe::WireInputPipe(WireService& service, PipeAdvertisement adv)
    : service_(service),
      adv_(std::move(adv)),
      recv_latency_us_(service.endpoint_.metrics().histogram(
          "jxta.pipe.recv_latency_us")) {}

WireInputPipe::~WireInputPipe() { close(); }

namespace {
// The wire pipe whose listener the current thread is inside, if any. Lets
// a listener close its own pipe without deadlocking the quiescence wait.
thread_local const WireInputPipe* t_delivering_wire = nullptr;
}  // namespace

void WireInputPipe::set_listener(Listener listener) {
  std::vector<Message> backlog;
  {
    const util::MutexLock lock(mu_);
    listener_ = std::move(listener);
    if (listener_) {
      while (auto m = queue_.try_pop()) backlog.push_back(std::move(*m));
    }
  }
  // Invoke with mu_ released: the listener may close this very pipe.
  for (auto& m : backlog) {
    Listener current;
    {
      const util::MutexLock lock(mu_);
      if (closed_) return;
      current = listener_;
      if (current) ++delivering_;
    }
    if (!current) return;
    const WireInputPipe* prev = t_delivering_wire;
    t_delivering_wire = this;
    current(std::move(m));
    t_delivering_wire = prev;
    const util::MutexLock lock(mu_);
    if (--delivering_ == 0) idle_cv_.notify_all();
  }
}

std::optional<Message> WireInputPipe::poll(util::Duration timeout) {
  return queue_.pop_for(timeout);
}

void WireInputPipe::deliver(Message msg) {
  Listener listener;
  {
    const util::MutexLock lock(mu_);
    if (closed_) return;
    listener = listener_;
    if (listener) ++delivering_;
  }
  if (listener) {
    // Publisher timestamp, read before the message is consumed: peers in
    // one process share the steady-clock timebase, so first-hop-to-return
    // is the end-to-end receive latency including any listener stall.
    std::int64_t t0 = -1;
    if (const auto trace = obs::extract_trace(msg);
        trace && !trace->hops.empty()) {
      t0 = trace->hops.front().t_us;
    }
    const WireInputPipe* prev = t_delivering_wire;
    t_delivering_wire = this;
    listener(std::move(msg));
    t_delivering_wire = prev;
    if (t0 >= 0) {
      recv_latency_us_.record(static_cast<double>(obs::now_us() - t0));
    }
    const util::MutexLock lock(mu_);
    if (--delivering_ == 0) idle_cv_.notify_all();
  } else {
    queue_.push(std::move(msg));
  }
}

void WireInputPipe::close() {
  {
    util::MutexLock lock(mu_);
    closed_ = true;
    // Quiescence: after close() returns the listener is never running
    // (except when a listener closes the pipe it is being called from).
    // Every close() waits, even a repeated one.
    const int self = t_delivering_wire == this ? 1 : 0;
    while (delivering_ > self) idle_cv_.wait(mu_);
  }
  queue_.close();
  service_.drop_input(this);
}

// --- WireOutputPipe ------------------------------------------------------------

WireOutputPipe::WireOutputPipe(WireService& service, PipeAdvertisement adv)
    : service_(service), adv_(std::move(adv)) {}

WireOutputPipe::~WireOutputPipe() { close(); }

bool WireOutputPipe::send(Message msg) {
  if (closed_) return false;
  service_.publish_on_wire(adv_.pid, std::move(msg));
  return true;
}

void WireOutputPipe::close() { closed_ = true; }

// --- WireService ----------------------------------------------------------------

WireService::WireService(PeerGroupId gid, EndpointService& endpoint,
                         RendezvousService& rendezvous)
    : gid_(gid),
      endpoint_(endpoint),
      rendezvous_(rendezvous),
      published_(endpoint.metrics().counter("jxta.wire.published")),
      received_(endpoint.metrics().counter("jxta.wire.received")),
      delivered_(endpoint.metrics().counter("jxta.wire.delivered")),
      decode_errors_(endpoint.metrics().counter("jxta.decode_errors")),
      e2e_latency_us_(
          endpoint.metrics().histogram("jxta.wire.e2e_latency_us")) {}

WireService::~WireService() { stop(); }

std::string WireService::listener_name() const {
  return "jxta.wire." + gid_.to_string();
}

void WireService::start() {
  {
    const util::MutexLock lock(mu_);
    if (started_) return;
    started_ = true;
  }
  endpoint_.register_listener(listener_name(), [this](EndpointMessage msg) {
    on_wire_message(std::move(msg));
  });
}

void WireService::stop() {
  {
    const util::MutexLock lock(mu_);
    if (!started_) return;
    started_ = false;
  }
  endpoint_.unregister_listener(listener_name());
}

std::shared_ptr<WireInputPipe> WireService::create_input_pipe(
    const PipeAdvertisement& adv) {
  auto pipe = std::shared_ptr<WireInputPipe>(new WireInputPipe(*this, adv));
  const util::MutexLock lock(mu_);
  auto& pipes = inputs_[adv.pid];
  std::erase_if(pipes, [](const auto& w) { return w.expired(); });
  pipes.push_back(pipe);
  return pipe;
}

std::shared_ptr<WireOutputPipe> WireService::create_output_pipe(
    const PipeAdvertisement& adv) {
  return std::shared_ptr<WireOutputPipe>(new WireOutputPipe(*this, adv));
}

ServiceAdvertisement WireService::make_service_advertisement(
    const PipeAdvertisement& pipe) {
  ServiceAdvertisement svc;
  svc.name = std::string(kWireName);
  svc.version = std::string(kWireVersion);
  svc.uri = std::string(kWireUri);
  svc.code = std::string(kWireCode);
  svc.security = std::string(kWireSecurity);
  svc.keywords = pipe.name;
  svc.pipe = pipe;
  return svc;
}

void WireService::publish_on_wire(const PipeId& id, Message msg) {
  published_.inc();
  // Stamp our hop onto the (moved-in) message that leaves the peer; a
  // message already traced by the layer above (TPS) keeps its trace id.
  obs::append_hop(msg, endpoint_.local_peer().to_string(), "wire-send",
                  obs::now_us());
  util::ByteWriter w;
  w.write_uuid(id.uuid());
  w.write_bytes(msg.serialize());
  // Remote members via rendezvous propagation (and LAN multicast)...
  rendezvous_.propagate(listener_name(), w.take());
  // ...and local wire input pipes directly (propagation skips the origin).
  deliver_local(id, msg);
}

void WireService::on_wire_message(EndpointMessage msg) {
  // Trust boundary: the payload arrived through rendezvous propagation.
  // Non-throwing decode — a malformed frame is a counted drop, never an
  // exception on the delivery thread.
  util::ByteReader r(msg.payload);
  util::Uuid pipe;
  util::Bytes body;
  if (!r.try_read_uuid(pipe) || !r.try_read_bytes(body)) {
    decode_errors_.inc();
    P2P_LOG(kWarn, "wire") << "malformed wire frame ("
                           << util::to_string(r.error()) << ")";
    return;
  }
  const PipeId id{pipe};
  auto wire_msg = Message::try_deserialize(body);
  if (!wire_msg) {
    decode_errors_.inc();
    P2P_LOG(kWarn, "wire") << "malformed wire message";
    return;
  }
  received_.inc();
  const std::int64_t now = obs::now_us();
  if (const auto trace = obs::extract_trace(*wire_msg);
      trace && !trace->hops.empty()) {
    e2e_latency_us_.record(
        static_cast<double>(now - trace->hops.front().t_us));
  }
  obs::append_hop(*wire_msg, endpoint_.local_peer().to_string(), "wire-recv",
                  now);
  deliver_local(id, *wire_msg);
}

void WireService::deliver_local(const PipeId& id, const Message& msg) {
  std::vector<std::shared_ptr<WireInputPipe>> pipes;
  {
    const util::MutexLock lock(mu_);
    const auto it = inputs_.find(id);
    if (it != inputs_.end()) {
      for (const auto& w : it->second) {
        if (auto p = w.lock()) pipes.push_back(std::move(p));
      }
    }
  }
  for (const auto& p : pipes) {
    delivered_.inc();
    p->deliver(msg);
  }
}

void WireService::drop_input(const WireInputPipe* pipe) {
  const util::MutexLock lock(mu_);
  const auto it = inputs_.find(pipe->advertisement().pid);
  if (it == inputs_.end()) return;
  std::erase_if(it->second, [&](const auto& w) {
    const auto p = w.lock();
    return !p || p.get() == pipe;
  });
  if (it->second.empty()) inputs_.erase(it);
}

}  // namespace p2p::jxta
