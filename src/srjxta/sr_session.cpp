#include "srjxta/sr_session.h"

#include "util/logging.h"

namespace p2p::srjxta {

namespace {
constexpr std::string_view kPayloadElement = "sr:payload";
constexpr std::string_view kEventIdElement = "sr:event-id";
}  // namespace

SrSession::SrSession(jxta::Peer& peer, std::string topic, SrConfig config)
    : peer_(peer),
      topic_(std::move(topic)),
      config_(config),
      creator_(peer, peer.discovery()),
      seen_(config.dedup_cache_size) {}

SrSession::~SrSession() { shutdown(); }

void SrSession::init() {
  {
    const util::MutexLock lock(mu_);
    if (shut_down_) throw util::StateError("session is shut down");
    if (initialized_) return;
  }
  finder_ = std::make_unique<AdvertisementsFinder>(
      peer_, jxta::DiscoveryType::kGroup, peer_.discovery(),
      std::string(kPsPrefix) + topic_);
  finder_->add_listener(this);
  finder_->start(config_.finder_period);

  util::MutexLock lock(mu_);
  const util::TimePoint deadline =
      util::SystemClock::instance().now() + config_.adv_search_timeout;
  while (bindings_.empty() && !shut_down_) {
    if (cv_.wait_until(mu_, deadline) == std::cv_status::timeout) break;
  }
  if (bindings_.empty() && !shut_down_) {
    lock.unlock();
    const jxta::PeerGroupAdvertisement own =
        creator_.create_peer_group_advertisement(topic_);
    creator_.publish_advertisement(own, config_.adv_lifetime_ms);
    handle_new_advertisements(own);
    lock.lock();
  }
  initialized_ = true;
}

void SrSession::shutdown() {
  std::vector<std::shared_ptr<Binding>> bindings;
  {
    const util::MutexLock lock(mu_);
    if (shut_down_) return;
    shut_down_ = true;
    bindings.swap(bindings_);
    receiver_ = nullptr;
  }
  cv_.notify_all();
  if (finder_) {
    finder_->remove_listener(this);
    finder_->stop();
  }
  for (const auto& b : bindings) {
    if (b->input) b->input->close();
    if (b->output) b->output->close();
  }
}

void SrSession::set_receiver(Receiver receiver) {
  const util::MutexLock lock(mu_);
  receiver_ = std::move(receiver);
}

void SrSession::handle_new_advertisements(
    const jxta::PeerGroupAdvertisement& adv) {
  const std::string key = adv.gid.to_string();
  {
    const util::MutexLock lock(mu_);
    if (shut_down_) return;
    if (AdvertisementsFinder::find_advertisement(
            [&] {
              std::vector<jxta::PeerGroupAdvertisement> known;
              known.reserve(bindings_.size());
              for (const auto& b : bindings_) known.push_back(b->adv);
              return known;
            }(),
            adv)) {
      return;
    }
    if (!adopting_.insert(key).second) return;
  }

  auto binding = std::make_shared<Binding>();
  binding->adv = adv;
  try {
    WireServiceFinder wsf(peer_, adv);
    wsf.lookup_wire_service();
    binding->group = wsf.wire_group();
    MyInputPipe in = wsf.create_input_pipe();
    binding->input = in.pipe;
    binding->output = wsf.create_output_pipe().pipe;
    std::weak_ptr<SrSession> weak = weak_from_this();
    binding->input->set_listener([weak](jxta::Message msg) {
      if (const auto self = weak.lock()) {
        self->on_wire_message(std::move(msg));
      }
    });
  } catch (const std::exception& e) {
    P2P_LOG(kWarn, "srjxta") << peer_.name() << ": cannot bind adv "
                             << adv.gid.to_string() << ": " << e.what();
    const util::MutexLock lock(mu_);
    adopting_.erase(key);
    return;
  }

  {
    const util::MutexLock lock(mu_);
    adopting_.erase(key);
    if (shut_down_) return;
    bindings_.push_back(std::move(binding));
  }
  cv_.notify_all();
}

void SrSession::publish(const util::Bytes& payload) {
  std::vector<std::shared_ptr<Binding>> bindings;
  {
    const util::MutexLock lock(mu_);
    if (!initialized_ || shut_down_) {
      throw util::StateError("session is not running");
    }
    bindings = bindings_;
  }
  const util::Uuid event_id = util::Uuid::generate();
  jxta::Message base;
  base.add_bytes(std::string(kPayloadElement), payload);
  util::ByteWriter idw;
  idw.write_uuid(event_id);
  base.add_bytes(std::string(kEventIdElement), idw.take());

  std::uint64_t sends = 0;
  for (const auto& b : bindings) {
    if (b->output && b->output->send(base.dup())) ++sends;
  }
  const util::MutexLock lock(mu_);
  ++stats_.published;
  stats_.wire_sends += sends;
}

void SrSession::on_wire_message(jxta::Message msg) {
  const auto id_bytes = msg.get_bytes(std::string(kEventIdElement));
  const auto payload = msg.get_bytes(std::string(kPayloadElement));
  if (!id_bytes || id_bytes->size() != 16 || !payload) return;
  util::Uuid event_id;
  util::ByteReader r(*id_bytes);
  if (!r.try_read_uuid(event_id)) return;
  Receiver receiver;
  {
    const util::MutexLock lock(mu_);
    if (shut_down_) return;
    if (seen_.test_and_set(event_id)) {
      ++stats_.duplicates_suppressed;
      return;
    }
    ++stats_.received_unique;
    receiver = receiver_;
  }
  if (receiver) {
    try {
      receiver(*payload);
    } catch (const std::exception& e) {
      // No TPS exception handler here: the hand-coded application is on its
      // own (which is the point of the comparison).
      P2P_LOG(kError, "srjxta") << "receiver threw: " << e.what();
    }
  }
}

SrStats SrSession::stats() const {
  const util::MutexLock lock(mu_);
  return stats_;
}

std::size_t SrSession::advertisement_count() const {
  const util::MutexLock lock(mu_);
  return bindings_.size();
}

}  // namespace p2p::srjxta
