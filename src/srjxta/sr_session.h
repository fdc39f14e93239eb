// SrSession: the SR-JXTA application core.
//
// This is what the paper's §4.4 application must hand-assemble out of
// AdvertisementsCreator + AdvertisementsFinder + WireServiceFinder to match
// the TPS layer's functionality (§4.4 footnote):
//   (1) minimization of the number of advertisements for the same type,
//   (2) management of multiple advertisements at the same time,
//   (3) handling of duplicate messages,
// — but with *no type safety*: the payload is raw bytes the application
// serializes and casts itself (the very runtime-cast burden TPS removes).
#pragma once

#include <unordered_set>

#include "srjxta/advertisements_creator.h"
#include "srjxta/advertisements_finder.h"
#include "srjxta/wire_service_finder.h"
#include "util/dedup_ring.h"
#include "util/thread_annotations.h"

namespace p2p::srjxta {

struct SrConfig {
  util::Duration adv_search_timeout{1500};
  util::Duration finder_period{2000};
  // 0 disables duplicate suppression (ablation).
  std::size_t dedup_cache_size = 8192;
  std::int64_t adv_lifetime_ms = jxta::kDefaultAdvLifetimeMs;
};

struct SrStats {
  std::uint64_t published = 0;
  std::uint64_t wire_sends = 0;
  std::uint64_t received_unique = 0;
  std::uint64_t duplicates_suppressed = 0;
};

class SrSession final : public AdvertisementsListenerInterface,
                        public std::enable_shared_from_this<SrSession> {
 public:
  // Receives the raw payload of each (deduplicated) event. The application
  // must deserialize — and gets no help if it guesses the type wrong.
  using Receiver = std::function<void(const util::Bytes&)>;

  // topic is the type name in the TPS version; on the wire the two
  // implementations are compatible (same PS_ advertisement naming).
  SrSession(jxta::Peer& peer, std::string topic, SrConfig config = {});
  ~SrSession() override;

  // Initialization phase: search for an existing PS_<topic> advertisement;
  // create one if none shows up in time; keep finding more. Blocking; not
  // callable from peer callbacks.
  void init() EXCLUDES(mu_);
  void shutdown() EXCLUDES(mu_);

  void set_receiver(Receiver receiver) EXCLUDES(mu_);

  // Sends payload once per bound advertisement (functionality (2)); the
  // receivers' dedup (functionality (3)) collapses the copies.
  void publish(const util::Bytes& payload) EXCLUDES(mu_);

  [[nodiscard]] SrStats stats() const EXCLUDES(mu_);
  [[nodiscard]] std::size_t advertisement_count() const EXCLUDES(mu_);

  // AdvertisementsListenerInterface.
  void handle_new_advertisements(
      const jxta::PeerGroupAdvertisement& adv) override;

 private:
  struct Binding {
    jxta::PeerGroupAdvertisement adv;
    std::shared_ptr<jxta::PeerGroup> group;
    std::shared_ptr<jxta::WireInputPipe> input;
    std::shared_ptr<jxta::WireOutputPipe> output;
  };

  void on_wire_message(jxta::Message msg) EXCLUDES(mu_);

  jxta::Peer& peer_;
  const std::string topic_;
  const SrConfig config_;
  AdvertisementsCreator creator_;
  std::unique_ptr<AdvertisementsFinder> finder_;

  mutable util::Mutex mu_{"sr-session"};
  util::CondVar cv_;
  bool initialized_ GUARDED_BY(mu_) = false;
  bool shut_down_ GUARDED_BY(mu_) = false;
  std::vector<std::shared_ptr<Binding>> bindings_ GUARDED_BY(mu_);
  std::unordered_set<std::string> adopting_ GUARDED_BY(mu_);
  Receiver receiver_ GUARDED_BY(mu_);
  // Functionality (3): the same ring that backs TPS duplicate suppression,
  // so SR-JXTA vs SR-TPS compares layers, not data structures.
  util::DedupRing seen_ GUARDED_BY(mu_);
  SrStats stats_ GUARDED_BY(mu_);
};

}  // namespace p2p::srjxta
