// Stress and parameterized sweep tests: many peers, many types, big
// messages, cache overflow semantics, concurrent API use.
#include <gtest/gtest.h>

#include <atomic>

#include "events/news.h"
#include "events/ski_rental.h"
#include "srjxta/sr_session.h"
#include "support/test_net.h"
#include "support/timing.h"
#include "tps/tps.h"

namespace p2p {
namespace {

using events::SkiRental;
using testing::TestNet;
using testing::wait_until;

tps::TpsConfig fast_config() {
  tps::TpsConfig config;
  config.adv_search_timeout = std::chrono::milliseconds(300);
  config.finder_period = std::chrono::milliseconds(150);
  return config;
}

// --- population sweep -------------------------------------------------------------

class SubscriberCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(SubscriberCountSweep, EverySubscriberGetsEveryEvent) {
  const int n_subs = GetParam();
  TestNet net;
  std::vector<std::unique_ptr<tps::TpsInterface<SkiRental>>> subs;
  auto counts = std::make_shared<std::vector<std::atomic<int>>>(
      static_cast<std::size_t>(n_subs));
  for (int i = 0; i < n_subs; ++i) {
    jxta::Peer& peer = net.add_peer("sub" + std::to_string(i));
    tps::TpsEngine<SkiRental> engine(peer, fast_config());
    subs.push_back(std::make_unique<tps::TpsInterface<SkiRental>>(
        engine.new_interface()));
    // Capture the shared_ptr, not a raw slot pointer: `counts` is declared
    // after `subs`, so it is destroyed first while late deliveries may still
    // be in flight.
    subs.back()->subscribe(
        tps::make_callback<SkiRental>([counts, i](const SkiRental&) {
          ++(*counts)[static_cast<std::size_t>(i)];
        }),
        tps::ignore_exceptions<SkiRental>());
  }
  jxta::Peer& pub_peer = net.add_peer("pub");
  tps::TpsEngine<SkiRental> pub_engine(pub_peer, fast_config());
  auto pub = pub_engine.new_interface();
  constexpr int kEvents = 20;
  for (int i = 0; i < kEvents; ++i) {
    pub.publish(SkiRental("S", static_cast<float>(i), "B", 1));
  }
  EXPECT_TRUE(wait_until([&] {
    for (const auto& c : *counts) {
      if (c < kEvents) return false;
    }
    return true;
  }));
  p2p::testing::settle(std::chrono::milliseconds(200));
  for (const auto& c : *counts) EXPECT_EQ(c, kEvents);  // exactly once
}

INSTANTIATE_TEST_SUITE_P(Populations, SubscriberCountSweep,
                         ::testing::Values(1, 2, 4, 8));

// --- message size sweep -------------------------------------------------------------

class MessageSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(MessageSizeSweep, PayloadSurvivesTransitIntact) {
  const auto size = static_cast<std::size_t>(GetParam());
  TestNet net;
  jxta::Peer& sub_peer = net.add_peer("sub");
  jxta::Peer& pub_peer = net.add_peer("pub");
  tps::TpsEngine<SkiRental> sub_engine(sub_peer, fast_config());
  auto sub = sub_engine.new_interface();
  std::mutex mu;
  std::optional<SkiRental> got;
  sub.subscribe(tps::make_callback<SkiRental>([&](const SkiRental& e) {
                  const std::lock_guard lock(mu);
                  got = e;
                }),
                tps::ignore_exceptions<SkiRental>());
  tps::TpsEngine<SkiRental> pub_engine(pub_peer, fast_config());
  auto pub = pub_engine.new_interface();
  const SkiRental big(std::string(size, 'S'), 1.5f, std::string(size, 'B'),
                      9.0f);
  pub.publish(big);
  ASSERT_TRUE(wait_until([&] {
    const std::lock_guard lock(mu);
    return got.has_value();
  }));
  const std::lock_guard lock(mu);
  EXPECT_EQ(*got, big);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MessageSizeSweep,
                         ::testing::Values(0, 1, 1910, 65536, 1 << 20));

// --- many types on one peer ------------------------------------------------------------

TEST(ManyTypesTest, IndependentTopicsDoNotCross) {
  using events::News;
  using events::SkiNews;
  TestNet net;
  jxta::Peer& alice = net.add_peer("alice");
  jxta::Peer& bob = net.add_peer("bob");

  tps::TpsEngine<SkiRental> rental_engine_a(alice, fast_config());
  auto rental_sub = rental_engine_a.new_interface();
  std::atomic<int> rentals{0};
  rental_sub.subscribe(
      tps::make_callback<SkiRental>([&](const SkiRental&) { ++rentals; }),
      tps::ignore_exceptions<SkiRental>());

  serial::register_event_with_ancestors<SkiNews>();
  tps::TpsEngine<News> news_engine_a(alice, fast_config());
  auto news_sub = news_engine_a.new_interface();
  std::atomic<int> news{0};
  news_sub.subscribe(
      tps::make_callback<News>([&](const News&) { ++news; }),
      tps::ignore_exceptions<News>());

  tps::TpsEngine<SkiRental> rental_engine_b(bob, fast_config());
  auto rental_pub = rental_engine_b.new_interface();
  tps::TpsEngine<News> news_engine_b(bob, fast_config());
  auto news_pub = news_engine_b.new_interface();

  for (int i = 0; i < 5; ++i) {
    rental_pub.publish(SkiRental("S", 1, "B", 1));
    news_pub.publish(News("h", "b"));
  }
  EXPECT_TRUE(wait_until([&] { return rentals == 5 && news == 5; }));
  p2p::testing::settle(std::chrono::milliseconds(200));
  EXPECT_EQ(rentals, 5);
  EXPECT_EQ(news, 5);
}

// --- dedup cache overflow semantics ----------------------------------------------------

TEST(DedupOverflowTest, TinyCacheStillSuppressesAdjacentDuplicates) {
  // The dedup memory is bounded; copies of one event arrive close together
  // (they are sent back-to-back on the different wires), so even a small
  // cache suppresses them. Force the 2-advertisement world and a cache of
  // 4 entries, then check exactly-once delivery still holds for a burst
  // much longer than the cache.
  TestNet net;
  jxta::Peer& alice = net.add_peer("alice");
  jxta::Peer& bob = net.add_peer("bob");
  net.fabric().partition("alice", "bob");
  tps::TpsConfig config = fast_config();
  config.adv_search_timeout = std::chrono::milliseconds(1);
  config.dedup_cache_size = 4;
  tps::TpsEngine<SkiRental> engine_a(alice, config);
  tps::TpsEngine<SkiRental> engine_b(bob, config);
  auto sub = engine_a.new_interface();
  auto pub = engine_b.new_interface();
  net.fabric().heal("alice", "bob");
  ASSERT_TRUE(wait_until([&] {
    return sub.advertisement_count() == 2 && pub.advertisement_count() == 2;
  }));
  std::atomic<int> got{0};
  sub.subscribe(
      tps::make_callback<SkiRental>([&](const SkiRental&) { ++got; }),
      tps::ignore_exceptions<SkiRental>());
  constexpr int kEvents = 50;
  for (int i = 0; i < kEvents; ++i) {
    pub.publish(SkiRental("S", static_cast<float>(i), "B", 1));
  }
  ASSERT_TRUE(wait_until([&] { return got >= kEvents; }));
  p2p::testing::settle(std::chrono::milliseconds(300));
  EXPECT_EQ(got, kEvents);

  // The hand-coded SR-JXTA baseline dedups with the same ring: same world,
  // same 4-entry cache, same exactly-once result.
  TestNet sr_net;
  jxta::Peer& carol = sr_net.add_peer("carol");
  jxta::Peer& dave = sr_net.add_peer("dave");
  sr_net.fabric().partition("carol", "dave");
  srjxta::SrConfig sr_config;
  sr_config.adv_search_timeout = std::chrono::milliseconds(1);
  sr_config.finder_period = std::chrono::milliseconds(150);
  sr_config.dedup_cache_size = 4;
  auto sr_sub = std::make_shared<srjxta::SrSession>(carol, "Tiny", sr_config);
  auto sr_pub = std::make_shared<srjxta::SrSession>(dave, "Tiny", sr_config);
  sr_sub->init();
  sr_pub->init();
  sr_net.fabric().heal("carol", "dave");
  ASSERT_TRUE(wait_until([&] {
    return sr_sub->advertisement_count() == 2 &&
           sr_pub->advertisement_count() == 2;
  }));
  std::atomic<int> sr_got{0};
  sr_sub->set_receiver([&](const util::Bytes&) { ++sr_got; });
  for (int i = 0; i < kEvents; ++i) {
    sr_pub->publish({static_cast<std::uint8_t>(i)});
  }
  ASSERT_TRUE(wait_until([&] { return sr_got >= kEvents; }));
  p2p::testing::settle(std::chrono::milliseconds(300));
  EXPECT_EQ(sr_got, kEvents);
  EXPECT_GT(sr_sub->stats().duplicates_suppressed, 0u);
  sr_sub->shutdown();  // no late delivery may touch sr_got past this line
  sr_pub->shutdown();
}

// --- concurrent API use -------------------------------------------------------------------

TEST(ConcurrencyTest, ParallelPublishersOnOneInterface) {
  TestNet net;
  jxta::Peer& sub_peer = net.add_peer("sub");
  jxta::Peer& pub_peer = net.add_peer("pub");
  tps::TpsEngine<SkiRental> sub_engine(sub_peer, fast_config());
  auto sub = sub_engine.new_interface();
  std::atomic<int> got{0};
  sub.subscribe(
      tps::make_callback<SkiRental>([&](const SkiRental&) { ++got; }),
      tps::ignore_exceptions<SkiRental>());
  tps::TpsEngine<SkiRental> pub_engine(pub_peer, fast_config());
  auto pub = pub_engine.new_interface();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pub] {
      for (int i = 0; i < kPerThread; ++i) {
        pub.publish(SkiRental("S", static_cast<float>(i), "B", 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(wait_until([&] { return got == kThreads * kPerThread; }));
  EXPECT_EQ(pub.stats().published,
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(ConcurrencyTest, SubscribeUnsubscribeWhileTrafficFlows) {
  TestNet net;
  jxta::Peer& sub_peer = net.add_peer("sub");
  jxta::Peer& pub_peer = net.add_peer("pub");
  tps::TpsEngine<SkiRental> sub_engine(sub_peer, fast_config());
  auto sub = sub_engine.new_interface();
  tps::TpsEngine<SkiRental> pub_engine(pub_peer, fast_config());
  auto pub = pub_engine.new_interface();

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    for (int i = 0; !stop; ++i) {
      pub.publish(SkiRental("S", static_cast<float>(i), "B", 1));
      p2p::testing::settle(std::chrono::milliseconds(1));
    }
  });
  // Churn subscriptions concurrently with delivery.
  std::atomic<int> got{0};
  for (int round = 0; round < 30; ++round) {
    auto cb = tps::make_callback<SkiRental>(
        [&](const SkiRental&) { ++got; });
    auto eh = tps::ignore_exceptions<SkiRental>();
    sub.subscribe(cb, eh);
    p2p::testing::settle(std::chrono::milliseconds(5));
    sub.unsubscribe(cb, eh);
  }
  stop = true;
  publisher.join();
  SUCCEED();  // the invariant is "no crash, no deadlock, no exception"
}

TEST(ConcurrencyTest, ManyEnginesCreatedAndDestroyedConcurrently) {
  TestNet net;
  jxta::Peer& peer = net.add_peer("peer");
  std::vector<std::thread> threads;
  std::atomic<int> completed{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5; ++i) {
        tps::TpsConfig config = fast_config();
        config.adv_search_timeout = std::chrono::milliseconds(50);
        tps::TpsEngine<SkiRental> engine(peer, config);
        auto tps_if = engine.new_interface();
        tps_if.publish(SkiRental("S", 1, "B", 1));
        ++completed;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(completed, 20);
}

// --- churn under load ---------------------------------------------------------------------

TEST(FabricChurnTest, PeersDetachingMidTrafficDoNotWedgeOthers) {
  TestNet net;
  jxta::Peer& sub_peer = net.add_peer("sub");
  jxta::Peer& pub_peer = net.add_peer("pub");
  tps::TpsEngine<SkiRental> sub_engine(sub_peer, fast_config());
  auto sub = sub_engine.new_interface();
  std::atomic<int> got{0};
  sub.subscribe(
      tps::make_callback<SkiRental>([&](const SkiRental&) { ++got; }),
      tps::ignore_exceptions<SkiRental>());
  tps::TpsEngine<SkiRental> pub_engine(pub_peer, fast_config());
  auto pub = pub_engine.new_interface();

  // Bystanders come and go while events flow.
  for (int round = 0; round < 3; ++round) {
    auto transient = std::make_unique<jxta::Peer>(jxta::PeerConfig{
        .name = "transient",
        .heartbeat = std::chrono::milliseconds(50)});
    transient->add_transport(std::make_shared<net::InProcTransport>(
        net.fabric(), "transient" + std::to_string(round)));
    transient->start();
    for (int i = 0; i < 10; ++i) {
      pub.publish(SkiRental("S", static_cast<float>(i), "B", 1));
    }
    transient->stop();
  }
  EXPECT_TRUE(wait_until([&] { return got == 30; }));
}

}  // namespace
}  // namespace p2p
