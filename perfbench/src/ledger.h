// The correctness oracle: which (event, subscriber) pairs were delivered
// exactly once with the published value, plus the completion signal the
// benchmark waits on instead of polling.
//
// Every measured event has a sequence number in [0, events). The generator
// reports each publish outcome; subscriber callbacks report each arrival
// with whether it decoded to the published value and type. A pair fails
// when its publish was rejected or shed, or it arrived zero times, more
// than once, or with a wrong value. Arrivals naming no valid sequence
// number count as failures of their own ("strays").
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>

namespace perfbench {

struct Tally {
  std::uint64_t attempted = 0;  // (event, subscriber) pairs
  std::uint64_t failed = 0;
  std::uint64_t missing = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t publish_failed = 0;  // events whose publish failed
  std::uint64_t strays = 0;

  Tally& operator+=(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    missing += o.missing;
    duplicated += o.duplicated;
    corrupted += o.corrupted;
    publish_failed += o.publish_failed;
    strays += o.strays;
    return *this;
  }
};

class Ledger {
 public:
  Ledger(std::uint64_t events, int subscribers)
      : events_(events),
        subscribers_(subscribers),
        arrivals_(new std::atomic<std::uint8_t>[pairs()]),
        corrupt_(new std::atomic<bool>[pairs()]),
        complete_(new std::atomic<std::uint16_t>[events]),
        publish_failed_(new std::atomic<bool>[events]),
        done_ns_(new std::atomic<std::int64_t>[events]) {
    for (std::uint64_t i = 0; i < pairs(); ++i) {
      arrivals_[i].store(0, std::memory_order_relaxed);
      corrupt_[i].store(false, std::memory_order_relaxed);
    }
    for (std::uint64_t i = 0; i < events; ++i) {
      complete_[i].store(0, std::memory_order_relaxed);
      publish_failed_[i].store(false, std::memory_order_relaxed);
      done_ns_[i].store(0, std::memory_order_relaxed);
    }
  }

  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  [[nodiscard]] std::uint64_t events() const { return events_; }
  [[nodiscard]] std::uint64_t pairs() const {
    return events_ * static_cast<std::uint64_t>(subscribers_);
  }
  [[nodiscard]] int subscribers() const { return subscribers_; }

  // The publish of `seq` was rejected or shed: no subscriber can get it.
  void publish_failed(std::uint64_t seq) {
    publish_failed_[seq].store(true, std::memory_order_relaxed);
  }

  // One arrival of `seq` at `subscriber` at time `now_ns`. `intact` is
  // false when the value or type differs from what was published.
  void arrive(int subscriber, std::uint64_t seq, bool intact,
              std::int64_t now_ns) {
    if (seq >= events_ || subscriber < 0 || subscriber >= subscribers_) {
      strays_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const std::uint64_t pair = seq * static_cast<std::uint64_t>(subscribers_) +
                               static_cast<std::uint64_t>(subscriber);
    if (!intact) corrupt_[pair].store(true, std::memory_order_relaxed);
    // Saturates instead of wrapping: 255 arrivals is already a failure.
    std::uint8_t n = arrivals_[pair].load(std::memory_order_relaxed);
    while (n < 255 && !arrivals_[pair].compare_exchange_weak(
                          n, static_cast<std::uint8_t>(n + 1),
                          std::memory_order_relaxed)) {
    }
    if (n != 0 || !intact) return;
    // First intact arrival at this subscriber; the last subscriber to get
    // the event stamps its completion time.
    if (complete_[seq].fetch_add(1) + 1 ==
        static_cast<std::uint16_t>(subscribers_)) {
      done_ns_[seq].store(now_ns, std::memory_order_relaxed);
      const std::uint64_t done = completed_.fetch_add(1) + 1;
      if (done >= target_.load()) {
        const std::lock_guard lock(mu_);
        cv_.notify_all();
      }
    }
  }

  // Blocks until `count` events reached every subscriber, or `timeout`
  // passed. True when complete.
  bool wait_completed(std::uint64_t count, std::chrono::milliseconds timeout) {
    target_.store(count);
    std::unique_lock lock(mu_);
    const bool ok = cv_.wait_for(lock, timeout,
                                 [&] { return completed_.load() >= count; });
    target_.store(UINT64_MAX);
    return ok;
  }

  [[nodiscard]] std::uint64_t completed() const { return completed_.load(); }
  // When `seq` reached its last subscriber (0 if it never did).
  [[nodiscard]] std::int64_t done_ns(std::uint64_t seq) const {
    return done_ns_[seq].load(std::memory_order_relaxed);
  }

  // Accounts the pairs of events [from, to).
  [[nodiscard]] Tally tally(std::uint64_t from, std::uint64_t to) const {
    Tally t;
    const auto subs = static_cast<std::uint64_t>(subscribers_);
    for (std::uint64_t seq = from; seq < to && seq < events_; ++seq) {
      t.attempted += subs;
      if (publish_failed_[seq].load(std::memory_order_relaxed)) {
        ++t.publish_failed;
        t.failed += subs;
        continue;
      }
      for (std::uint64_t s = 0; s < subs; ++s) {
        const std::uint64_t pair = seq * subs + s;
        const std::uint8_t n = arrivals_[pair].load(std::memory_order_relaxed);
        const bool corrupt = corrupt_[pair].load(std::memory_order_relaxed);
        if (n == 0) ++t.missing;
        if (n > 1) ++t.duplicated;
        if (corrupt) ++t.corrupted;
        if (n != 1 || corrupt) ++t.failed;
      }
    }
    return t;
  }

  [[nodiscard]] std::uint64_t strays() const { return strays_.load(); }

  // Every pair of the run, strays included.
  [[nodiscard]] Tally total() const {
    Tally t = tally(0, events_);
    t.strays = strays();
    t.failed += t.strays;
    return t;
  }

 private:
  const std::uint64_t events_;
  const int subscribers_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> arrivals_;
  std::unique_ptr<std::atomic<bool>[]> corrupt_;
  std::unique_ptr<std::atomic<std::uint16_t>[]> complete_;
  std::unique_ptr<std::atomic<bool>[]> publish_failed_;
  std::unique_ptr<std::atomic<std::int64_t>[]> done_ns_;
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> strays_{0};
  std::atomic<std::uint64_t> target_{UINT64_MAX};
  std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace perfbench
