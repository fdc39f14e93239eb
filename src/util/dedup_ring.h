// DedupRing: fixed-capacity duplicate-suppression memory with O(1) probes.
//
// Every duplicate-suppression site of the stack — rendezvous propagation
// loop suppression (jxta/rendezvous.h), TPS exactly-once delivery
// (tps/session.h, SR functionality (3)) and the SR-JXTA baseline
// (srjxta/sr_session.h) — needs the same primitive: "have I seen this
// 128-bit id among the last N?". A set beside an insertion-order list
// answers it too, but costs a node allocation per insert and hashes twice
// on the eviction path, so this is the one structure all three use
// (tools/lint.py's dedup-structure check keeps it that way).
//
// The most recent `capacity` distinct ids are remembered, FIFO eviction,
// in two flat pre-allocated arrays:
//   * an open-addressed linear-probing table (load factor <= 1/2, so the
//     expected probe chain is ~1.5 slots) holding the ids, and
//   * a circular buffer recording insertion order for eviction.
// Eviction removes the oldest id from the table with backward-shift
// deletion (no tombstones, so probe chains never degrade over time).
// test_and_set() is a handful of cache lines and never allocates.
//
// Not thread-safe: callers guard it with their own mutex.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/uuid.h"

namespace p2p::util {

class DedupRing {
 public:
  // Remembers up to `capacity` ids. Capacity 0 disables the ring entirely
  // (test_and_set never reports a duplicate), matching "suppression off".
  explicit DedupRing(std::size_t capacity)
      : capacity_(capacity), mask_(table_size(capacity) - 1) {
    if (capacity_ > 0) {
      slots_.resize(mask_ + 1);
      ring_.resize(capacity_);
    }
  }

  // Returns true if `id` is among the remembered ids. Otherwise records it
  // — evicting the oldest remembered id when at capacity — and returns
  // false. When `probe_depth` is non-null it receives the number of table
  // slots inspected (the hot-path cost of this call, >= 1).
  bool test_and_set(const Uuid& id, std::uint32_t* probe_depth = nullptr) {
    if (capacity_ == 0) {
      if (probe_depth != nullptr) *probe_depth = 0;
      return false;
    }
    std::size_t i = index_of(id);
    std::uint32_t probes = 1;
    while (slots_[i].used) {
      if (slots_[i].id == id) {
        if (probe_depth != nullptr) *probe_depth = probes;
        return true;
      }
      i = (i + 1) & mask_;
      ++probes;
    }
    if (probe_depth != nullptr) *probe_depth = probes;
    if (count_ == capacity_) {
      erase(ring_[head_]);
      // The eviction may have shifted slots across our probe position;
      // re-find the insertion slot.
      i = index_of(id);
      while (slots_[i].used) i = (i + 1) & mask_;
      ring_[head_] = id;
      head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    } else {
      std::size_t tail = head_ + count_;
      if (tail >= capacity_) tail -= capacity_;
      ring_[tail] = id;
      ++count_;
    }
    slots_[i].id = id;
    slots_[i].used = true;
    return false;
  }

  // Membership test without recording (observability / tests).
  [[nodiscard]] bool contains(const Uuid& id) const {
    if (capacity_ == 0) return false;
    std::size_t i = index_of(id);
    while (slots_[i].used) {
      if (slots_[i].id == id) return true;
      i = (i + 1) & mask_;
    }
    return false;
  }

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  struct Slot {
    Uuid id;
    bool used = false;
  };

  // Power of two >= 2 * capacity, so the load factor never exceeds 1/2.
  static std::size_t table_size(std::size_t capacity) {
    std::size_t n = 8;
    while (n < capacity * 2) n <<= 1;
    return n;
  }

  [[nodiscard]] std::size_t index_of(const Uuid& id) const {
    return std::hash<Uuid>{}(id)&mask_;
  }

  // Backward-shift deletion for linear probing: close the gap by moving
  // every displaced successor whose home slot precedes the gap, so lookups
  // never need tombstones.
  void erase(const Uuid& id) {
    std::size_t i = index_of(id);
    while (slots_[i].used && !(slots_[i].id == id)) i = (i + 1) & mask_;
    if (!slots_[i].used) return;  // not present (cannot happen via ring_)
    std::size_t j = i;
    for (;;) {
      j = (j + 1) & mask_;
      if (!slots_[j].used) break;
      const std::size_t home = index_of(slots_[j].id);
      // slots_[j] may fill the gap at i iff i lies in the cyclic range
      // [home, j): moving it never jumps before its home slot.
      if (((j - home) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i].used = false;
  }

  const std::size_t capacity_;
  const std::size_t mask_;
  std::vector<Slot> slots_;
  std::vector<Uuid> ring_;  // insertion order, circular; head_ = oldest
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace p2p::util
