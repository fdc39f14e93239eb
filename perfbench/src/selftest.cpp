// Self-tests of the benchmark's own arithmetic: percentile selection, the
// quantile each figure takes over its windows, the oracle's failure
// accounting on fabricated deliveries, and the event factory the oracle
// relies on. Run before every measurement by run.py.
#include <iostream>
#include <string>

#include "ledger.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "selftest FAILED: " << what << "\n";
  }
}

void test_percentiles() {
  const std::vector<double> ten = {7, 3, 10, 1, 9, 2, 8, 4, 6, 5};
  expect(percentile(ten, 50) == 5, "p50 of 1..10 is 5");
  expect(percentile(ten, 90) == 9, "p90 of 1..10 is 9");
  expect(percentile(ten, 99) == 10, "p99 of 1..10 is 10");
  expect(percentile(ten, 100) == 10, "p100 is the maximum");
  expect(percentile(ten, 10) == 1, "p10 of 1..10 is 1");
  expect(percentile(ten, 0.01) == 1, "a tiny p is the minimum");
  expect(percentile({42}, 90) == 42, "one sample is every percentile");
  expect(percentile({}, 50) == 0, "no samples gives 0");
  expect(median({4, 1, 3, 2}) == 2,
         "median of an even set is the lower middle");
  expect(max_of({3, 9, 1}) == 9, "max_of");
  expect(mean_of({1, 2, 3, 6}) == 3, "mean_of");
  expect(ratio(1, 0) == 0 && ratio(3, 4) == 0.75, "ratio");

  p2p::obs::HistogramValue h;
  h.bounds = {64, 256};
  h.counts = {2, 2, 0};
  h.count = 4;
  expect(histogram_percentile(h, 50) == 64, "histogram p50 at a bound");
  expect(histogram_percentile(h, 75) == 160, "histogram p75 interpolates");
  h.counts = {0, 0, 4};
  expect(histogram_percentile(h, 50) == 256,
         "overflow bucket reports its bound");
  h.count = 0;
  expect(histogram_percentile(h, 50) == 0, "empty histogram gives 0");
}

void test_windows() {
  // Four windows; each figure reads 1..4 in a different order.
  PacedResult r;
  r.windows = {{.publish_us_p50 = 4, .delivery_us_p50 = 2,
                .delivery_us_p90 = 3, .cpu_us_per_event = 1},
               {.publish_us_p50 = 1, .delivery_us_p50 = 4,
                .delivery_us_p90 = 1, .cpu_us_per_event = 3},
               {.publish_us_p50 = 3, .delivery_us_p50 = 1,
                .delivery_us_p90 = 4, .cpu_us_per_event = 2},
               {.publish_us_p50 = 2, .delivery_us_p50 = 3,
                .delivery_us_p90 = 2, .cpu_us_per_event = 4}};
  expect(r.over_windows(&PacedWindow::delivery_us_p50) == 1 &&
             r.over_windows(&PacedWindow::delivery_us_p90) == 1,
         "delivery figures take the first quartile over windows");
  expect(r.over_windows(&PacedWindow::publish_us_p50) == 2 &&
             r.over_windows(&PacedWindow::cpu_us_per_event) == 2,
         "publish time and CPU take the median over windows");
  expect(PacedResult{}.over_windows(&PacedWindow::publish_us_p50) == 0,
         "no windows gives 0");
}

void test_ledger() {
  // Five events, two subscribers.
  Ledger ledger(5, 2);
  // 0: clean.
  ledger.arrive(0, 0, true, 10);
  ledger.arrive(1, 0, true, 20);
  // 1: duplicated at subscriber 0, missing at subscriber 1.
  ledger.arrive(0, 1, true, 30);
  ledger.arrive(0, 1, true, 40);
  // 2: corrupted at subscriber 0, clean at subscriber 1.
  ledger.arrive(0, 2, false, 50);
  ledger.arrive(1, 2, true, 60);
  // 3: publish shed.
  ledger.publish_failed(3);
  // 4: clean, completed last.
  ledger.arrive(1, 4, true, 70);
  ledger.arrive(0, 4, true, 80);
  // A stray: no such sequence number.
  ledger.arrive(0, 99, true, 90);

  const Tally t = ledger.total();
  expect(t.attempted == 10, "attempted counts every (event, subscriber) pair");
  expect(t.missing == 1, "one missing pair");
  expect(t.duplicated == 1, "one duplicated pair");
  expect(t.corrupted == 1, "one corrupted pair");
  expect(t.publish_failed == 1, "one failed publish");
  expect(t.strays == 1, "one stray");
  // event 1: 2 pairs; event 2: 1; event 3: 2; stray: 1.
  expect(t.failed == 6, "failed = 2 + 1 + 2 + 1 stray");
  expect(ledger.completed() == 2, "events 0 and 4 completed");
  expect(ledger.done_ns(0) == 20 && ledger.done_ns(4) == 80,
         "completion is stamped by the last subscriber");
  expect(ledger.done_ns(2) == 0, "a corrupted arrival does not complete");
  expect(ledger.wait_completed(2, std::chrono::milliseconds(0)),
         "wait returns at once when complete");
  expect(!ledger.wait_completed(3, std::chrono::milliseconds(1)),
         "wait times out when incomplete");
  const Tally head = ledger.tally(0, 1);
  expect(head.attempted == 2 && head.failed == 0, "tally of a range");
}

void test_events() {
  const EventFactory a(7);
  const EventFactory b(8);
  for (const std::uint64_t seq : {0ULL, 9ULL, 12345ULL, 9999999ULL}) {
    const auto e = a.make(seq, false);
    p2p::util::ByteWriter w;
    p2p::serial::EventTraits<p2p::events::SkiRental>::encode(*e, w);
    expect(w.size() == kMessageBytes,
           "event " + std::to_string(seq) + " serializes to 1910 bytes");
    std::uint64_t parsed = 0;
    expect(EventFactory::parse_seq(e->shop(), &parsed) && parsed == seq,
           "sequence number round-trips");
    expect(EventFactory::value_hash(*e) ==
               EventFactory::value_hash(*a.make(seq, false)),
           "same seed, same event");
    expect(EventFactory::value_hash(*e) !=
               EventFactory::value_hash(*b.make(seq, false)),
           "another seed, another event");
    expect(EventFactory::value_hash(*e) !=
               EventFactory::value_hash(*a.make(seq, true)),
           "the subtype hashes differently");
    const p2p::events::SkiRental sliced = *a.make(seq, true);
    expect(EventFactory::value_hash(sliced) == EventFactory::value_hash(*e),
           "a subtype sliced to its base equals the base event");
  }
  std::uint64_t seq = 0;
  expect(!EventFactory::parse_seq("E|x", &seq), "empty number rejected");
  expect(!EventFactory::parse_seq("F1|x", &seq), "warm-up tag rejected");
  expect(!EventFactory::parse_seq("E12", &seq), "missing separator rejected");
  int subtypes = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    if (a.subtype(i, 0.5)) ++subtypes;
  }
  expect(subtypes > 400 && subtypes < 600, "about half are subtypes");
  expect(!a.subtype(1, 0), "share 0 never picks the subtype");
}

}  // namespace

int run_selftests() {
  test_percentiles();
  test_windows();
  test_ledger();
  test_events();
  if (g_failures == 0) std::cout << "perfbench selftest: ok\n";
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
