// perfbench: the repository benchmark binary (see ../README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --selftest
//
// --trace 0 prints the end-to-end metrics of one workload; --trace 1 the
// per-layer ledger. The last line of standard output is the JSON result.
#include <cstdlib>
#include <exception>
#include <iomanip>
#include <utility>
#include <iostream>
#include <string>
#include <string_view>

#include "layers.h"
#include "report.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
int run_selftests();
}  // namespace perfbench

namespace {

using namespace perfbench;

// Every run builds the LAN this many times; setup_s is the median.
constexpr int kSetups = 3;

std::vector<Metric> end_to_end(const PhaseResult& r) {
  const Tally& t = r.tally;
  return {
      {"setup_s", median(r.setup_s), "s"},
      {"publish_us_p50", r.paced.over_windows(&PacedWindow::publish_us_p50),
       "us"},
      {"delivery_us_p50", r.paced.over_windows(&PacedWindow::delivery_us_p50),
       "us"},
      {"delivery_us_p90", r.paced.over_windows(&PacedWindow::delivery_us_p90),
       "us"},
      {"cpu_us_per_event",
       r.paced.over_windows(&PacedWindow::cpu_us_per_event), "us"},
      {"drain_eps", r.drain_eps, "events/s"},
      {"delivered_ratio",
       1.0 - ratio(static_cast<double>(t.failed),
                   static_cast<double>(t.attempted)),
       "ratio"},
  };
}

// The per-window and per-burst figures behind the reported values.
void print_spread(const PhaseResult& r) {
  const std::pair<const char*, double PacedWindow::*> figures[] = {
      {"publish_us_p50", &PacedWindow::publish_us_p50},
      {"delivery_us_p50", &PacedWindow::delivery_us_p50},
      {"delivery_us_p90", &PacedWindow::delivery_us_p90},
      {"cpu_us_per_event", &PacedWindow::cpu_us_per_event}};
  std::cout << std::setprecision(4);
  for (const auto& [name, figure] : figures) {
    std::cout << "# windows " << name << ":";
    for (const auto& w : r.paced.windows) std::cout << " " << w.*figure;
    std::cout << "\n";
  }
  std::cout << "# bursts drain_eps:";
  for (const double eps : r.burst_eps) std::cout << " " << eps;
  std::cout << "\n# gen.lag_us p50 " << median(r.paced.gen_lag_us) << " p99 "
            << percentile(r.paced.gen_lag_us, 99) << " max "
            << max_of(r.paced.gen_lag_us) << "; "
            << r.paced.delivery_us.size() << " deliveries timed\n";
}

int usage() {
  std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n       perfbench --selftest\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--selftest") return perfbench::run_selftests();
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = value == "1";
    } else {
      return usage();
    }
  }
  const WorkloadSpec* spec = find_workload(workload);
  if (spec == nullptr || seconds <= 0) return usage();
  std::cout << "# perfbench workload=" << spec->name << " seed=" << seed
            << " seconds=" << seconds << " trace=" << (trace ? 1 : 0) << "\n";
  try {
    if (trace) {
      const LayerReport report = trace_layers(*spec, seed, seconds);
      print_report(report.metrics, report.tally, report.tally.failed == 0);
    } else {
      const PhaseResult r = run_phase(
          *spec, {.seconds = seconds, .setups = kSetups, .drain = true}, seed);
      print_spread(r);
      print_report(end_to_end(r), r.tally, r.tally.failed == 0);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
