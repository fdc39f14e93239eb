// One reported figure, and the result line every run ends with.
#pragma once

#include <cmath>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "ledger.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Prints "name value unit" lines, the oracle verdict, and then, as the
// last line, {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
inline void print_report(const std::vector<Metric>& metrics,
                         const Tally& tally, bool correct) {
  std::cout << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (const auto& m : metrics) {
    std::cout << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  std::cout << "failed_ratio = "
            << (tally.attempted == 0
                    ? 0.0
                    : static_cast<double>(tally.failed) /
                          static_cast<double>(tally.attempted))
            << " ratio\n"
            << "oracle: " << (correct ? "PASS" : "FAIL") << " ("
            << tally.attempted << " pairs; missing " << tally.missing
            << ", duplicated " << tally.duplicated << ", corrupted "
            << tally.corrupted << ", publish failures "
            << tally.publish_failed << ", strays " << tally.strays << ")\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::cout << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
              << "\": {\"value\": " << v << ", \"unit\": \""
              << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace perfbench
