// The traced run: the per-layer ledger of one workload.
//
// Three phases of the workload itself (untraced; traced; traced with
// TpsConfig::no_tracing()), the fanout-sync traffic re-run over raw
// JXTA-WIRE and SR-JXTA, and replays of each layer's public encode/decode
// functions on the workload's own events. Every figure is timed from the
// benchmark's side of a public call or read from TpsStats, FabricStats
// and the peers' metrics registries.
#pragma once

#include <cstdint>
#include <vector>

#include "ledger.h"
#include "report.h"
#include "workload.h"

namespace perfbench {

struct LayerReport {
  std::vector<Metric> metrics;
  Tally tally;  // oracle over the TPS phases
};

LayerReport trace_layers(const WorkloadSpec& spec, std::uint64_t seed,
                         double seconds);

}  // namespace perfbench
