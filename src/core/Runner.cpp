//===- core/Runner.cpp - Multi-threshold sweep execution -------------------===//

#include "core/Runner.h"

#include "core/Trace.h"

#include <cassert>
#include <map>

using namespace tpdbt;
using namespace tpdbt::core;
using namespace tpdbt::guest;

ThresholdSlots::ThresholdSlots(const std::vector<uint64_t> &Thresholds) {
  std::map<uint64_t, size_t> Seen;
  SlotOf.reserve(Thresholds.size());
  for (uint64_t T : Thresholds) {
    auto [It, New] = Seen.emplace(T, Unique.size());
    if (New)
      Unique.push_back(T);
    SlotOf.push_back(It->second);
  }
}

SweepResult tpdbt::core::runSweep(const Program &P,
                                  const std::vector<uint64_t> &Thresholds,
                                  const dbt::DbtOptions &Base,
                                  uint64_t MaxBlocks) {
#ifndef NDEBUG
  for (uint64_t T : Thresholds)
    assert(T > 0 && "sweep thresholds must be positive; the average run is "
                    "always produced");
#endif
  // Trace-first execution: interpret once into a block-event trace (the
  // single expensive pass), then derive every policy from the trace. The
  // split keeps one interpretation loop in the codebase and lets
  // replaySweep evaluate each threshold from the trace index.
  BlockTrace Trace = BlockTrace::record(P, MaxBlocks);
  return replaySweep(Trace, P, Thresholds, Base);
}
