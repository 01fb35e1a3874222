//===- core/Runner.h - Multi-threshold sweep execution ----------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one guest program once and derives the profiles for *every*
/// retranslation threshold of a sweep.
///
/// Guest execution is deterministic and independent of translation
/// decisions, so INIP(100), INIP(200), ..., INIP(4M) and AVEP can all be
/// derived from a single interpreted pass: runSweep records the pass as a
/// block-event trace and replays it through one TranslationPolicy per
/// threshold (see core/Trace.h, dbt/Policy.h). A property test asserts
/// the result is identical to a dedicated DbtEngine run per threshold.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_CORE_RUNNER_H
#define TPDBT_CORE_RUNNER_H

#include "dbt/Policy.h"
#include "profile/Profile.h"

#include <cstdint>
#include <vector>

namespace tpdbt {
namespace core {

/// Result of a sweep over one (program, input).
struct SweepResult {
  /// Snapshot per requested threshold, in request order.
  std::vector<profile::ProfileSnapshot> PerThreshold;
  /// The profiling-only snapshot (AVEP for the reference input,
  /// INIP(train) for the training input).
  profile::ProfileSnapshot Average;
};

/// Duplicate thresholds share one evaluation: Unique holds the distinct
/// values of a request in first-occurrence order (so without duplicates it
/// is the request itself) and SlotOf maps each request position to its
/// value's slot in Unique.
struct ThresholdSlots {
  explicit ThresholdSlots(const std::vector<uint64_t> &Thresholds);

  std::vector<uint64_t> Unique;
  std::vector<size_t> SlotOf;

  /// Expands per-slot results (one per Unique value) back to request
  /// order.
  template <typename T> std::vector<T> expand(std::vector<T> PerSlot) const {
    if (Unique.size() == SlotOf.size())
      return PerSlot; // no duplicates: SlotOf is the identity
    std::vector<T> Out;
    Out.reserve(SlotOf.size());
    for (size_t Slot : SlotOf)
      Out.push_back(PerSlot[Slot]);
    return Out;
  }
};

/// Runs \p P to completion (or \p MaxBlocks events) once and returns the
/// INIP snapshot for every threshold in \p Thresholds plus the
/// profiling-only snapshot. \p Base supplies pool/formation/cost settings;
/// its Threshold field is ignored. Records the run with
/// BlockTrace::record and evaluates it with replaySweep (see
/// core/Trace.h).
SweepResult runSweep(const guest::Program &P,
                     const std::vector<uint64_t> &Thresholds,
                     const dbt::DbtOptions &Base, uint64_t MaxBlocks);

} // namespace core
} // namespace tpdbt

#endif // TPDBT_CORE_RUNNER_H
