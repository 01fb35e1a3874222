//===- sample/SampledReplay.h - Stratified sampled sweep --------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sampled-sweep driver: phase-cluster a trace's segments from their
/// decode-free directory statistics, draw a stratified sample under the
/// budget, decode *only* the drawn segments, and estimate the whole
/// threshold sweep (point estimates plus delete-a-group jackknife
/// replicates) through sample::Estimator.
///
/// Segments arrive through the SegmentSource interface so the same driver
/// runs off a warm TPDT v3 cache entry (DiskSegmentSource: directory
/// stats for free, one readSegment per drawn segment, unsampled segments
/// never leave the file) and off a freshly recorded in-memory trace
/// (MemorySegmentSource: the event vector sliced at the same budget the
/// writer would use, so cold and warm runs stratify — and therefore
/// sample — identically).
///
/// Determinism: the plan is a pure function of (segment stats, budget,
/// seed) computed before any threading; the per-(replicate, threshold)
/// estimation units are independent const calls dispatched by index, so
/// results are identical at any job count.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_SAMPLE_SAMPLEDREPLAY_H
#define TPDBT_SAMPLE_SAMPLEDREPLAY_H

#include "core/TraceSegments.h"
#include "sample/Estimator.h"
#include "sample/SampleConfig.h"

#include <cstdint>
#include <string>
#include <vector>

namespace tpdbt {
namespace sample {

/// What the sampled sweep actually touched, for the stats banner and the
/// never-decompress regression test.
struct SampledSweepStats {
  uint64_t Segments = 0; ///< total segments in the trace
  uint64_t Decoded = 0;  ///< segments decoded (the sample)
  /// Event totals behind the same split — the sampled-fraction f that the
  /// finite-population correction in core/Figures scales intervals by.
  uint64_t TotalEvents = 0;
  uint64_t DecodedEvents = 0;
  uint32_t Strata = 0;
  uint32_t Groups = 0;

  double sampledFraction() const {
    return TotalEvents ? static_cast<double>(DecodedEvents) /
                             static_cast<double>(TotalEvents)
                       : 1.0;
  }
};

/// A sampled threshold sweep: the point estimates, the exact
/// profiling-only average, and the jackknife replicate estimates
/// (Replicates[g][t] excludes group g) core/Figures turns into
/// confidence intervals.
struct SampledSweep {
  std::vector<profile::ProfileSnapshot> PerThreshold;
  profile::ProfileSnapshot Average;
  /// [group][threshold index] — empty when fewer than two groups exist.
  std::vector<std::vector<profile::ProfileSnapshot>> Replicates;
  SampledSweepStats Stats;
};

/// Where segments come from. Implementations expose the decode-free
/// per-segment statistics (for phase detection and planning) and decode a
/// segment only when read() is called.
class SegmentSource {
public:
  virtual ~SegmentSource() = default;
  virtual size_t numSegments() const = 0;
  virtual SegmentStats stats(size_t I) const = 0;
  /// Decodes segment \p I into per-block totals. Only ever called for
  /// segments the plan chose.
  virtual bool read(size_t I, SegmentProfile &Out, std::string *Error) = 0;
  virtual uint64_t numEvents() const = 0;
  virtual uint64_t totalInsts() const = 0;
  virtual uint64_t takenEvents() const = 0;
  virtual const std::vector<profile::BlockCounters> &finalCounts() const = 0;
};

/// Segments straight from a TPDT v3 container: statistics from the
/// directory's per-segment deltas (no payload touched), reads through
/// SegmentedTraceReader::readSegment.
class DiskSegmentSource : public SegmentSource {
public:
  explicit DiskSegmentSource(core::SegmentedTraceReader &Reader);
  size_t numSegments() const override;
  SegmentStats stats(size_t I) const override;
  bool read(size_t I, SegmentProfile &Out, std::string *Error) override;
  uint64_t numEvents() const override;
  uint64_t totalInsts() const override;
  uint64_t takenEvents() const override;
  const std::vector<profile::BlockCounters> &finalCounts() const override;

private:
  core::SegmentedTraceReader &Reader;
  uint64_t TakenTotal = 0;
  std::vector<core::TraceEvent> Buf; ///< readSegment scratch
};

/// Segments sliced from an in-memory trace at \p Budget events (the
/// recorder's segment budget, so the cut matches what a cache entry of
/// the same trace would hold). Per-segment statistics are one cheap
/// counting pass in the constructor.
class MemorySegmentSource : public SegmentSource {
public:
  MemorySegmentSource(const core::BlockTrace &Trace, uint64_t Budget);
  size_t numSegments() const override;
  SegmentStats stats(size_t I) const override;
  bool read(size_t I, SegmentProfile &Out, std::string *Error) override;
  uint64_t numEvents() const override;
  uint64_t totalInsts() const override;
  uint64_t takenEvents() const override;
  const std::vector<profile::BlockCounters> &finalCounts() const override;

private:
  const core::BlockTrace &Trace;
  uint64_t Budget = 0;
  std::vector<SegmentStats> Stats;
};

/// Aggregates a decoded event slice into sparse per-block totals
/// (ascending block id). Shared by both sources and the tests.
void aggregateEvents(const core::TraceEvent *Ev, size_t N, size_t NumBlocks,
                     SegmentProfile &Out);

/// Two-sided 95% Student-t quantile for \p Df degrees of freedom (exact
/// table through 30, the normal 1.96 beyond).
double tQuantile95(unsigned Df);

/// 95% half-width from delete-a-group jackknife replicates of one metric,
/// corrected for estimating a finite-population (this trace) quantity:
/// a replicate perturbs the estimate by one *group's* mass (proportional
/// to the sampled fraction f), while the true error comes from the
/// *unsampled* mass (proportional to 1 - f) — for the estimator's
/// prefix-sum statistics the variance ratio works out to (1 - f) / f^2,
/// so the raw jackknife SE is scaled by sqrt(1 - f) / f. The correction
/// also makes interval width shrink monotonically as the budget grows
/// and vanish at full budget. \p SampledFrac is
/// SampledSweepStats::sampledFraction(). Returns 0 with fewer than two
/// replicates. Sampling noise only: core/Figures adds the calibrated
/// model-bias guard on top (docs/ARCHITECTURE.md, "Approximate replay").
double jackknife95(const std::vector<double> &Replicates,
                   double SampledFrac);

/// Runs the sampled sweep: detect phases, plan the sample with \p Seed,
/// decode the drawn segments (serially, through \p Src), then estimate
/// every (replicate, threshold) unit on up to \p Jobs threads. Non-finite
/// budgets, zero-segment traces, and decode failures report through
/// \p Error. Thresholds are estimated as given (duplicates share one
/// unit); the average is exact (dbt::TranslationPolicy::profilingOnly).
bool sampledSweep(SegmentSource &Src, const guest::Program &P,
                  const std::vector<uint64_t> &Thresholds,
                  const dbt::DbtOptions &Base, const SampleConfig &Cfg,
                  uint64_t Seed, unsigned Jobs, SampledSweep &Out,
                  std::string *Error);

} // namespace sample
} // namespace tpdbt

#endif // TPDBT_SAMPLE_SAMPLEDREPLAY_H
