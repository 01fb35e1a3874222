//===- sample/SampledReplay.cpp - Stratified sampled sweep -----------------===//

#include "sample/SampledReplay.h"

#include "cfg/Cfg.h"
#include "core/Runner.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>

using namespace tpdbt;
using namespace tpdbt::sample;
using core::SegmentedTraceHeader;
using core::TraceEvent;

void tpdbt::sample::aggregateEvents(const TraceEvent *Ev, size_t N,
                                    size_t NumBlocks, SegmentProfile &Out) {
  Out.Entries.clear();
  std::vector<SegmentProfile::Entry> Dense(NumBlocks);
  for (size_t I = 0; I < N; ++I) {
    const TraceEvent &E = Ev[I];
    if (E.Block >= NumBlocks)
      continue;
    SegmentProfile::Entry &D = Dense[E.Block];
    ++D.Use;
    D.Insts += E.Insts;
    if (E.Branch == 2)
      ++D.Taken;
  }
  for (size_t B = 0; B < NumBlocks; ++B)
    if (Dense[B].Use) {
      Dense[B].Block = static_cast<guest::BlockId>(B);
      Out.Entries.push_back(Dense[B]);
    }
}

double tpdbt::sample::tQuantile95(unsigned Df) {
  static const double Table[30] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (Df == 0)
    return Table[0];
  return Df <= 30 ? Table[Df - 1] : 1.96;
}

double tpdbt::sample::jackknife95(const std::vector<double> &Replicates,
                                  double SampledFrac) {
  const size_t G = Replicates.size();
  if (G < 2)
    return 0.0;
  double Mean = 0.0;
  for (double V : Replicates)
    Mean += V;
  Mean /= static_cast<double>(G);
  double Sq = 0.0;
  for (double V : Replicates)
    Sq += (V - Mean) * (V - Mean);
  const double Var = Sq * static_cast<double>(G - 1) / static_cast<double>(G);
  const double F = std::min(std::max(SampledFrac, 0.05), 1.0);
  const double Fpc = std::sqrt(std::max(0.0, 1.0 - F)) / F;
  return tQuantile95(static_cast<unsigned>(G - 1)) * std::sqrt(Var) * Fpc;
}

//===----------------------------------------------------------------------===//
// DiskSegmentSource
//===----------------------------------------------------------------------===//

DiskSegmentSource::DiskSegmentSource(core::SegmentedTraceReader &Reader)
    : Reader(Reader), TakenTotal(Reader.header().takenEvents()) {}

size_t DiskSegmentSource::numSegments() const { return Reader.numSegments(); }

SegmentStats DiskSegmentSource::stats(size_t I) const {
  const SegmentedTraceHeader &H = Reader.header();
  const SegmentedTraceHeader::Span Span = H.segmentSpan(I);
  SegmentStats S;
  S.Events = H.Directory[I].Events;
  S.Insts = Span.Insts;
  S.Taken = Span.Taken;
  return S;
}

bool DiskSegmentSource::read(size_t I, SegmentProfile &Out,
                             std::string *Error) {
  if (!Reader.readSegment(I, Buf, Error))
    return false;
  aggregateEvents(Buf.data(), Buf.size(), Reader.header().NumBlocks, Out);
  return true;
}

uint64_t DiskSegmentSource::numEvents() const {
  return Reader.header().NumEvents;
}
uint64_t DiskSegmentSource::totalInsts() const {
  return Reader.header().TotalInsts;
}
uint64_t DiskSegmentSource::takenEvents() const { return TakenTotal; }
const std::vector<profile::BlockCounters> &
DiskSegmentSource::finalCounts() const {
  return Reader.header().Final;
}

//===----------------------------------------------------------------------===//
// MemorySegmentSource
//===----------------------------------------------------------------------===//

MemorySegmentSource::MemorySegmentSource(const core::BlockTrace &Trace,
                                         uint64_t Budget)
    : Trace(Trace), Budget(std::max<uint64_t>(Budget, 1)) {
  const size_t N = Trace.numEvents();
  Stats.reserve(N / this->Budget + 1);
  for (size_t Start = 0; Start < N; Start += this->Budget) {
    const size_t End = std::min<size_t>(Start + this->Budget, N);
    SegmentStats S;
    S.Events = End - Start;
    for (size_t I = Start; I < End; ++I) {
      const TraceEvent &E = Trace.event(I);
      S.Insts += E.Insts;
      if (E.Branch == 2)
        ++S.Taken;
    }
    Stats.push_back(S);
  }
}

size_t MemorySegmentSource::numSegments() const { return Stats.size(); }

SegmentStats MemorySegmentSource::stats(size_t I) const { return Stats[I]; }

bool MemorySegmentSource::read(size_t I, SegmentProfile &Out,
                               std::string *Error) {
  (void)Error;
  const size_t Start = I * Budget;
  const size_t End =
      std::min<size_t>(Start + Budget, Trace.numEvents());
  // The event vector is contiguous; hand the slice straight down.
  aggregateEvents(&Trace.event(Start), End - Start, Trace.numBlocks(), Out);
  return true;
}

uint64_t MemorySegmentSource::numEvents() const { return Trace.numEvents(); }
uint64_t MemorySegmentSource::totalInsts() const { return Trace.totalInsts(); }
uint64_t MemorySegmentSource::takenEvents() const {
  return Trace.takenEvents();
}
const std::vector<profile::BlockCounters> &
MemorySegmentSource::finalCounts() const {
  return Trace.finalCounts();
}

//===----------------------------------------------------------------------===//
// sampledSweep
//===----------------------------------------------------------------------===//

bool tpdbt::sample::sampledSweep(SegmentSource &Src, const guest::Program &P,
                                 const std::vector<uint64_t> &Thresholds,
                                 const dbt::DbtOptions &Base,
                                 const SampleConfig &Cfg, uint64_t Seed,
                                 unsigned Jobs, SampledSweep &Out,
                                 std::string *Error) {
  if (Base.Adaptive.Enabled) {
    if (Error)
      *Error = "sampled replay does not support adaptive policies";
    return false;
  }
  const size_t S = Src.numSegments();
  std::vector<SegmentStats> Stats(S);
  for (size_t I = 0; I < S; ++I)
    Stats[I] = Src.stats(I);

  const PhaseAssignment Phases = detectSegmentPhases(Stats, Cfg.MaxPhases);
  SamplePlan Plan =
      planSample(Stats, Phases, Cfg.BudgetFrac, Seed, Cfg.Groups);

  std::vector<SegmentProfile> Decoded(Plan.Chosen.size());
  for (size_t C = 0; C < Plan.Chosen.size(); ++C)
    if (!Src.read(Plan.Chosen[C], Decoded[C], Error))
      return false;

  Out.Stats.Segments = S;
  Out.Stats.Decoded = Plan.Chosen.size();
  Out.Stats.Strata = Plan.NumStrata;
  Out.Stats.Groups = Plan.NumGroups;
  Out.Stats.TotalEvents = Src.numEvents();
  Out.Stats.DecodedEvents = 0;
  for (uint32_t I : Plan.Chosen)
    Out.Stats.DecodedEvents += Stats[I].Events;

  const cfg::Cfg G(P); // Estimator keeps a reference; must outlive it
  const Estimator Est(P, G, std::move(Stats), Src.finalCounts(),
                      Src.numEvents(), Src.totalInsts(), Src.takenEvents(),
                      std::move(Plan), std::move(Decoded));

  // Duplicate thresholds share one estimation unit, as in replaySweep.
  const core::ThresholdSlots Slots(Thresholds);

  // Point estimates first (each captures its freeze structure), then one
  // replicate unit per (group, unique threshold) re-estimating only the
  // freeze-time counters against that structure. All units are pure const
  // calls written by index, so results are identical at any job count.
  const uint32_t Groups = Est.numGroups() >= 2 ? Est.numGroups() : 0;
  const size_t U = Slots.Unique.size();
  std::vector<profile::ProfileSnapshot> Points(U);
  std::vector<FreezeInfo> Infos(U);
  parallelFor(U, Jobs, [&](size_t I) {
    Points[I] = Est.estimate(Base, Slots.Unique[I], &Infos[I]);
  });
  std::vector<std::vector<profile::ProfileSnapshot>> Reps(
      Groups, std::vector<profile::ProfileSnapshot>(U));
  parallelFor(Groups * U, Jobs, [&](size_t Unit) {
    const int Group = static_cast<int>(Unit / U);
    const size_t I = Unit % U;
    Reps[Group][I] = Est.replicate(Base, Slots.Unique[I], Infos[I], Group);
  });

  Out.PerThreshold = Slots.expand(std::move(Points));
  Out.Average = dbt::TranslationPolicy::profilingOnly(
      P, G, Base, Src.finalCounts(), Src.numEvents(), Src.takenEvents(),
      Src.totalInsts());
  Out.Replicates.clear();
  for (std::vector<profile::ProfileSnapshot> &Group : Reps)
    Out.Replicates.push_back(Slots.expand(std::move(Group)));
  return true;
}
