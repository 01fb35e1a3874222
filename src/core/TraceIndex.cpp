//===- core/TraceIndex.cpp - Analytic replay index over a trace ------------===//

#include "core/TraceIndex.h"

#include "core/Trace.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

using namespace tpdbt;
using namespace tpdbt::core;
using namespace tpdbt::guest;

void TraceIndex::checkPositionLimit(uint64_t NumEvents,
                                    const std::string &TraceName) {
  if (NumEvents < (1ull << 32))
    return;
  throw std::length_error(formatString(
      "trace %s has %llu events, too many for the 32-bit positions of the "
      "analytic replay index (limit 2^32 - 1)",
      TraceName.empty() ? "(unnamed)" : TraceName.c_str(),
      static_cast<unsigned long long>(NumEvents)));
}

TraceIndex TraceIndex::build(const BlockTrace &Trace) {
  const size_t N = Trace.numBlocks();
  const size_t E = Trace.numEvents();
  checkPositionLimit(E, Trace.name());

  TraceIndex Idx;
  Idx.TotalInsts = Trace.totalInsts();
  Idx.TakenEvents = Trace.takenEvents();

  // Pass 1 equivalent: the trace already maintains final per-block use
  // counts, which are exactly the CSR row sizes.
  const std::vector<profile::BlockCounters> &Final = Trace.finalCounts();
  Idx.BlockBegin.resize(N + 1);
  uint32_t Offset = 0;
  for (size_t B = 0; B < N; ++B) {
    Idx.BlockBegin[B] = Offset;
    Offset += static_cast<uint32_t>(Final[B].Use);
  }
  Idx.BlockBegin[N] = Offset;
  assert(Offset == E && "final counts disagree with the event stream");

  Idx.OccPos.resize(E);
  Idx.TakenPre.resize(E + N);
  Idx.InstsPre.resize(E + N);
  Idx.GlobalInsts.resize(E + 1);
  Idx.GlobalTaken.resize(E + 1);

  // Pass 2: scatter positions and accumulate prefix rows. Cursor[B] is the
  // next free OccPos slot of block B; the prefix rows carry a leading zero.
  std::vector<uint32_t> Cursor(Idx.BlockBegin.begin(),
                               Idx.BlockBegin.end() - 1);
  for (size_t B = 0; B < N; ++B) {
    Idx.TakenPre[Idx.prefBegin(static_cast<BlockId>(B))] = 0;
    Idx.InstsPre[Idx.prefBegin(static_cast<BlockId>(B))] = 0;
  }
  Idx.GlobalInsts[0] = 0;
  Idx.GlobalTaken[0] = 0;
  for (size_t I = 0; I < E; ++I) {
    const TraceEvent &Ev = Trace.event(I);
    const bool Taken = Ev.Branch == 2;
    uint32_t Slot = Cursor[Ev.Block]++;
    Idx.OccPos[Slot] = static_cast<uint32_t>(I);
    size_t Row = Slot + Ev.Block; // prefBegin(Block) + occurrence rank
    Idx.TakenPre[Row + 1] = Idx.TakenPre[Row] + (Taken ? 1 : 0);
    Idx.InstsPre[Row + 1] = Idx.InstsPre[Row] + Ev.Insts;
    Idx.GlobalInsts[I + 1] = Idx.GlobalInsts[I] + Ev.Insts;
    Idx.GlobalTaken[I + 1] = Idx.GlobalTaken[I] + (Taken ? 1 : 0);
  }
  return Idx;
}

uint32_t TraceIndex::usesThrough(BlockId B, uint32_t Pos) const {
  const uint32_t *Begin = OccPos.data() + BlockBegin[B];
  const uint32_t *End = OccPos.data() + BlockBegin[B + 1];
  return static_cast<uint32_t>(std::upper_bound(Begin, End, Pos) - Begin);
}

uint32_t TraceIndex::occurrenceAt(BlockId B, uint32_t Pos) const {
  const uint32_t *Begin = OccPos.data() + BlockBegin[B];
  const uint32_t *End = OccPos.data() + BlockBegin[B + 1];
  const uint32_t *It = std::lower_bound(Begin, End, Pos);
  assert(It != End && *It == Pos && "position is not an occurrence of B");
  return static_cast<uint32_t>(It - Begin);
}

uint32_t TraceIndex::firstOutcomeChange(BlockId B, uint32_t K,
                                        bool Taken) const {
  const size_t Row = prefBegin(B);
  const uint32_t Cnt = occurrences(B);
  // Along a run of occurrences whose outcome equals Taken, the quantity
  // below is constant, and it is strictly monotone across a differing
  // outcome — so the run end is a partition point.
  auto RunKey = [&](uint32_t J) -> int64_t {
    return Taken ? static_cast<int64_t>(TakenPre[Row + J]) - J
                 : static_cast<int64_t>(TakenPre[Row + J]);
  };
  // Outcomes [K, J) all equal Taken iff RunKey(J) == RunKey(K); find the
  // first J in (K, Cnt] where that fails. The answer is J - 1 (the first
  // differing occurrence), or Cnt when the whole tail matches. Runs are
  // typically short relative to the row, so gallop out from K before
  // bisecting the last doubling interval.
  const int64_t Key = RunKey(K);
  uint32_t Base = K, Step = 1;
  while (Base + Step <= Cnt && RunKey(Base + Step) == Key) {
    Base += Step;
    Step *= 2;
  }
  // [K, Base] all match; the first mismatch, if any, lies in
  // (Base, Base + Step] — clipped to the row when the gallop ran off it.
  uint32_t Lo = Base + 1, Hi = std::min(Base + Step, Cnt + 1);
  while (Lo < Hi) {
    uint32_t Mid = Lo + (Hi - Lo) / 2;
    if (RunKey(Mid) == Key)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return Lo - 1;
}

bool TraceIndex::matches(const BlockTrace &Trace) const {
  return numBlocks() == Trace.numBlocks() &&
         numEvents() == Trace.numEvents() &&
         TotalInsts == Trace.totalInsts() &&
         TakenEvents == Trace.takenEvents();
}
