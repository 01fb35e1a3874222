//===- core/Trace.h - Block-event trace record / replay ---------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Records one execution's block-event stream to a compact binary buffer
/// and replays it through translation policies without re-interpreting.
///
/// This is the standard decoupling in DBT/profiling research: collect the
/// trace once (expensive), then study arbitrarily many translator
/// configurations against it (cheap). replaySweep() produces snapshots
/// byte-identical to a dedicated DbtEngine run per threshold — a property
/// test asserts that.
///
/// In memory, an event is one 32-bit word, (Block << 2) | Branch. The
/// paper's metrics read only per-block use/taken counters, and a block
/// retires the same instruction count on every execution except a final
/// MemFault, so the per-block count table plus the final event's own
/// count rebuild every TraceEvent exactly (BlockTrace::event). append()
/// refuses any event after one that breaks that rule, so an irregular
/// trace cannot be built.
///
/// Serialized traces use the segmented TPDT v3 container
/// (core/TraceSegments.h, docs/CACHE_FORMAT.md): the final per-block
/// use/taken counters (they give the profiling-only snapshot and the
/// analytic index without an O(events) pre-pass) and a segment directory,
/// then one TPDZ-compressed delta-varint payload per segment.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_CORE_TRACE_H
#define TPDBT_CORE_TRACE_H

#include "core/Runner.h"
#include "guest/Program.h"
#include "profile/Profile.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace tpdbt {
namespace vm {
struct HostTierStats;
} // namespace vm
namespace core {

class TraceIndex;

/// Default per-segment event budget of the serialized form: 64Ki events
/// (~1 MiB of decoded events, a few hundred KiB compressed) — big enough
/// that per-segment overheads (TPDZ header, delta restart, directory row)
/// are noise, small enough that sampled replay can skip most of a
/// bench-scale trace segment by segment.
constexpr uint64_t DefaultSegmentEvents = uint64_t(1) << 16;

/// One recorded block event: the value type recording, the segment codec
/// and the readers pass around. BlockTrace keeps it packed (see the file
/// comment) and rebuilds it on access.
struct TraceEvent {
  guest::BlockId Block = 0;
  /// 0 = no conditional branch, 1 = branch not taken, 2 = branch taken.
  uint8_t Branch = 0;
  uint32_t Insts = 0;
};

/// A recorded execution.
class BlockTrace {
public:
  /// Records a full execution of \p P (up to \p MaxBlocks events).
  /// Interpretation runs under the host translation tier (vm/HostTier.h)
  /// unless TPDBT_HOST_TRANS=0; either way the recorded bytes are
  /// identical — self-loop runs land through appendRun() instead of
  /// per-event append(). \p TierStats, when non-null, accumulates the
  /// tier's coverage counters.
  static BlockTrace record(const guest::Program &P, uint64_t MaxBlocks = ~0ull,
                           vm::HostTierStats *TierStats = nullptr);

  /// Serializes to the TPDT v3 container with \p Budget events per
  /// segment (>= 1; the last segment takes the remainder). parse() reads
  /// it back event-identical at any budget. The one trace writer: a cold
  /// TraceCache miss records first, then writes this. Defined next to the
  /// reader in core/TraceSegments.cpp.
  std::string serialize(uint64_t Budget = DefaultSegmentEvents) const;
  /// Parses a TPDT v3 container; any other input (including the retired
  /// v1/v2 layouts) fails with \p Error set.
  static bool parse(const std::string &Bytes, BlockTrace &Out,
                    std::string *Error);

  size_t numEvents() const { return Events.size(); }
  size_t numBlocks() const { return NumBlocks; }
  /// Event \p I, rebuilt from its packed word: the block and branch
  /// outcome are stored, the instruction count is the block's
  /// blockInsts() (the final event's own count for the final event).
  TraceEvent event(size_t I) const {
    const uint32_t W = Events[I];
    const guest::BlockId B = W >> 2;
    return {B, static_cast<uint8_t>(W & 3),
            I + 1 == Events.size() ? FinalInsts : BlockInsts[B]};
  }
  uint64_t totalInsts() const { return TotalInsts; }
  /// Number of events that are taken conditional branches (an input of
  /// the closed-form profiling-only snapshot,
  /// dbt::TranslationPolicy::profilingOnly).
  uint64_t takenEvents() const { return TakenEvents; }

  /// Final per-block use/taken counters, maintained incrementally by
  /// append(). These are the end-of-run shared counters every replay needs
  /// up front (snapshot finals, index row sizes).
  const std::vector<profile::BlockCounters> &finalCounts() const {
    return Final;
  }

  /// Guest instructions one execution of \p B retires, taken from its
  /// first occurrence (0 for a block that never ran). The count is fixed
  /// by the block's code; only a MemFault cuts an execution short, and
  /// it ends the run, so the final event is the one event that may
  /// differ. append() refuses any event after a deviating one, so every
  /// BlockTrace satisfies this by construction.
  uint32_t blockInsts(guest::BlockId B) const { return BlockInsts[B]; }

  /// Guest instructions executed by the first \p K occurrences of \p B:
  /// K times the block's count, with the final event's own count in
  /// place of one of them when those occurrences include it.
  uint64_t instsOfFirst(guest::BlockId B, uint32_t K) const {
    const uint64_t Insts = uint64_t(K) * BlockInsts[B];
    if (K != 0 && K == Final[B].Use && B == (Events.back() >> 2))
      return Insts - BlockInsts[B] + FinalInsts;
    return Insts;
  }

  /// The analytic replay index over this trace, built with
  /// TraceIndex::build on first use and cached for the trace's lifetime
  /// (never persisted). Thread-safe.
  const TraceIndex &index() const;

  /// The cached index, or null if none has been built yet.
  std::shared_ptr<const TraceIndex> sharedIndex() const;

  /// A label for diagnostics ("<benchmark>.<input>" for traces served by
  /// TraceCache; empty otherwise). Not serialized.
  const std::string &name() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

  /// Appends one event (used by record() and tests). Throws
  /// std::invalid_argument when the previous event deviated from its
  /// block's count (see blockInsts()), and std::length_error when
  /// \p E.Block does not fit the 30 bits of a packed event.
  void append(const TraceEvent &E) {
    noteBlock(E, 1);
    Events.push_back(pack(E));
    TotalInsts += E.Insts;
    ++Final[E.Block].Use;
    if (E.Branch == 2) {
      ++TakenEvents;
      ++Final[E.Block].Taken;
    }
  }
  /// Appends \p N copies of one event — the run-length entry point for
  /// the host tier's batched self-loop iterations. Equivalent to calling
  /// append(E) N times (serialize() output and refusals included),
  /// without the per-event counter maintenance.
  void appendRun(const TraceEvent &E, uint64_t N) {
    if (N == 0)
      return;
    noteBlock(E, N);
    // Explicit doubling + push_back loop: vector's fill-insert path
    // (insert(end, N, E) / resize(n, E)) measures ~2x slower here than
    // the inlined push_back fast path it bypasses.
    const size_t Need = Events.size() + N;
    if (Need > Events.capacity())
      Events.reserve(std::max(Need, Events.capacity() * 2));
    const uint32_t W = pack(E);
    for (uint64_t I = 0; I < N; ++I)
      Events.push_back(W);
    TotalInsts += static_cast<uint64_t>(E.Insts) * N;
    Final[E.Block].Use += N;
    if (E.Branch == 2) {
      TakenEvents += N;
      Final[E.Block].Taken += N;
    }
  }
  /// Pre-sizes the event storage. record() and parse() use this to avoid
  /// the vector growth chain, which on multi-megabyte traces costs more
  /// than the event stores themselves (every doubling is a fresh
  /// allocation, a copy, and a page-fault pass over the new region;
  /// reserved-but-untouched pages are never faulted, so overshooting is
  /// nearly free).
  void reserveEvents(size_t N) { Events.reserve(N); }
  /// Sizes the per-block tables for \p N blocks. Throws
  /// std::length_error, before resizing anything, when \p N is 2^30 or
  /// more (block ids must fit the 30 bits of a packed event).
  void setNumBlocks(size_t N) {
    checkBlockLimit(N);
    NumBlocks = N;
    if (Final.size() < N) {
      Final.resize(N);
      BlockInsts.resize(N);
    }
  }

private:
  /// Block ids are packed into 30 bits of an event word, so a trace
  /// holds fewer than 2^30 blocks; the check runs in every build type.
  static constexpr uint64_t BlockLimit = uint64_t(1) << 30;
  /// What append() throws and parse() reports for an event that follows
  /// one deviating from its block's count (see blockInsts()).
  static constexpr const char *IrregularInsts =
      "a non-final event's insts differ from its block's count";

  static uint32_t pack(const TraceEvent &E) {
    assert(E.Branch <= 2 && "branch outcome out of range");
    return (static_cast<uint32_t>(E.Block) << 2) | E.Branch;
  }
  static void checkBlockLimit(uint64_t N);
  /// Per-block bookkeeping ahead of appending \p N copies of \p E:
  /// sizes the per-block tables, refuses events the packed form cannot
  /// hold, takes the block's instruction count from its first occurrence,
  /// and keeps the final event's count. A deviating event is only
  /// harmless while it stays the final one.
  void noteBlock(const TraceEvent &E, uint64_t N) {
    if (Final.size() <= E.Block) {
      checkBlockLimit(uint64_t(E.Block) + 1);
      Final.resize(E.Block + 1);
      BlockInsts.resize(E.Block + 1);
    }
    if (LastDeviates || (N > 1 && Final[E.Block].Use != 0 &&
                         E.Insts != BlockInsts[E.Block]))
      throw std::invalid_argument(IrregularInsts);
    if (Final[E.Block].Use == 0)
      BlockInsts[E.Block] = E.Insts;
    LastDeviates = E.Insts != BlockInsts[E.Block];
    FinalInsts = E.Insts;
  }

  /// One word per event: (Block << 2) | Branch.
  std::vector<uint32_t> Events;
  static_assert(sizeof(decltype(Events)::value_type) == 4,
                "a resident event is one 32-bit word");
  std::vector<profile::BlockCounters> Final;
  std::vector<uint32_t> BlockInsts;
  size_t NumBlocks = 0;
  uint64_t TotalInsts = 0;
  uint64_t TakenEvents = 0;
  /// The final event's instruction count, and whether it differs from
  /// its block's count (then nothing may follow it).
  uint32_t FinalInsts = 0;
  bool LastDeviates = false;
  std::string Name;
  /// Lazily-built index (see index()). Mutable: the index is a cache of a
  /// pure function of the trace, not logical state. Copies and moves of
  /// the trace share the built index; each trace has its own lock.
  struct IndexSlot {
    IndexSlot() = default;
    IndexSlot(const IndexSlot &Other) : Ptr(Other.get()) {}
    IndexSlot(IndexSlot &&Other) noexcept : Ptr(Other.get()) {}
    IndexSlot &operator=(const IndexSlot &Other) {
      std::shared_ptr<const TraceIndex> P = Other.get();
      std::lock_guard<std::mutex> Guard(Lock);
      Ptr = std::move(P);
      return *this;
    }
    IndexSlot &operator=(IndexSlot &&Other) noexcept { return *this = Other; }
    std::shared_ptr<const TraceIndex> get() const {
      std::lock_guard<std::mutex> Guard(Lock);
      return Ptr;
    }
    mutable std::mutex Lock;
    std::shared_ptr<const TraceIndex> Ptr;
  };
  mutable IndexSlot Index;
};

/// Derives the snapshot for one policy per threshold (plus the
/// profiling-only snapshot) from a recorded trace, byte-identical to a
/// live DbtEngine run of the same execution per threshold. Thresholds must
/// be positive.
///
/// The profiling-only snapshot (Average) is closed form
/// (dbt::TranslationPolicy::profilingOnly), so a threshold-free call
/// never builds the trace's index.
///
/// Non-adaptive policies are evaluated *analytically* from the trace's
/// TraceIndex: the freeze timeline is reconstructed from per-block
/// occurrence positions (registration at the T-th occurrence, the
/// registered-twice trigger at the 2T-th), frozen counters come from
/// prefix-sum differences, region formation and cost accounting run
/// exactly as in the pump on those counters, and only the optimized
/// sub-stream (events of frozen blocks after their freeze) is walked —
/// with single-node loop regions folded into closed form. Duplicate
/// thresholds share one evaluation, and the per-threshold units are
/// dispatched on up to \p Jobs worker threads (results are identical at
/// any job count).
///
/// Adaptive policies (frozen blocks can thaw, so no static freeze
/// timeline exists) fall back to replaySweepEvents().
SweepResult replaySweep(const BlockTrace &Trace, const guest::Program &P,
                        const std::vector<uint64_t> &Thresholds,
                        const dbt::DbtOptions &Base, unsigned Jobs = 1);

/// The plain event pump: every trace event updates the shared counters and
/// goes to every policy's onBlockEvent(), exactly as DbtEngine::run does
/// live; the Average is the same closed form replaySweep uses. Kept as the
/// adaptive-mode path and as the reference the analytic path above is
/// checked against.
SweepResult replaySweepEvents(const BlockTrace &Trace,
                              const guest::Program &P,
                              const std::vector<uint64_t> &Thresholds,
                              const dbt::DbtOptions &Base);

} // namespace core
} // namespace tpdbt

#endif // TPDBT_CORE_TRACE_H
