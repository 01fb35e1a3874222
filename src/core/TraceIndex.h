//===- core/TraceIndex.h - Analytic replay index over a trace ---*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A positional index over one recorded BlockTrace that turns the event
/// stream into O(1)/O(log) queries, so non-adaptive translation policies
/// can be evaluated *analytically* instead of by pumping every event
/// through every policy (see core::replaySweep).
///
/// The key observation (paper Section 3.1): a block's counters freeze the
/// moment its use count reaches the retranslation threshold T, and for a
/// fixed trace that moment is a pure function of the trace — the position
/// of the block's T-th occurrence. The index therefore stores:
///
///  - per-block occurrence positions in CSR layout (one flat uint32_t
///    event-position array plus per-block begin offsets), giving the
///    freeze event of block b under threshold T as occ[b][T-1];
///  - per-block taken-bit and instruction prefix sums, giving any block's
///    counters "as of event p" as two prefix differences;
///  - global instruction/taken prefix sums over the whole stream for
///    closed-form tail accounting.
///
/// Building the index is two O(events) passes over the decoded trace; it
/// is built at most once per in-memory trace (see BlockTrace::index())
/// and never persisted: rebuilding it costs a fraction of what writing
/// and reading back the (much larger than the trace) arrays would.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_CORE_TRACEINDEX_H
#define TPDBT_CORE_TRACEINDEX_H

#include "guest/Program.h"
#include "profile/Profile.h"

#include <cstdint>
#include <string>
#include <vector>

namespace tpdbt {
namespace core {

class BlockTrace;

/// Immutable positional index over one BlockTrace (see file comment).
/// Event positions are uint32_t; the largest full-scale recording is
/// ~10^8 events, and build() refuses anything at or past 2^32.
class TraceIndex {
public:
  /// Builds the index for \p Trace in two linear passes. Throws
  /// std::length_error (see checkPositionLimit) when the trace has too
  /// many events for 32-bit positions.
  static TraceIndex build(const BlockTrace &Trace);

  /// The 32-bit position limit, checked in every build type: throws
  /// std::length_error naming \p TraceName and \p NumEvents when
  /// \p NumEvents >= 2^32, since positions past it would silently
  /// truncate.
  static void checkPositionLimit(uint64_t NumEvents,
                                 const std::string &TraceName);

  size_t numBlocks() const { return BlockBegin.size() - 1; }
  size_t numEvents() const { return OccPos.size(); }
  uint64_t totalInsts() const { return TotalInsts; }
  uint64_t takenEvents() const { return TakenEvents; }

  /// Number of occurrences of block \p B in the trace (its final use
  /// count).
  uint32_t occurrences(guest::BlockId B) const {
    return BlockBegin[B + 1] - BlockBegin[B];
  }

  /// Event position of the (0-based) \p K-th occurrence of \p B. Under
  /// threshold T, position(B, T-1) is the event where B registers in the
  /// candidate pool and position(B, 2T-1) its registered-twice trigger.
  uint32_t position(guest::BlockId B, uint32_t K) const {
    return OccPos[BlockBegin[B] + K];
  }

  /// Occurrences of \p B at positions <= \p Pos: the shared use counter
  /// right after the event at \p Pos executes. O(log occurrences).
  uint32_t usesThrough(guest::BlockId B, uint32_t Pos) const;

  /// The occurrence rank of \p B's event at position \p Pos (which must be
  /// an occurrence of \p B). O(log occurrences).
  uint32_t occurrenceAt(guest::BlockId B, uint32_t Pos) const;

  /// Taken-branch outcomes among the first \p K occurrences of \p B.
  uint32_t takenOfFirst(guest::BlockId B, uint32_t K) const {
    return TakenPre[prefBegin(B) + K];
  }

  /// Guest instructions executed by the first \p K occurrences of \p B.
  uint64_t instsOfFirst(guest::BlockId B, uint32_t K) const {
    return InstsPre[prefBegin(B) + K];
  }

  /// Shared counters of \p B as of (and including) the event at \p Pos —
  /// what the event pump's Shared[B] holds right after that event.
  profile::BlockCounters countersThrough(guest::BlockId B,
                                         uint32_t Pos) const {
    uint32_t K = usesThrough(B, Pos);
    return {K, takenOfFirst(B, K)};
  }

  /// First occurrence rank >= \p K of \p B whose taken outcome differs
  /// from \p Taken; occurrences(B) when the rest of the stream matches.
  /// O(log occurrences) via the taken-bit prefix sums — this is what makes
  /// single-node loop regions evaluable in closed form.
  uint32_t firstOutcomeChange(guest::BlockId B, uint32_t K,
                              bool Taken) const;

  /// Guest instructions executed by events at positions < \p Pos.
  uint64_t instsBefore(uint32_t Pos) const { return GlobalInsts[Pos]; }
  /// Taken conditional branches among events at positions < \p Pos.
  uint32_t takenBefore(uint32_t Pos) const { return GlobalTaken[Pos]; }

  /// True when the index plausibly describes \p Trace (dimension and
  /// total checks).
  bool matches(const BlockTrace &Trace) const;

private:
  /// Start of block \p B's prefix-sum row. Each row holds occurrences+1
  /// entries (a leading zero), so rows are shifted by one slot per block.
  size_t prefBegin(guest::BlockId B) const {
    return static_cast<size_t>(BlockBegin[B]) + B;
  }

  /// CSR offsets: block B's occurrence positions are
  /// OccPos[BlockBegin[B] .. BlockBegin[B+1]).
  std::vector<uint32_t> BlockBegin;
  std::vector<uint32_t> OccPos;
  /// Per-block prefix sums over occurrence outcomes, rows addressed by
  /// prefBegin(); entry [row + k] covers the first k occurrences.
  std::vector<uint32_t> TakenPre;
  std::vector<uint64_t> InstsPre;
  /// Global prefix sums over event positions.
  std::vector<uint64_t> GlobalInsts;
  std::vector<uint32_t> GlobalTaken;
  uint64_t TotalInsts = 0;
  uint64_t TakenEvents = 0;
};

} // namespace core
} // namespace tpdbt

#endif // TPDBT_CORE_TRACEINDEX_H
