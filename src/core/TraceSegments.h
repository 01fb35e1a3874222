//===- core/TraceSegments.h - Sharded TPDT v3 trace container ---*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The segmented (TPDT v3) trace container, the only on-disk trace form:
/// the event stream cut into fixed-event-budget segments, each
/// independently delta-varint encoded and TPDZ-compressed, behind a header
/// that carries the per-block final counter table and a segment directory
/// (event count, payload size, and the global instruction/taken prefix-sum
/// bases at each segment start).
///
/// Segment independence is the point of the format: every segment's
/// delta encoding restarts from block 0 and its TPDZ frame is
/// self-contained, so a segment decompresses without touching any earlier
/// one (SegmentedTraceReader reads one segment at a time, which is what
/// lets sampled replay skip the segments its plan does not draw).
///
/// The writer is BlockTrace::serialize, defined in TraceSegments.cpp next
/// to the reader: a cold TraceCache miss records the whole trace, then
/// serializes it.
///
/// The exact byte layout lives in docs/CACHE_FORMAT.md. Entries in the
/// older monolithic v1/v2 layouts are not read: the cache counts them as
/// corrupt misses and overwrites them.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_CORE_TRACESEGMENTS_H
#define TPDBT_CORE_TRACESEGMENTS_H

#include "core/Trace.h"

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace tpdbt {
namespace core {

/// Floor for the TPDBT_SEGMENT_EVENTS budget: below this the per-segment
/// fixed costs (a TPDZ frame header and a directory row per segment, a
/// delta restart) dwarf the payload. Format readers accept any budget
/// >= 1; only the writer-side env knob clamps.
constexpr uint64_t MinSegmentEvents = 256;

/// The TPDBT_SEGMENT_EVENTS knob, read fresh on every call (tests flip
/// it mid-process): unset, unparsable or 0 -> DefaultSegmentEvents,
/// otherwise the value clamped up to MinSegmentEvents.
uint64_t segmentEventBudget();

/// Delta-varint encodes \p N events, with the block-id delta chain
/// restarting from 0 at the slice start.
std::string encodeSegmentEvents(const TraceEvent *Ev, size_t N);

/// Decodes one segment's raw (decompressed) payload, appending exactly
/// \p ExpectEvents events to \p Out. Rejects out-of-range block ids,
/// corrupt branch bits, truncation, and trailing bytes; an event count the
/// payload is too short to hold fails before anything is reserved.
bool decodeSegmentEvents(const std::string &Raw, uint64_t ExpectEvents,
                         size_t NumBlocks, std::vector<TraceEvent> &Out,
                         std::string *Error);

/// A parsed TPDT v3 header: everything before the payload frames. Small
/// (O(blocks + segments)) — this is all a streaming reader ever holds of
/// the file besides one segment.
struct SegmentedTraceHeader {
  uint64_t NumBlocks = 0;
  uint64_t NumEvents = 0;
  uint64_t TotalInsts = 0;
  uint64_t SegmentBudget = 0;
  /// Final per-block use/taken counters (the counter table).
  std::vector<profile::BlockCounters> Final;
  struct Entry {
    uint32_t Events = 0;
    uint64_t PayloadBytes = 0;
    uint64_t BaseInsts = 0;
    uint64_t BaseTaken = 0;
    /// Absolute file offset of the segment's TPDZ frame (computed from
    /// the directory's payload sizes).
    uint64_t PayloadOffset = 0;
  };
  std::vector<Entry> Directory;
  /// File offset of the first payload byte.
  uint64_t PayloadStart = 0;

  /// Taken-branch event total, derived from the counter table.
  uint64_t takenEvents() const;

  /// Instructions and taken branches inside segment \p I, as the
  /// directory claims them: the next row's bases (or the trace totals for
  /// the last segment) minus this row's.
  struct Span {
    uint64_t Insts = 0;
    uint64_t Taken = 0;
  };
  Span segmentSpan(size_t I) const;
};

/// Parses a v3 header from \p Bytes (a prefix of the file is enough once
/// it covers the header). \p FileSize anchors the payload-extent check:
/// the directory's payload sizes must tile [PayloadStart, FileSize)
/// exactly, and no row may claim more events than its payload can inflate
/// to. Fails on truncated input — callers with a partial prefix retry
/// with more bytes (see SegmentedTraceReader::open).
bool parseSegmentedHeader(const std::string &Bytes, uint64_t FileSize,
                          SegmentedTraceHeader &Out, std::string *Error);

/// Inflates and decodes segment \p I of the container described by \p H
/// from its TPDZ frame \p Payload into \p Out (replacing its contents;
/// capacity is reused), checking the decoded event count, the block
/// range, and the segment's instruction and taken sums against
/// H.segmentSpan(I) — a purely local check, so random-access reads stay
/// O(segment). The one segment decoder: BlockTrace::parse and
/// SegmentedTraceReader both use it.
bool decodeSegment(const SegmentedTraceHeader &H, size_t I,
                   const std::string &Payload, std::vector<TraceEvent> &Out,
                   std::string *Error);

/// Streams a TPDT v3 file segment-at-a-time: open() reads and validates
/// only the header; readSegment() seeks to one payload frame, inflates
/// and decodes it into a caller-owned buffer. Peak memory is one segment
/// (plus the header), independent of trace length. Single-threaded.
class SegmentedTraceReader {
public:
  /// Opens \p Path and parses the header. False (with \p Error) when the
  /// file is missing, not a v3 container, or fails header validation.
  static bool open(const std::string &Path, SegmentedTraceReader &Out,
                   std::string *Error);

  const SegmentedTraceHeader &header() const { return Header; }
  size_t numSegments() const { return Header.Directory.size(); }

  /// Reads segment \p I into \p Out through decodeSegment().
  bool readSegment(size_t I, std::vector<TraceEvent> &Out,
                   std::string *Error);

private:
  SegmentedTraceHeader Header;
  std::ifstream File;
  std::string Compressed; ///< payload scratch, reused across segments
};

} // namespace core
} // namespace tpdbt

#endif // TPDBT_CORE_TRACESEGMENTS_H
