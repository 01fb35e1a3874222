//===- tests/core/TraceFixtures.h - Hand-built TPDT v3 bytes ----*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-built TPDT v3 containers shared by the trace, segment-format and
/// decoder fuzz tests: hostile headers, each of which must be rejected by
/// parseSegmentedHeader without sizing an allocation from the field it
/// lies about, and a reference writer that builds a container from any
/// event vector.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_TESTS_CORE_TRACEFIXTURES_H
#define TPDBT_TESTS_CORE_TRACEFIXTURES_H

#include "core/TraceSegments.h"
#include "support/Compression.h"
#include "support/Varint.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace tpdbt {
namespace testfixtures {

/// The fixed v3 header fields, up to (not including) the counter table.
inline std::string v3Header(uint64_t Blocks, uint64_t Events, uint64_t Insts,
                            uint64_t Budget, uint64_t Segments) {
  std::string Out("TPDT", 4);
  Out.push_back(3); // segmented version
  putVarint(Out, Blocks);
  putVarint(Out, Events);
  putVarint(Out, Insts);
  putVarint(Out, Budget);
  putVarint(Out, Segments);
  return Out;
}

/// Appends one counter-table row or one directory row.
inline void putRow(std::string &Out, std::initializer_list<uint64_t> Fields) {
  for (uint64_t F : Fields)
    putVarint(Out, F);
}

struct HostileHeader {
  const char *What;
  /// Header bytes; the claimed file is Bytes.size() + FileSlack long, so
  /// the fixtures whose payload would follow need not spell it out.
  std::string Bytes;
  uint64_t FileSlack = 0;
  /// A substring of the expected error, or null when any error will do.
  const char *ErrorPart = nullptr;
};

/// Containers whose header or directory lies about a count or size.
inline std::vector<HostileHeader> hostileHeaders() {
  std::vector<HostileHeader> Out;
  // Segment count far beyond what the file could hold: rejected before
  // the directory vector is sized.
  Out.push_back({"segment count", v3Header(1, 4, 10, 256, uint64_t(1) << 40)});
  // Block count beyond the file size.
  Out.push_back({"block count", v3Header(uint64_t(1) << 40, 4, 10, 256, 1)});
  Out.push_back({"zero budget", v3Header(1, 4, 10, 0, 1)});
  // A counter-table entry claiming more uses than the trace has events
  // (a final sum check alone could be wrapped past by a second huge one).
  {
    HostileHeader F{"use above event count", v3Header(2, 4, 10, 256, 1), 64,
                    "counter table"};
    putRow(F.Bytes, {5, 0, 0, 0});
    Out.push_back(F);
  }
  {
    HostileHeader F{"taken above use", v3Header(1, 4, 10, 256, 1), 64};
    putRow(F.Bytes, {4, 5});
    Out.push_back(F);
  }
  // Directory rows: Events, PayloadBytes, BaseInsts, BaseTaken.
  {
    HostileHeader F{"empty segment", v3Header(1, 4, 10, 256, 1), 8,
                    "outside budget"};
    putRow(F.Bytes, {4, 0, 0, 8, 0, 0});
    Out.push_back(F);
  }
  // An event count that overflows its segment budget (and would
  // otherwise be narrowed to uint32).
  {
    HostileHeader F{"events beyond budget", v3Header(1, 4, 10, 256, 1), 8};
    putRow(F.Bytes, {4, 0, (uint64_t(1) << 32) + 4, 8, 0, 0});
    Out.push_back(F);
  }
  // Segments hold >= 1 event, so their payload can never be empty.
  {
    HostileHeader F{"empty payload", v3Header(1, 4, 10, 256, 1), 8,
                    "payload size"};
    putRow(F.Bytes, {4, 0, 4, 0, 0, 0});
    Out.push_back(F);
  }
  {
    HostileHeader F{"payload beyond file", v3Header(1, 4, 10, 256, 1), 8};
    putRow(F.Bytes, {4, 0, 4, uint64_t(1) << 40, 0, 0});
    Out.push_back(F);
  }
  return Out;
}

/// A reference TPDT v3 writer independent of BlockTrace::serialize: the
/// container of \p Events over \p Blocks blocks at \p Budget events per
/// segment, with the counter table, totals and directory bases summed
/// from the events themselves. It holds whatever it is given, so it also
/// builds containers no BlockTrace could hold.
inline std::string v3Container(const std::vector<core::TraceEvent> &Events,
                               uint64_t Blocks, uint64_t Budget) {
  std::vector<uint64_t> Use(Blocks, 0), Taken(Blocks, 0);
  uint64_t Insts = 0;
  for (const core::TraceEvent &E : Events) {
    ++Use[E.Block];
    Taken[E.Block] += E.Branch == 2;
    Insts += E.Insts;
  }
  std::string Directory, Payloads;
  uint64_t Segments = 0, RunInsts = 0, RunTaken = 0;
  for (size_t At = 0; At < Events.size(); ++Segments) {
    const size_t N = std::min<size_t>(Budget, Events.size() - At);
    const std::string Payload =
        compressBytes(core::encodeSegmentEvents(&Events[At], N));
    putRow(Directory, {N, Payload.size(), RunInsts, RunTaken});
    Payloads += Payload;
    for (const size_t End = At + N; At < End; ++At) {
      RunInsts += Events[At].Insts;
      RunTaken += Events[At].Branch == 2;
    }
  }
  std::string Out = v3Header(Blocks, Events.size(), Insts, Budget, Segments);
  for (uint64_t B = 0; B < Blocks; ++B)
    putRow(Out, {Use[B], Taken[B]});
  return Out + Directory + Payloads;
}

/// A complete, otherwise well-formed one-block container whose single
/// segment claims 2^32 - 1 events backed by a valid one-event payload.
/// Every sum in the header agrees with the claim, so only the bound
/// between a row's event count and its payload size rejects it; without
/// that bound, decoding reserves ~48 GiB of events up front.
inline std::string oversizedEventClaim() {
  const uint64_t Claimed = 0xffffffffu;
  const core::TraceEvent E{0, 0, 5};
  const std::string Payload = compressBytes(core::encodeSegmentEvents(&E, 1));
  std::string Out = v3Header(1, Claimed, E.Insts, Claimed, 1);
  putRow(Out, {Claimed, 0});                 // counter table
  putRow(Out, {Claimed, Payload.size(), 0, 0}); // directory
  return Out + Payload;
}

} // namespace testfixtures
} // namespace tpdbt

#endif // TPDBT_TESTS_CORE_TRACEFIXTURES_H
