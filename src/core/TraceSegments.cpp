//===- core/TraceSegments.cpp - Sharded TPDT v3 trace container ------------===//

#include "core/TraceSegments.h"

#include "support/Compression.h"
#include "support/Varint.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

using namespace tpdbt;
using namespace tpdbt::core;
using namespace tpdbt::guest;

uint64_t tpdbt::core::segmentEventBudget() {
  const char *Env = std::getenv("TPDBT_SEGMENT_EVENTS");
  if (!Env || !*Env)
    return DefaultSegmentEvents;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Env, &End, 10);
  if (End == Env || *End != '\0' || V == 0)
    return DefaultSegmentEvents;
  return std::max<uint64_t>(V, MinSegmentEvents);
}

std::string tpdbt::core::encodeSegmentEvents(const TraceEvent *Ev, size_t N) {
  std::string Out;
  Out.reserve(N * 3); // typical traces take 2-3 bytes per event
  int64_t PrevBlock = 0;
  for (size_t I = 0; I < N; ++I) {
    const int64_t Delta = static_cast<int64_t>(Ev[I].Block) - PrevBlock;
    PrevBlock = static_cast<int64_t>(Ev[I].Block);
    putVarint(Out, (zigzagEncode(Delta) << 2) | Ev[I].Branch);
    putVarint(Out, Ev[I].Insts);
  }
  return Out;
}

bool tpdbt::core::decodeSegmentEvents(const std::string &Raw,
                                      uint64_t ExpectEvents, size_t NumBlocks,
                                      std::vector<TraceEvent> &Out,
                                      std::string *Error) {
  auto Fail = [&](const char *Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };
  // Every event takes at least two payload bytes (two varints), so this
  // bounds the reservation by the real payload, not the caller's claim.
  if (ExpectEvents > Raw.size() / 2)
    return Fail("truncated segment event");
  Out.reserve(Out.size() + ExpectEvents);
  size_t Pos = 0;
  int64_t PrevBlock = 0;
  for (uint64_t I = 0; I < ExpectEvents; ++I) {
    uint64_t Packed = 0, Insts = 0;
    if (!getVarint(Raw, Pos, Packed) || !getVarint(Raw, Pos, Insts))
      return Fail("truncated segment event");
    TraceEvent E;
    E.Branch = static_cast<uint8_t>(Packed & 3);
    if (E.Branch > 2)
      return Fail("corrupt branch bits");
    const int64_t Block = PrevBlock + zigzagDecode(Packed >> 2);
    if (Block < 0 || static_cast<uint64_t>(Block) >= NumBlocks)
      return Fail("block id out of range");
    if (Insts >= (uint64_t(1) << 32))
      return Fail("event instruction count overflows");
    PrevBlock = Block;
    E.Block = static_cast<BlockId>(Block);
    E.Insts = static_cast<uint32_t>(Insts);
    Out.push_back(E);
  }
  if (Pos != Raw.size())
    return Fail("trailing bytes after segment events");
  return true;
}

namespace {

constexpr char Magic[4] = {'T', 'P', 'D', 'T'};
constexpr uint8_t SegmentedVersion = 3;

} // namespace

std::string BlockTrace::serialize(uint64_t Budget) const {
  assert(Budget >= 1 && "segment budget must be positive");
  // Cut the stream into budget-sized segments: each one's payload is
  // encoded and compressed on its own, and its directory row carries the
  // global prefix sums at its start.
  std::string Directory, Payloads;
  uint64_t NumSegments = 0, RunInsts = 0, RunTaken = 0;
  for (size_t At = 0; At < Events.size(); ++NumSegments) {
    const size_t N =
        static_cast<size_t>(std::min<uint64_t>(Budget, Events.size() - At));
    const std::string Payload =
        compressBytes(encodeSegmentEvents(&Events[At], N));
    putVarint(Directory, N);
    putVarint(Directory, Payload.size());
    putVarint(Directory, RunInsts);
    putVarint(Directory, RunTaken);
    Payloads += Payload;
    for (const size_t End = At + N; At < End; ++At) {
      RunInsts += Events[At].Insts;
      if (Events[At].Branch == 2)
        ++RunTaken;
    }
  }

  std::string Out(Magic, 4);
  Out.push_back(static_cast<char>(SegmentedVersion));
  putVarint(Out, NumBlocks);
  putVarint(Out, Events.size());
  putVarint(Out, TotalInsts);
  putVarint(Out, Budget);
  putVarint(Out, NumSegments);
  for (size_t B = 0; B < NumBlocks; ++B) {
    putVarint(Out, Final[B].Use);
    putVarint(Out, Final[B].Taken);
  }
  Out.reserve(Out.size() + Directory.size() + Payloads.size());
  Out += Directory;
  Out += Payloads;
  return Out;
}

uint64_t SegmentedTraceHeader::takenEvents() const {
  uint64_t Taken = 0;
  for (const profile::BlockCounters &C : Final)
    Taken += C.Taken;
  return Taken;
}

SegmentedTraceHeader::Span SegmentedTraceHeader::segmentSpan(size_t I) const {
  assert(I < Directory.size() && "segment index out of range");
  const Entry &E = Directory[I];
  const bool Last = I + 1 == Directory.size();
  Span S;
  S.Insts = (Last ? TotalInsts : Directory[I + 1].BaseInsts) - E.BaseInsts;
  S.Taken = (Last ? takenEvents() : Directory[I + 1].BaseTaken) - E.BaseTaken;
  return S;
}

bool tpdbt::core::parseSegmentedHeader(const std::string &Bytes,
                                       uint64_t FileSize,
                                       SegmentedTraceHeader &Out,
                                       std::string *Error) {
  auto Fail = [&](const char *Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };
  if (Bytes.size() < 5 || Bytes.compare(0, 4, Magic, 4) != 0)
    return Fail("bad trace magic");
  if (static_cast<uint8_t>(Bytes[4]) != SegmentedVersion)
    return Fail("unsupported trace version");
  size_t Pos = 5;
  SegmentedTraceHeader H;
  uint64_t NumSegments = 0;
  if (!getVarint(Bytes, Pos, H.NumBlocks) ||
      !getVarint(Bytes, Pos, H.NumEvents) ||
      !getVarint(Bytes, Pos, H.TotalInsts) ||
      !getVarint(Bytes, Pos, H.SegmentBudget) ||
      !getVarint(Bytes, Pos, NumSegments))
    return Fail("truncated segmented trace header");
  // Each block costs >= 2 counter-table bytes and each segment >= 4
  // directory bytes plus a payload frame, so counts exceeding those
  // budgets against the file size mark corruption before any allocation
  // is sized from an attacker-controlled field. Segments hold at least
  // one event each.
  if (H.NumBlocks > FileSize / 2 || H.NumEvents >= (uint64_t(1) << 32) ||
      NumSegments > H.NumEvents || NumSegments > FileSize / 4)
    return Fail("implausible segmented trace header");
  if (H.SegmentBudget == 0)
    return Fail("segmented trace with zero budget");

  H.Final.resize(H.NumBlocks);
  uint64_t SumUse = 0;
  for (uint64_t B = 0; B < H.NumBlocks; ++B) {
    if (!getVarint(Bytes, Pos, H.Final[B].Use) ||
        !getVarint(Bytes, Pos, H.Final[B].Taken))
      return Fail("truncated trace counter table");
    // Per-entry bounds before accumulating, so a crafted huge counter can
    // never wrap SumUse back onto the expected total.
    if (H.Final[B].Use > H.NumEvents || H.Final[B].Taken > H.Final[B].Use)
      return Fail("counter table entry exceeds event count");
    SumUse += H.Final[B].Use;
    if (SumUse > H.NumEvents)
      return Fail("counter table disagrees with event count");
  }
  if (SumUse != H.NumEvents)
    return Fail("counter table disagrees with event count");

  H.Directory.resize(NumSegments);
  uint64_t SumEvents = 0, SumPayload = 0, RunInsts = 0, RunTaken = 0;
  for (uint64_t S = 0; S < NumSegments; ++S) {
    SegmentedTraceHeader::Entry &Ent = H.Directory[S];
    uint64_t Events = 0;
    if (!getVarint(Bytes, Pos, Events) ||
        !getVarint(Bytes, Pos, Ent.PayloadBytes) ||
        !getVarint(Bytes, Pos, Ent.BaseInsts) ||
        !getVarint(Bytes, Pos, Ent.BaseTaken))
      return Fail("truncated segment directory");
    if (Events == 0 || Events > H.SegmentBudget || Events > H.NumEvents)
      return Fail("segment event count outside budget");
    // A segment holds >= 1 event, so its compressed payload is never
    // empty; and no payload can exceed the file that contains it. Both
    // checks keep readSegment's payload buffer (sized from this field)
    // bounded by the real file size.
    if (Ent.PayloadBytes == 0 || Ent.PayloadBytes > FileSize)
      return Fail("segment payload size implausible");
    // Each event decodes from >= 2 raw bytes and the raw size is bounded
    // by the frame size, so the row's event count (which sizes the
    // decoders' reservations) is bounded by the bytes actually present.
    if (Events > maxInflatedBytes(Ent.PayloadBytes) / 2)
      return Fail("segment event count exceeds its payload");
    if (Ent.BaseInsts < RunInsts || Ent.BaseTaken < RunTaken)
      return Fail("segment bases not monotone");
    if (S == 0 && (Ent.BaseInsts != 0 || Ent.BaseTaken != 0))
      return Fail("first segment bases nonzero");
    Ent.Events = static_cast<uint32_t>(Events);
    SumEvents += Events;
    SumPayload += Ent.PayloadBytes;
    if (SumEvents > H.NumEvents || SumPayload > FileSize)
      return Fail("segment directory sums exceed file");
    RunInsts = Ent.BaseInsts;
    RunTaken = Ent.BaseTaken;
  }
  if (SumEvents != H.NumEvents)
    return Fail("segment directory disagrees with event count");
  if (RunInsts > H.TotalInsts || RunTaken > H.takenEvents())
    return Fail("segment bases exceed trace totals");

  H.PayloadStart = Pos;
  uint64_t Offset = Pos;
  for (SegmentedTraceHeader::Entry &Ent : H.Directory) {
    Ent.PayloadOffset = Offset;
    Offset += Ent.PayloadBytes;
  }
  // The payload frames must tile the rest of the file exactly; a short
  // file is torn, a long one has trailing bytes.
  if (Offset != FileSize)
    return Fail("segment payloads disagree with file size");
  Out = std::move(H);
  return true;
}

bool SegmentedTraceReader::open(const std::string &Path,
                                SegmentedTraceReader &Out,
                                std::string *Error) {
  auto Fail = [&](const char *Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };
  SegmentedTraceReader R;
  R.File.open(Path, std::ios::binary);
  if (!R.File)
    return Fail("cannot open trace file");
  R.File.seekg(0, std::ios::end);
  const uint64_t FileSize = static_cast<uint64_t>(R.File.tellg());
  // Grow-and-retry header read: varints make the header length
  // data-dependent, so read a prefix, try to parse, and double until the
  // parse stops failing or the prefix is the whole file (then the
  // failure is real corruption, not truncation).
  std::string Prefix;
  for (uint64_t Want = std::min<uint64_t>(FileSize, 64 * 1024);;
       Want = std::min<uint64_t>(FileSize, Want * 2)) {
    Prefix.resize(Want);
    R.File.seekg(0);
    if (Want && !R.File.read(Prefix.data(), static_cast<std::streamsize>(Want)))
      return Fail("cannot read trace file");
    std::string ParseError;
    if (parseSegmentedHeader(Prefix, FileSize, R.Header, &ParseError)) {
      R.File.clear();
      Out = std::move(R);
      return true;
    }
    if (Want == FileSize) {
      if (Error)
        *Error = ParseError;
      return false;
    }
  }
}

bool tpdbt::core::decodeSegment(const SegmentedTraceHeader &H, size_t I,
                                const std::string &Payload,
                                std::vector<TraceEvent> &Out,
                                std::string *Error) {
  assert(I < H.Directory.size() && "segment index out of range");
  std::string Raw;
  if (!decompressBytes(Payload, Raw, Error))
    return false;
  Out.clear();
  if (!decodeSegmentEvents(Raw, H.Directory[I].Events, H.NumBlocks, Out,
                           Error))
    return false;
  SegmentedTraceHeader::Span Got;
  for (const TraceEvent &E : Out) {
    Got.Insts += E.Insts;
    Got.Taken += E.Branch == 2 ? 1 : 0;
  }
  const SegmentedTraceHeader::Span Want = H.segmentSpan(I);
  if (Got.Insts != Want.Insts || Got.Taken != Want.Taken) {
    if (Error)
      *Error = "segment events disagree with directory bases";
    return false;
  }
  return true;
}

bool SegmentedTraceReader::readSegment(size_t I, std::vector<TraceEvent> &Out,
                                       std::string *Error) {
  auto Fail = [&](const char *Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };
  assert(I < Header.Directory.size() && "segment index out of range");
  const SegmentedTraceHeader::Entry &Ent = Header.Directory[I];
  Compressed.resize(Ent.PayloadBytes);
  File.clear();
  File.seekg(static_cast<std::streamoff>(Ent.PayloadOffset));
  if (!File.read(Compressed.data(),
                 static_cast<std::streamsize>(Ent.PayloadBytes)))
    return Fail("cannot read segment payload");
  return decodeSegment(Header, I, Compressed, Out, Error);
}
