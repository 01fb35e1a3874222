//===- tests/core/TraceFuzzTest.cpp - Trace decoder mutation fuzz -*- C++ -*-===//
//
// Seeded mutation fuzzing of the one on-disk trace decoder (TPDT v3):
// BlockTrace::parse and the streaming SegmentedTraceReader. A fixed-seed
// generator mutates a small corpus a few thousand times; no mutant may
// make either decoder throw, whatever decodes must be self-consistent,
// and whatever parses must build its replay index without throwing.
//
//===----------------------------------------------------------------------===//

#include "TraceFixtures.h"
#include "core/Trace.h"
#include "core/TraceIndex.h"
#include "core/TraceSegments.h"
#include "support/Rng.h"
#include "support/TextFile.h"
#include "workloads/BenchSpec.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

using namespace tpdbt;
using namespace tpdbt::core;

namespace {

constexpr int NumMutants = 3000;

std::vector<std::string> corpus() {
  auto B = workloads::generateBenchmark(
      workloads::scaledSpec(*workloads::findSpec("eon"), 0.01));
  std::vector<std::string> Out;
  // Dozens of segments, so payload frames make up most of the file and
  // mutants reach the segment decoder, not just the header checks.
  Out.push_back(BlockTrace::record(B.Ref, 20000).serialize(256));
  for (const testfixtures::HostileHeader &F : testfixtures::hostileHeaders())
    Out.push_back(F.Bytes);
  Out.push_back(testfixtures::oversizedEventClaim());
  return Out;
}

/// Applies one random mutation: a bit flip, a 0x00/0x80/0xff byte store,
/// a truncation, or the duplication or deletion of a short byte range.
void mutate(std::string &Bytes, Rng &R) {
  if (Bytes.empty()) {
    Bytes.push_back(static_cast<char>(R.next()));
    return;
  }
  const size_t At = R.nextBelow(Bytes.size());
  const size_t Len =
      1 + R.nextBelow(std::min<uint64_t>(32, Bytes.size() - At));
  switch (R.nextBelow(5)) {
  case 0:
    Bytes[At] = static_cast<char>(Bytes[At] ^ (1u << R.nextBelow(8)));
    break;
  case 1: {
    static const unsigned char Stores[] = {0x00, 0x80, 0xff};
    Bytes[At] = static_cast<char>(Stores[R.nextBelow(3)]);
    break;
  }
  case 2:
    Bytes.resize(At);
    break;
  case 3:
    Bytes.insert(At + Len, Bytes.substr(At, Len));
    break;
  default:
    Bytes.erase(At, Len);
    break;
  }
}

/// Parses \p Bytes and, when that succeeds, checks the trace against its
/// own counters. Returns whether it parsed.
bool checkParse(const std::string &Bytes, BlockTrace &T) {
  std::string Error;
  if (!BlockTrace::parse(Bytes, T, &Error)) {
    EXPECT_FALSE(Error.empty());
    return false;
  }
  uint64_t Uses = 0, Taken = 0, Insts = 0, TakenEvents = 0;
  for (const profile::BlockCounters &C : T.finalCounts()) {
    Uses += C.Use;
    Taken += C.Taken;
  }
  for (size_t I = 0; I < T.numEvents(); ++I) {
    Insts += T.event(I).Insts;
    TakenEvents += T.event(I).Branch == 2;
    EXPECT_LT(T.event(I).Block, T.numBlocks());
  }
  EXPECT_EQ(T.numEvents(), Uses);
  EXPECT_EQ(T.takenEvents(), Taken);
  EXPECT_EQ(T.takenEvents(), TakenEvents);
  EXPECT_EQ(T.totalInsts(), Insts);
  EXPECT_NO_THROW(TraceIndex::build(T));
  return true;
}

/// Opens \p Path with the streaming reader and reads every segment. When
/// all of them decode, their union must match the header's totals and,
/// if the whole-trace parse accepted the same bytes, its events.
void checkReader(const std::string &Path, bool Parsed, const BlockTrace &T) {
  SegmentedTraceReader Reader;
  std::string Error;
  if (!SegmentedTraceReader::open(Path, Reader, &Error)) {
    EXPECT_FALSE(Parsed) << "parse accepted what the reader rejects: "
                         << Error;
    return;
  }
  const SegmentedTraceHeader &H = Reader.header();
  std::vector<TraceEvent> Seg;
  uint64_t Events = 0, Insts = 0, Taken = 0;
  bool AllRead = true;
  for (size_t I = 0; I < Reader.numSegments(); ++I) {
    if (!Reader.readSegment(I, Seg, &Error)) {
      AllRead = false;
      continue;
    }
    EXPECT_EQ(Seg.size(), H.Directory[I].Events);
    for (const TraceEvent &E : Seg) {
      if (Parsed && Events < T.numEvents()) {
        EXPECT_EQ(E.Block, T.event(Events).Block);
        EXPECT_EQ(E.Branch, T.event(Events).Branch);
        EXPECT_EQ(E.Insts, T.event(Events).Insts);
      }
      ++Events;
      Insts += E.Insts;
      Taken += E.Branch == 2;
    }
  }
  if (Parsed) {
    EXPECT_TRUE(AllRead) << "reader rejects a segment parse accepted";
  }
  if (!AllRead)
    return;
  EXPECT_EQ(Events, H.NumEvents);
  EXPECT_EQ(Insts, H.TotalInsts);
  EXPECT_EQ(Taken, H.takenEvents());
  if (Parsed) {
    EXPECT_EQ(Events, T.numEvents());
  }
}

} // namespace

TEST(TraceFuzzTest, MutantsNeverThrowAndDecodeConsistently) {
  const std::vector<std::string> Seeds = corpus();
  {
    BlockTrace Seed;
    ASSERT_TRUE(checkParse(Seeds.front(), Seed));
    ASSERT_GT(Seed.numEvents(), 20u * 256);
  }
  const std::string Path =
      (std::filesystem::temp_directory_path() /
       ("tpdbt_trace_fuzz_" + std::to_string(getpid()) + ".trace"))
          .string();
  Rng R(0xf022);
  int Parsed = 0;
  for (int M = 0; M < NumMutants; ++M) {
    // Half the mutants start from the recording, the rest from any seed.
    std::string Bytes =
        Seeds[R.nextBelow(2) ? 0 : R.nextBelow(Seeds.size())];
    for (uint64_t K = 1 + R.nextBelow(3); K > 0; --K)
      mutate(Bytes, R);
    SCOPED_TRACE("mutant " + std::to_string(M));
    try {
      BlockTrace T;
      const bool Ok = checkParse(Bytes, T);
      Parsed += Ok;
      ASSERT_TRUE(writeTextFile(Path, Bytes));
      checkReader(Path, Ok, T);
    } catch (const std::exception &E) {
      ADD_FAILURE() << "decoder threw: " << E.what();
    }
    if (HasFatalFailure())
      break;
  }
  std::filesystem::remove(Path);
  // Almost every mutation breaks a checked invariant.
  EXPECT_LT(Parsed, NumMutants / 2);
}
