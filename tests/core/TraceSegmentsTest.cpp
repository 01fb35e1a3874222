//===- tests/core/TraceSegmentsTest.cpp - Segmented trace tests -*- C++ -*-===//

#include "core/TraceSegments.h"

#include "TestSupport.h"
#include "TraceFixtures.h"
#include "core/TraceCache.h"
#include "support/Compression.h"
#include "support/Rng.h"
#include "support/TextFile.h"
#include "support/Varint.h"
#include "workloads/BenchSpec.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

using namespace tpdbt;
using namespace tpdbt::core;

namespace {

workloads::GeneratedBenchmark smallBench(const char *Name) {
  return workloads::generateBenchmark(
      workloads::scaledSpec(*workloads::findSpec(Name), 0.01));
}

std::string tempDir(const char *Tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("tpdbt_") + Tag + "_" + std::to_string(getpid())))
      .string();
}

void expectSameEvents(const BlockTrace &A, const BlockTrace &B,
                      const char *Label) {
  ASSERT_EQ(A.numEvents(), B.numEvents()) << Label;
  ASSERT_EQ(A.numBlocks(), B.numBlocks()) << Label;
  EXPECT_EQ(A.totalInsts(), B.totalInsts()) << Label;
  EXPECT_EQ(A.takenEvents(), B.takenEvents()) << Label;
  for (size_t I = 0; I < A.numEvents(); ++I) {
    ASSERT_EQ(A.event(I).Block, B.event(I).Block) << Label << " @" << I;
    ASSERT_EQ(A.event(I).Branch, B.event(I).Branch) << Label << " @" << I;
    ASSERT_EQ(A.event(I).Insts, B.event(I).Insts) << Label << " @" << I;
  }
}

void expectSameSweep(const SweepResult &A, const SweepResult &B,
                     size_t Thresholds, const char *Label) {
  ASSERT_EQ(A.PerThreshold.size(), Thresholds) << Label;
  ASSERT_EQ(B.PerThreshold.size(), Thresholds) << Label;
  for (size_t I = 0; I < Thresholds; ++I)
    EXPECT_EQ(profile::printSnapshot(A.PerThreshold[I]),
              profile::printSnapshot(B.PerThreshold[I]))
        << Label << " #" << I;
  EXPECT_EQ(profile::printSnapshot(A.Average),
            profile::printSnapshot(B.Average))
      << Label;
}

} // namespace

TEST(TraceSegmentsTest, BudgetKnobParsesAndClamps) {
  testsupport::ScopedEnv Budget("TPDBT_SEGMENT_EVENTS", nullptr);
  EXPECT_EQ(segmentEventBudget(), DefaultSegmentEvents);
  Budget.set("0");
  EXPECT_EQ(segmentEventBudget(), DefaultSegmentEvents); // no monolithic mode
  Budget.set("1");
  EXPECT_EQ(segmentEventBudget(), MinSegmentEvents); // clamped up
  Budget.set("4096");
  EXPECT_EQ(segmentEventBudget(), 4096u);
  Budget.set("garbage");
  EXPECT_EQ(segmentEventBudget(), DefaultSegmentEvents);
  Budget.set("12x");
  EXPECT_EQ(segmentEventBudget(), DefaultSegmentEvents);
}

TEST(TraceSegmentsTest, SegmentEncodeDecodeRoundTrip) {
  auto B = smallBench("gzip");
  BlockTrace T = BlockTrace::record(B.Ref, 2000);
  ASSERT_GT(T.numEvents(), 100u);
  // Slice out of the middle: the delta chain must restart cleanly.
  const size_t At = 37, N = 101;
  std::vector<TraceEvent> Slice;
  for (size_t I = 0; I < N; ++I)
    Slice.push_back(T.event(At + I));
  std::string Raw = encodeSegmentEvents(Slice.data(), N);
  std::vector<TraceEvent> Out;
  std::string Error;
  ASSERT_TRUE(decodeSegmentEvents(Raw, N, T.numBlocks(), Out, &Error))
      << Error;
  ASSERT_EQ(Out.size(), N);
  for (size_t I = 0; I < N; ++I) {
    EXPECT_EQ(Out[I].Block, T.event(At + I).Block);
    EXPECT_EQ(Out[I].Branch, T.event(At + I).Branch);
    EXPECT_EQ(Out[I].Insts, T.event(At + I).Insts);
  }
  // Wrong expectations are rejected.
  Out.clear();
  EXPECT_FALSE(decodeSegmentEvents(Raw, N + 1, T.numBlocks(), Out, nullptr));
  Out.clear();
  EXPECT_FALSE(decodeSegmentEvents(Raw, N - 1, T.numBlocks(), Out, nullptr));
}

TEST(TraceSegmentsTest, SegmentedRoundTripAtManyBudgets) {
  auto B = smallBench("art");
  BlockTrace T = BlockTrace::record(B.Ref, 3000);
  const uint64_t E = T.numEvents();
  ASSERT_GT(E, 100u);
  const std::string Canonical = T.serialize();
  const uint64_t Budgets[] = {1,     2,     3,     7,    100,
                              1000,  E,     E + 10, 1u << 20};
  for (uint64_t Budget : Budgets) {
    std::string Bytes = T.serialize(Budget);
    BlockTrace Q;
    std::string Error;
    ASSERT_TRUE(BlockTrace::parse(Bytes, Q, &Error))
        << "budget " << Budget << ": " << Error;
    expectSameEvents(T, Q, "segmented round trip");
    // The reparsed trace re-serializes to the default-budget bytes: the
    // segmentation is pure container framing, invisible to the events.
    EXPECT_EQ(Q.serialize(), Canonical) << "budget " << Budget;
  }
}

TEST(TraceSegmentsTest, SegmentedRoundTripRandomizedBudgets) {
  auto B = smallBench("vpr");
  BlockTrace T = BlockTrace::record(B.Ref, 5000);
  const std::string Canonical = T.serialize();
  Rng R(0x5e6);
  for (int Trial = 0; Trial < 16; ++Trial) {
    const uint64_t Budget =
        1 + R.nextBelow(T.numEvents() + T.numEvents() / 4);
    std::string Bytes = T.serialize(Budget);
    BlockTrace Q;
    std::string Error;
    ASSERT_TRUE(BlockTrace::parse(Bytes, Q, &Error))
        << "budget " << Budget << ": " << Error;
    EXPECT_EQ(Q.serialize(), Canonical) << "budget " << Budget;
  }
}

TEST(TraceSegmentsTest, EmptyTraceSegmentsRoundTrip) {
  BlockTrace T;
  T.setNumBlocks(4);
  std::string Bytes = T.serialize(100);
  BlockTrace Q;
  std::string Error;
  ASSERT_TRUE(BlockTrace::parse(Bytes, Q, &Error)) << Error;
  EXPECT_EQ(Q.numEvents(), 0u);
  EXPECT_EQ(Q.numBlocks(), 4u);
}

TEST(TraceSegmentsTest, ParseRejectsCorruptContainers) {
  auto B = smallBench("eon");
  BlockTrace T = BlockTrace::record(B.Ref, 1500);
  std::string Bytes = T.serialize(128);
  BlockTrace Q;

  // Baseline parses.
  ASSERT_TRUE(BlockTrace::parse(Bytes, Q, nullptr));

  // Unknown version byte.
  std::string BadVersion = Bytes;
  BadVersion[4] = 4;
  EXPECT_FALSE(BlockTrace::parse(BadVersion, Q, nullptr));

  // Truncations at every region: header, directory, payload.
  EXPECT_FALSE(BlockTrace::parse(Bytes.substr(0, 7), Q, nullptr));
  EXPECT_FALSE(
      BlockTrace::parse(Bytes.substr(0, Bytes.size() / 2), Q, nullptr));
  EXPECT_FALSE(
      BlockTrace::parse(Bytes.substr(0, Bytes.size() - 1), Q, nullptr));

  // Trailing bytes: the directory's payload sizes must tile the file.
  EXPECT_FALSE(BlockTrace::parse(Bytes + "x", Q, nullptr));

  // A corrupt payload frame: flipping the first payload's TPDZ magic
  // guarantees the inner decompression rejects it.
  SegmentedTraceHeader H;
  ASSERT_TRUE(parseSegmentedHeader(Bytes, Bytes.size(), H, nullptr));
  std::string Flipped = Bytes;
  Flipped[H.PayloadStart] ^= 0x5a;
  EXPECT_FALSE(BlockTrace::parse(Flipped, Q, nullptr));
}

TEST(TraceSegmentsTest, HeaderValidatesDirectoryAndTotals) {
  auto B = smallBench("eon");
  BlockTrace T = BlockTrace::record(B.Ref, 1000);
  std::string Bytes = T.serialize(256);
  SegmentedTraceHeader H;
  std::string Error;
  ASSERT_TRUE(parseSegmentedHeader(Bytes, Bytes.size(), H, &Error)) << Error;
  EXPECT_EQ(H.NumEvents, T.numEvents());
  EXPECT_EQ(H.TotalInsts, T.totalInsts());
  EXPECT_EQ(H.takenEvents(), T.takenEvents());
  EXPECT_EQ(H.SegmentBudget, 256u);
  uint64_t SumEvents = 0;
  for (const SegmentedTraceHeader::Entry &Ent : H.Directory) {
    EXPECT_GE(Ent.Events, 1u);
    EXPECT_LE(Ent.Events, 256u);
    SumEvents += Ent.Events;
  }
  EXPECT_EQ(SumEvents, H.NumEvents);
  // A wrong file size must be rejected (payloads no longer tile it).
  SegmentedTraceHeader H2;
  EXPECT_FALSE(parseSegmentedHeader(Bytes, Bytes.size() + 1, H2, nullptr));
  EXPECT_FALSE(parseSegmentedHeader(Bytes, Bytes.size() - 1, H2, nullptr));
}

TEST(TraceSegmentsTest, LegacyVersion1And2EntriesAreMisses) {
  // Hand-built entries in the retired v1 and v2 layouts: 3 events over 2
  // blocks — block 0 (no branch, 5 insts), block 1 (taken, 3 insts),
  // block 0 (not taken, 2 insts). v2 added the counter table.
  auto packEvent = [](std::string &Out, int64_t Delta, uint8_t Branch,
                      uint64_t Insts) {
    putVarint(Out, (zigzagEncode(Delta) << 2) | Branch);
    putVarint(Out, Insts);
  };
  std::string V1("TPDT", 4);
  V1.push_back(1);
  putVarint(V1, 2); // blocks
  putVarint(V1, 3); // events
  packEvent(V1, 0, 0, 5);
  packEvent(V1, 1, 2, 3);
  packEvent(V1, -1, 1, 2);

  std::string V2("TPDT", 4);
  V2.push_back(2);
  putVarint(V2, 2); // blocks
  putVarint(V2, 3); // events
  putVarint(V2, 2); // block 0: use
  putVarint(V2, 0); //          taken
  putVarint(V2, 1); // block 1: use
  putVarint(V2, 1); //          taken
  packEvent(V2, 0, 0, 5);
  packEvent(V2, 1, 2, 3);
  packEvent(V2, -1, 1, 2);

  BlockTrace T;
  std::string Error;
  EXPECT_FALSE(BlockTrace::parse(V1, T, &Error));
  EXPECT_EQ(Error, "unsupported trace version");
  EXPECT_FALSE(BlockTrace::parse(V2, T, &Error));
  EXPECT_EQ(Error, "unsupported trace version");

  // Older builds stored them as one whole-file TPDZ frame. At a cache
  // entry path such a file is one corrupt miss: the trace is re-recorded
  // and the entry is overwritten by a v3 container.
  const std::string Dir = tempDir("legacy_entries");
  std::filesystem::remove_all(Dir);
  ASSERT_TRUE(ensureDirectory(Dir));
  auto B = smallBench("gzip");
  const uint64_t MaxBlocks = 2000;
  const BlockTrace Direct = BlockTrace::record(B.Ref, MaxBlocks);
  for (const std::string *Legacy : {&V1, &V2}) {
    TraceCache Cache(Dir);
    const std::string Path = Cache.entryPath("gzip", "ref", 0x99);
    ASSERT_TRUE(writeTextFile(Path, compressBytes(*Legacy)));
    auto Got = Cache.get("gzip", "ref", 0x99, B.Ref, MaxBlocks);
    ASSERT_NE(Got, nullptr);
    EXPECT_EQ(Cache.stats().CorruptEntries.load(), 1u);
    EXPECT_EQ(Cache.stats().Misses.load(), 1u);
    expectSameEvents(Direct, *Got, "re-recorded legacy entry");
    auto OnDisk = readTextFile(Path);
    ASSERT_TRUE(OnDisk.has_value());
    EXPECT_EQ(*OnDisk, Direct.serialize(segmentEventBudget()));
  }
  std::filesystem::remove_all(Dir);
}

// A cold miss records, then writes serialize() at the knob's budget: the
// entry is byte-identical to a direct recording's serialization and cut
// into many segments.
TEST(TraceSegmentsTest, CacheMissWritesSerializedTrace) {
  const std::string Dir = tempDir("miss_write");
  std::filesystem::remove_all(Dir);
  auto B = smallBench("mcf");
  const uint64_t MaxBlocks = 20000;

  // Reference: a direct in-process recording (no cache involved).
  BlockTrace Direct = BlockTrace::record(B.Ref, MaxBlocks);

  testsupport::ScopedEnv Budget("TPDBT_SEGMENT_EVENTS", "300");
  {
    TraceCache Cache(Dir);
    auto T = Cache.get("mcf", "ref", 0x77, B.Ref, MaxBlocks);
    ASSERT_NE(T, nullptr);
    EXPECT_GT(Cache.stats().SegmentsPiped.load(), 1u);
    expectSameEvents(Direct, *T, "cache-miss record");
    // The miss only serializes; replay builds the index on demand.
    EXPECT_EQ(T->sharedIndex(), nullptr);

    // The disk entry is byte-identical to the reference segmented
    // serialization at the same budget.
    auto OnDisk = readTextFile(Cache.entryPath("mcf", "ref", 0x77));
    ASSERT_TRUE(OnDisk.has_value());
    EXPECT_EQ(*OnDisk, Direct.serialize(300));

    // Analytic replay over the lazily built index matches the event pump.
    dbt::DbtOptions Opts;
    const std::vector<uint64_t> Thresholds = {50, 500, 5000};
    expectSameSweep(replaySweep(*T, B.Ref, Thresholds, Opts),
                    replaySweepEvents(Direct, B.Ref, Thresholds, Opts),
                    Thresholds.size(), "cache-miss analytic");
  }
  {
    // A fresh cache hits the disk entry; no index is stored or loaded.
    TraceCache Cache(Dir);
    auto T = Cache.get("mcf", "ref", 0x77, B.Ref, MaxBlocks);
    ASSERT_NE(T, nullptr);
    EXPECT_EQ(Cache.stats().DiskHits.load(), 1u);
    EXPECT_EQ(Cache.stats().IndexHits.load(), 0u);
    expectSameEvents(Direct, *T, "segmented disk hit");
    EXPECT_EQ(T->sharedIndex(), nullptr);
  }

  std::filesystem::remove_all(Dir);
}

TEST(TraceSegmentsTest, ReaderRejectsTruncatedAndForeignFiles) {
  const std::string Dir = tempDir("reader_reject");
  std::filesystem::remove_all(Dir);
  ASSERT_TRUE(ensureDirectory(Dir));
  auto B = smallBench("eon");
  BlockTrace T = BlockTrace::record(B.Ref, 2000);
  std::string Bytes = T.serialize(256);

  SegmentedTraceReader R;
  std::string Error;
  EXPECT_FALSE(
      SegmentedTraceReader::open(Dir + "/missing.trace", R, &Error));

  const std::string Truncated = Dir + "/truncated.trace";
  ASSERT_TRUE(
      writeTextFile(Truncated, Bytes.substr(0, Bytes.size() - 5)));
  EXPECT_FALSE(SegmentedTraceReader::open(Truncated, R, &Error));

  const std::string Foreign = Dir + "/foreign.trace";
  ASSERT_TRUE(writeTextFile(Foreign, compressBytes(T.serialize())));
  EXPECT_FALSE(SegmentedTraceReader::open(Foreign, R, &Error));

  // An intact file opens, and a payload flipped after open() fails at
  // readSegment, not silently.
  const std::string Good = Dir + "/good.trace";
  ASSERT_TRUE(writeTextFile(Good, Bytes));
  ASSERT_TRUE(SegmentedTraceReader::open(Good, R, &Error)) << Error;
  std::vector<TraceEvent> Events;
  ASSERT_TRUE(R.readSegment(0, Events, &Error)) << Error;
  EXPECT_EQ(Events.size(), R.header().Directory[0].Events);

  // Flipping the first payload's TPDZ magic byte: the header (untouched)
  // still opens, but reading that segment fails cleanly.
  std::string Flipped = Bytes;
  Flipped[R.header().Directory[0].PayloadOffset] ^= 0x3c;
  ASSERT_TRUE(writeTextFile(Good, Flipped));
  SegmentedTraceReader R2;
  ASSERT_TRUE(SegmentedTraceReader::open(Good, R2, &Error)) << Error;
  EXPECT_FALSE(R2.readSegment(0, Events, &Error));
  std::filesystem::remove_all(Dir);
}

TEST(TraceSegmentsTest, HeaderRejectsHostileDirectoryEntries) {
  // Hand-built v3 containers exercising the parser's per-entry bounds:
  // none of these may size an allocation from the attacker's field, and
  // all must fail cleanly rather than truncate through a uint32 cast.
  for (const testfixtures::HostileHeader &F : testfixtures::hostileHeaders()) {
    SegmentedTraceHeader H;
    std::string Error;
    EXPECT_FALSE(parseSegmentedHeader(F.Bytes, F.Bytes.size() + F.FileSlack,
                                      H, &Error))
        << F.What;
    if (F.ErrorPart) {
      EXPECT_NE(Error.find(F.ErrorPart), std::string::npos)
          << F.What << ": " << Error;
    }
  }
}

TEST(TraceSegmentsTest, HeaderRejectsEventCountBeyondPayload) {
  // Each event decodes from >= 2 raw bytes, so a row's event count is
  // bounded by what its payload frame can inflate to.
  const std::string Bytes = testfixtures::oversizedEventClaim();
  SegmentedTraceHeader H;
  std::string Error;
  EXPECT_FALSE(parseSegmentedHeader(Bytes, Bytes.size(), H, &Error));
  EXPECT_NE(Error.find("exceeds its payload"), std::string::npos) << Error;
  BlockTrace T;
  EXPECT_FALSE(BlockTrace::parse(Bytes, T, &Error));
}

TEST(TraceSegmentsTest, CacheCountsOversizedEventClaimAsMiss) {
  const std::string Dir = tempDir("oversized_claim");
  std::filesystem::remove_all(Dir);
  ASSERT_TRUE(ensureDirectory(Dir));
  auto B = smallBench("gzip");
  const uint64_t MaxBlocks = 2000;
  TraceCache Cache(Dir);
  const std::string Path = Cache.entryPath("gzip", "ref", 0x45);
  ASSERT_TRUE(writeTextFile(Path, testfixtures::oversizedEventClaim()));

  // Neither the sampler's streaming open nor the whole-trace load may
  // size anything from the claim: the open fails, the load is one
  // corrupt miss that re-records and overwrites the entry.
  SegmentedTraceReader Reader;
  EXPECT_FALSE(Cache.openSegmented("gzip", "ref", 0x45, Reader, nullptr));
  std::shared_ptr<const BlockTrace> Got;
  EXPECT_NO_THROW(Got = Cache.get("gzip", "ref", 0x45, B.Ref, MaxBlocks));
  ASSERT_NE(Got, nullptr);
  EXPECT_EQ(Cache.stats().CorruptEntries.load(), 1u);
  EXPECT_EQ(Cache.stats().Misses.load(), 1u);
  const BlockTrace Direct = BlockTrace::record(B.Ref, MaxBlocks);
  expectSameEvents(Direct, *Got, "re-recorded entry");
  ASSERT_TRUE(SegmentedTraceReader::open(Path, Reader, nullptr));
  EXPECT_EQ(Reader.header().NumEvents, Direct.numEvents());
  std::filesystem::remove_all(Dir);
}

TEST(TraceSegmentsTest, IrregularInstsCountsAreCorruptMisses) {
  // A container whose totals, directory and counter table all agree with
  // its events, but where one non-final event retires a different
  // instruction count than the other occurrences of its block. Only a
  // final MemFault event can do that, and a BlockTrace derives every
  // non-final event's count from its block, so no BlockTrace can hold
  // these events: the bytes come from the reference writer, and parse
  // refuses them.
  auto B = smallBench("gzip");
  const uint64_t MaxBlocks = 2000;
  const BlockTrace Direct = BlockTrace::record(B.Ref, MaxBlocks);
  std::vector<bool> Seen(Direct.numBlocks(), false);
  size_t Victim = 0;
  for (size_t I = 0; I + 1 < Direct.numEvents() && !Victim; ++I) {
    if (Seen[Direct.event(I).Block])
      Victim = I;
    Seen[Direct.event(I).Block] = true;
  }
  ASSERT_GT(Victim, 0u);
  std::vector<TraceEvent> Bad;
  for (size_t I = 0; I < Direct.numEvents(); ++I) {
    Bad.push_back(Direct.event(I));
    Bad.back().Insts += I == Victim;
  }
  const std::string Bytes =
      testfixtures::v3Container(Bad, Direct.numBlocks(), 256);
  BlockTrace Out;
  std::string Error;
  EXPECT_FALSE(BlockTrace::parse(Bytes, Out, &Error));
  EXPECT_NE(Error.find("insts"), std::string::npos) << Error;

  // Through the cache the same bytes are one corrupt miss: re-recorded,
  // overwritten, and nothing throws.
  const std::string Dir = tempDir("irregular_insts");
  std::filesystem::remove_all(Dir);
  ASSERT_TRUE(ensureDirectory(Dir));
  {
    TraceCache Cache(Dir);
    const std::string Path = Cache.entryPath("gzip", "ref", 0x46);
    ASSERT_TRUE(writeTextFile(Path, Bytes));
    std::shared_ptr<const BlockTrace> Got;
    EXPECT_NO_THROW(Got = Cache.get("gzip", "ref", 0x46, B.Ref, MaxBlocks));
    ASSERT_NE(Got, nullptr);
    EXPECT_EQ(Cache.stats().CorruptEntries.load(), 1u);
    EXPECT_EQ(Cache.stats().Misses.load(), 1u);
    expectSameEvents(Direct, *Got, "re-recorded entry");
  }
  TraceCache Warm(Dir);
  ASSERT_NE(Warm.get("gzip", "ref", 0x46, B.Ref, MaxBlocks), nullptr);
  EXPECT_EQ(Warm.stats().DiskHits.load(), 1u);
  std::filesystem::remove_all(Dir);
}
