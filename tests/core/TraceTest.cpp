//===- tests/core/TraceTest.cpp - Trace record/replay tests -----*- C++ -*-===//

#include "core/Trace.h"

#include "TestSupport.h"
#include "TraceFixtures.h"
#include "dbt/DbtEngine.h"
#include "guest/ProgramBuilder.h"
#include "support/Rng.h"
#include "support/Varint.h"
#include "vm/Interpreter.h"
#include "workloads/BenchSpec.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <stdexcept>

using namespace tpdbt;
using namespace tpdbt::core;

namespace {

workloads::GeneratedBenchmark smallBench(const char *Name) {
  return workloads::generateBenchmark(
      workloads::scaledSpec(*workloads::findSpec(Name), 0.01));
}

/// Asserts that the indexed analytic sweep and the event-pump oracle
/// produce byte-identical snapshots for every requested threshold.
void expectIndexedMatchesPump(const BlockTrace &T, const guest::Program &P,
                              const std::vector<uint64_t> &Thresholds,
                              const dbt::DbtOptions &Opts,
                              const char *Label) {
  SweepResult Pumped = replaySweepEvents(T, P, Thresholds, Opts);
  SweepResult Indexed = replaySweep(T, P, Thresholds, Opts);
  ASSERT_EQ(Indexed.PerThreshold.size(), Thresholds.size()) << Label;
  for (size_t I = 0; I < Thresholds.size(); ++I)
    EXPECT_EQ(profile::printSnapshot(Indexed.PerThreshold[I]),
              profile::printSnapshot(Pumped.PerThreshold[I]))
        << Label << " T=" << Thresholds[I];
  EXPECT_EQ(profile::printSnapshot(Indexed.Average),
            profile::printSnapshot(Pumped.Average))
      << Label;
}

/// A three-block loop (head, a, latch) whose latch loads from the outer
/// counter before branching out on taken and back to head on
/// fall-through. Once the counter reaches \p MemWords the load faults:
/// the final event is a latch that retires fewer instructions and has no
/// branch outcome, which the taken-bit sums read like the not-taken back
/// edge. Its iteration is complete, so loop folding runs over it.
guest::Program makeFaultingLatchLoop(int64_t Iters, uint64_t MemWords) {
  guest::ProgramBuilder PB("latch-fault");
  auto Entry = PB.createBlock("entry");
  auto Head = PB.createBlock("head");
  auto A = PB.createBlock("a");
  auto Latch = PB.createBlock("latch");
  auto Exit = PB.createBlock("exit");
  PB.setMemWords(MemWords);
  PB.setEntry(Entry);
  PB.switchTo(Entry);
  PB.movI(0, 0);
  PB.jump(Head);
  PB.switchTo(Head);
  PB.addI(2, 0, 7);
  PB.jump(A);
  PB.switchTo(A);
  PB.xorI(3, 2, 0x33);
  PB.jump(Latch);
  PB.switchTo(Latch);
  PB.addI(0, 0, 1);
  PB.mov(1, 0);
  PB.load(4, 1, 0); // faults once r0 reaches MemWords
  PB.branchImm(guest::CondKind::GeI, 0, Iters, Exit, Head);
  PB.switchTo(Exit);
  PB.halt();
  return PB.build();
}

} // namespace

TEST(TraceTest, RecordCapturesFullExecution) {
  auto B = smallBench("vortex");
  BlockTrace T = BlockTrace::record(B.Ref);
  EXPECT_EQ(T.numBlocks(), B.Ref.numBlocks());
  EXPECT_GT(T.numEvents(), 1000u);
  EXPECT_GT(T.totalInsts(), T.numEvents()); // >= 1 inst per block
  // First event is the entry block.
  EXPECT_EQ(T.event(0).Block, B.Ref.Entry);
}

TEST(TraceTest, SerializeParseRoundTrip) {
  auto B = smallBench("art");
  BlockTrace T = BlockTrace::record(B.Ref);
  std::string Bytes = T.serialize();
  // Compact encoding: a handful of bytes per event.
  EXPECT_LT(Bytes.size(), T.numEvents() * 4 + 64);

  BlockTrace Q;
  std::string Error;
  ASSERT_TRUE(BlockTrace::parse(Bytes, Q, &Error)) << Error;
  ASSERT_EQ(Q.numEvents(), T.numEvents());
  EXPECT_EQ(Q.numBlocks(), T.numBlocks());
  EXPECT_EQ(Q.totalInsts(), T.totalInsts());
  for (size_t I = 0; I < T.numEvents(); I += 97) {
    EXPECT_EQ(Q.event(I).Block, T.event(I).Block);
    EXPECT_EQ(Q.event(I).Branch, T.event(I).Branch);
    EXPECT_EQ(Q.event(I).Insts, T.event(I).Insts);
  }
  // Canonical: re-serializing parses back to identical bytes.
  EXPECT_EQ(Q.serialize(), Bytes);
}

TEST(TraceTest, ResidentEventsRoundTripEveryField) {
  // The latch is this chain's conditional block, and it faults mid-chain:
  // the final event retires fewer instructions than the latch's other
  // occurrences and has no branch outcome. A resident event keeps only
  // the block and the outcome, so every field of every event must still
  // come back exactly as the interpreter delivered it.
  const guest::Program P = makeFaultingLatchLoop(2000, 600);
  std::vector<TraceEvent> Seen;
  vm::Interpreter Interp(P);
  vm::Machine M;
  M.reset(P);
  Interp.run(M, ~0ull, [&](guest::BlockId B, const vm::BlockResult &R) {
    const uint8_t Branch = R.IsCondBranch ? (R.Taken ? 2 : 1) : 0;
    Seen.push_back({B, Branch, R.InstsExecuted});
  });
  ASSERT_GT(Seen.size(), 1000u);
  const TraceEvent Last = Seen.back();
  const TraceEvent Before = Seen[Seen.size() - 4]; // the previous latch
  ASSERT_EQ(Before.Block, Last.Block);
  EXPECT_EQ(Last.Branch, 0);
  EXPECT_NE(Before.Branch, 0);
  EXPECT_LT(Last.Insts, Before.Insts);

  auto expectEvents = [&](const BlockTrace &T, const char *Label) {
    ASSERT_EQ(T.numEvents(), Seen.size()) << Label;
    for (size_t I = 0; I < Seen.size(); ++I) {
      const TraceEvent E = T.event(I);
      ASSERT_EQ(E.Block, Seen[I].Block) << Label << " @" << I;
      ASSERT_EQ(E.Branch, Seen[I].Branch) << Label << " @" << I;
      ASSERT_EQ(E.Insts, Seen[I].Insts) << Label << " @" << I;
    }
  };
  const BlockTrace T = BlockTrace::record(P);
  expectEvents(T, "recorded");
  // The writer emits exactly the container of the delivered events.
  const std::string Bytes = T.serialize(256);
  EXPECT_EQ(Bytes, testfixtures::v3Container(Seen, P.numBlocks(), 256));
  BlockTrace Q;
  std::string Error;
  ASSERT_TRUE(BlockTrace::parse(Bytes, Q, &Error)) << Error;
  expectEvents(Q, "parsed");
  EXPECT_EQ(Q.totalInsts(), T.totalInsts());
  EXPECT_EQ(Q.takenEvents(), T.takenEvents());
}

TEST(TraceTest, AppendRefusesEventAfterDeviatingOne) {
  // Only the final event may retire a count other than its block's: a
  // BlockTrace derives every other event's count from the block, so
  // append refuses whatever follows a deviating event, in every build
  // type, and the trace keeps its events.
  BlockTrace T;
  T.setNumBlocks(2);
  T.append({0, 0, 4});
  T.append({0, 0, 3}); // deviates, but is still the final event
  EXPECT_EQ(T.event(1).Insts, 3u);
  EXPECT_THROW(T.append({1, 0, 2}), std::invalid_argument);
  EXPECT_THROW(T.appendRun({1, 0, 2}, 3), std::invalid_argument);
  ASSERT_EQ(T.numEvents(), 2u);
  EXPECT_EQ(T.totalInsts(), 7u);
  EXPECT_EQ(T.event(1).Insts, 3u);
  EXPECT_EQ(T.instsOfFirst(0, 2), 7u);

  // A run of deviating copies: the second copy follows the first.
  BlockTrace Run;
  Run.setNumBlocks(1);
  Run.append({0, 0, 4});
  EXPECT_THROW(Run.appendRun({0, 0, 5}, 2), std::invalid_argument);
  ASSERT_EQ(Run.numEvents(), 1u);
  // A single deviating copy is a final event like any other.
  Run.appendRun({0, 0, 5}, 1);
  EXPECT_EQ(Run.totalInsts(), 9u);
  EXPECT_EQ(Run.instsOfFirst(0, 2), 9u);
}

TEST(TraceTest, BlockIdsMustFitThirtyBits) {
  // Packed events hold the block id in 30 bits. Both ways of sizing the
  // per-block tables refuse a block past that before allocating.
  BlockTrace T;
  EXPECT_THROW(T.setNumBlocks(size_t(1) << 30), std::length_error);
  EXPECT_THROW(T.append({guest::BlockId(1) << 30, 0, 1}), std::length_error);
  EXPECT_EQ(T.numBlocks(), 0u);
  EXPECT_EQ(T.numEvents(), 0u);
  EXPECT_EQ(T.finalCounts().capacity(), 0u);
}

TEST(TraceTest, ParseRejectsCorruption) {
  auto B = smallBench("eon");
  std::string Bytes = BlockTrace::record(B.Ref, 500).serialize();
  BlockTrace Q;
  EXPECT_FALSE(BlockTrace::parse("garbage", Q, nullptr));
  EXPECT_FALSE(
      BlockTrace::parse(Bytes.substr(0, Bytes.size() - 3), Q, nullptr));
  std::string Extra = Bytes + "x";
  EXPECT_FALSE(BlockTrace::parse(Extra, Q, nullptr));
  std::string BadMagic = Bytes;
  BadMagic[0] = 'X';
  EXPECT_FALSE(BlockTrace::parse(BadMagic, Q, nullptr));
  std::string BadVersion = Bytes;
  BadVersion[4] = 9;
  EXPECT_FALSE(BlockTrace::parse(BadVersion, Q, nullptr));
}

TEST(TraceTest, ReplayMatchesLiveSweepExactly) {
  // The headline property: trace-driven replay produces byte-identical
  // snapshots to a live interpreted DbtEngine run per threshold.
  for (const char *Name : {"gzip", "swim"}) {
    auto B = smallBench(Name);
    std::vector<uint64_t> Thresholds = {1, 100, 2000};
    BlockTrace T = BlockTrace::record(B.Ref);
    SweepResult Replayed =
        replaySweep(T, B.Ref, Thresholds, dbt::DbtOptions());

    for (size_t I = 0; I < Thresholds.size(); ++I) {
      dbt::DbtOptions Opts;
      Opts.Threshold = Thresholds[I];
      EXPECT_EQ(profile::printSnapshot(Replayed.PerThreshold[I]),
                profile::printSnapshot(dbt::DbtEngine(B.Ref, Opts).run(~0ull)))
          << Name << " T=" << Thresholds[I];
    }
    EXPECT_EQ(profile::printSnapshot(Replayed.Average),
              profile::printSnapshot(
                  dbt::DbtEngine(B.Ref, dbt::DbtOptions()).run(~0ull)))
        << Name;
  }
}

TEST(TraceTest, AnalyticMatchesPumpOnFaultingTrace) {
  // Both programs end in a MemFault: the final event retires fewer
  // instructions than its block's other occurrences. Low thresholds form
  // the loop region and fold iterations (over the faulting one, in the
  // latch-fault loop); high ones leave the faulting block unfrozen, so
  // the profiling phase counts the final event. Either way the analytic
  // path reads it through the index's final-event correction.
  const std::pair<const char *, guest::Program> Programs[] = {
      {"mid-chain fault", testsupport::makeChainProgram(200, 64)},
      {"latch fault", makeFaultingLatchLoop(200, 64)}};
  for (const auto &[Label, P] : Programs) {
    BlockTrace T = BlockTrace::record(P);
    ASSERT_GT(T.numEvents(), 0u) << Label;
    const TraceEvent Last = T.event(T.numEvents() - 1);
    ASSERT_LT(Last.Insts, T.blockInsts(Last.Block)) << Label;
    for (size_t PoolLimit : {64, 2, 1}) {
      dbt::DbtOptions Opts;
      Opts.PoolLimit = PoolLimit;
      expectIndexedMatchesPump(T, P, {1, 2, 3, 5, 8, 16, 40, 64, 65, 100},
                               Opts, Label);
    }
  }
}

TEST(TraceTest, ReplayAfterSerializationStillMatches) {
  auto B = smallBench("lucas");
  BlockTrace T = BlockTrace::record(B.Ref);
  BlockTrace Q;
  ASSERT_TRUE(BlockTrace::parse(T.serialize(), Q, nullptr));
  SweepResult A = replaySweep(T, B.Ref, {500}, dbt::DbtOptions());
  SweepResult C = replaySweep(Q, B.Ref, {500}, dbt::DbtOptions());
  EXPECT_EQ(profile::printSnapshot(A.PerThreshold[0]),
            profile::printSnapshot(C.PerThreshold[0]));
}

TEST(TraceTest, MaxBlocksTruncatesRecording) {
  auto B = smallBench("mesa");
  BlockTrace T = BlockTrace::record(B.Ref, 123);
  EXPECT_EQ(T.numEvents(), 123u);
}

TEST(TraceTest, IndexedReplayMatchesEventPumpRandomized) {
  // Differential test for the analytic evaluator: randomized threshold
  // sets (duplicates included) and pool limits must reproduce the event
  // pump byte-for-byte.
  Rng R(0x1d9f2c);
  for (const char *Name : {"gzip", "art", "eon"}) {
    auto B = smallBench(Name);
    BlockTrace T = BlockTrace::record(B.Ref);
    for (int Round = 0; Round < 3; ++Round) {
      std::vector<uint64_t> Thresholds;
      size_t Count = 2 + R.nextBelow(5);
      for (size_t I = 0; I < Count; ++I)
        Thresholds.push_back(1 + R.nextBelow(3000));
      if (Count >= 3)
        Thresholds.push_back(Thresholds[R.nextBelow(Count)]); // duplicate
      dbt::DbtOptions Opts;
      Opts.PoolLimit = 1 + R.nextBelow(16);
      expectIndexedMatchesPump(T, B.Ref, Thresholds, Opts, Name);
    }
  }
}

TEST(TraceTest, IndexedReplayMatchesEventPumpTruncated) {
  // Truncated recordings end mid-execution (often mid-loop), exercising
  // the analytic walker's tail handling.
  auto B = smallBench("swim");
  for (uint64_t MaxBlocks : {77ull, 1000ull, 5001ull}) {
    BlockTrace T = BlockTrace::record(B.Ref, MaxBlocks);
    expectIndexedMatchesPump(T, B.Ref, {1, 10, 200, 100000},
                             dbt::DbtOptions(), "swim");
  }
}

TEST(TraceTest, IndexedReplayMatchesEventPumpAcrossJobCounts) {
  auto B = smallBench("gzip");
  BlockTrace T = BlockTrace::record(B.Ref);
  std::vector<uint64_t> Thresholds = {1, 100, 100, 2000};
  SweepResult Pumped = replaySweepEvents(T, B.Ref, Thresholds,
                                         dbt::DbtOptions());
  for (unsigned Jobs : {1u, 4u}) {
    SweepResult Indexed =
        replaySweep(T, B.Ref, Thresholds, dbt::DbtOptions(), Jobs);
    for (size_t I = 0; I < Thresholds.size(); ++I)
      EXPECT_EQ(profile::printSnapshot(Indexed.PerThreshold[I]),
                profile::printSnapshot(Pumped.PerThreshold[I]))
          << "jobs=" << Jobs << " T=" << Thresholds[I];
    EXPECT_EQ(profile::printSnapshot(Indexed.Average),
              profile::printSnapshot(Pumped.Average))
        << "jobs=" << Jobs;
  }
}

TEST(TraceTest, AdaptiveSweepFallsBackToEventPump) {
  // Adaptive mode has no static freeze timeline; replaySweep must route
  // through the event pump and still dedupe repeated thresholds. The pump
  // and the closed-form Average must both match a live adaptive engine.
  auto B = smallBench("gzip");
  BlockTrace T = BlockTrace::record(B.Ref);
  dbt::DbtOptions Opts;
  Opts.Adaptive.Enabled = true;
  Opts.Adaptive.MinEntries = 32;
  std::vector<uint64_t> Thresholds = {100, 500, 100};
  SweepResult Pumped = replaySweepEvents(T, B.Ref, Thresholds, Opts);
  SweepResult Replayed = replaySweep(T, B.Ref, Thresholds, Opts);
  ASSERT_EQ(Replayed.PerThreshold.size(), Thresholds.size());
  for (size_t I = 0; I < Thresholds.size(); ++I) {
    dbt::DbtOptions Live = Opts;
    Live.Threshold = Thresholds[I];
    const std::string Want =
        profile::printSnapshot(dbt::DbtEngine(B.Ref, Live).run(~0ull));
    EXPECT_EQ(profile::printSnapshot(Pumped.PerThreshold[I]), Want)
        << "T=" << Thresholds[I];
    EXPECT_EQ(profile::printSnapshot(Replayed.PerThreshold[I]), Want)
        << "T=" << Thresholds[I];
  }
  const std::string WantAverage =
      profile::printSnapshot(dbt::DbtEngine(B.Ref, Opts).run(~0ull));
  EXPECT_EQ(profile::printSnapshot(Pumped.Average), WantAverage);
  EXPECT_EQ(profile::printSnapshot(Replayed.Average), WantAverage);
}

TEST(TraceTest, ThresholdFreeSweepBuildsNoIndex) {
  // The profiling-only snapshot is closed form: a sweep without
  // thresholds (INIP(train), an AVEP) never builds the analytic index.
  auto B = smallBench("eon");
  BlockTrace T = BlockTrace::record(B.Ref);
  SweepResult R = replaySweep(T, B.Ref, {}, dbt::DbtOptions());
  EXPECT_EQ(T.sharedIndex(), nullptr);
  EXPECT_TRUE(R.PerThreshold.empty());
  EXPECT_EQ(profile::printSnapshot(R.Average),
            profile::printSnapshot(
                dbt::DbtEngine(B.Ref, dbt::DbtOptions()).run(~0ull)));
  replaySweep(T, B.Ref, {100}, dbt::DbtOptions());
  EXPECT_NE(T.sharedIndex(), nullptr);
}

TEST(TraceTest, DuplicateThresholdsShareOneEvaluation) {
  auto B = smallBench("lucas");
  BlockTrace T = BlockTrace::record(B.Ref);
  SweepResult Deduped =
      replaySweep(T, B.Ref, {500, 500, 500}, dbt::DbtOptions());
  SweepResult Single = replaySweep(T, B.Ref, {500}, dbt::DbtOptions());
  ASSERT_EQ(Deduped.PerThreshold.size(), 3u);
  for (const auto &S : Deduped.PerThreshold)
    EXPECT_EQ(profile::printSnapshot(S),
              profile::printSnapshot(Single.PerThreshold[0]));
}

TEST(TraceTest, ParseRejectsCounterTableMismatch) {
  auto B = smallBench("eon");
  BlockTrace T = BlockTrace::record(B.Ref, 500);
  std::string Bytes = T.serialize();
  // The counter table follows the five header varints (blocks, events,
  // insts, budget, segments). Moving one use from one block to another
  // keeps every header-level sum intact, so only the decoded events can
  // expose the lie.
  size_t Pos = 5;
  uint64_t V = 0;
  for (int I = 0; I < 5; ++I)
    ASSERT_TRUE(getVarint(Bytes, Pos, V));
  struct Row {
    size_t At;
    uint64_t Use, Taken;
  };
  std::vector<Row> Rows;
  for (size_t Blk = 0; Blk < T.numBlocks(); ++Blk) {
    Row R{Pos, 0, 0};
    ASSERT_TRUE(getVarint(Bytes, Pos, R.Use));
    ASSERT_TRUE(getVarint(Bytes, Pos, R.Taken));
    Rows.push_back(R);
  }
  // Single-byte Use varints on both sides keep every offset in place.
  const Row *Up = nullptr, *Down = nullptr;
  for (const Row &R : Rows) {
    if (!Up && R.Use + 1 < 0x80)
      Up = &R;
    else if (!Down && R.Use < 0x80 && R.Use > R.Taken)
      Down = &R;
  }
  ASSERT_TRUE(Up && Down) << "test needs two blocks with small counters";
  Bytes[Up->At] = static_cast<char>(Up->Use + 1);
  Bytes[Down->At] = static_cast<char>(Down->Use - 1);
  BlockTrace Q;
  std::string Error;
  EXPECT_FALSE(BlockTrace::parse(Bytes, Q, &Error));
  EXPECT_EQ(Error, "trace counter table disagrees with events");
}
