//===- tests/core/WindowedProfileTest.cpp - Windowed profiles --*- C++ -*-===//

#include "core/WindowedProfile.h"

#include "dbt/DbtEngine.h"
#include "guest/ProgramBuilder.h"

#include <gtest/gtest.h>

using namespace tpdbt;
using namespace tpdbt::core;
using namespace tpdbt::guest;

namespace {

/// Branch taken only during the first half of the run.
Program makeHalfFlip() {
  ProgramBuilder PB("halfflip");
  BlockId Entry = PB.createBlock();
  BlockId Head = PB.createBlock();
  BlockId Exit = PB.createBlock();
  PB.setEntry(Entry);
  PB.switchTo(Entry);
  PB.movI(1, 0);
  PB.jump(Head);
  PB.switchTo(Head);
  PB.addI(1, 1, 1);
  PB.movI(2, 5000);
  PB.nop();
  PB.branchImm(CondKind::LtI, 1, 10000, Head, Exit);
  PB.switchTo(Exit);
  PB.halt();
  return PB.build();
}

} // namespace

TEST(WindowedProfileTest, WindowsSumToFullProfile) {
  Program P = makeHalfFlip();
  WindowedProfile WP = collectWindowedProfile(P, 4, BlockTrace::record(P));
  EXPECT_EQ(WP.numWindows(), 4u);

  dbt::DbtOptions Opts;
  dbt::DbtEngine Engine(P, Opts);
  profile::ProfileSnapshot Avep = Engine.run(100000000);

  for (BlockId B = 0; B < P.numBlocks(); ++B) {
    uint64_t Use = 0, Taken = 0;
    for (const auto &W : WP.Windows) {
      Use += W[B].Use;
      Taken += W[B].Taken;
    }
    EXPECT_EQ(Use, Avep.Blocks[B].Use) << "block " << B;
    EXPECT_EQ(Taken, Avep.Blocks[B].Taken) << "block " << B;
  }
  EXPECT_EQ(WP.TotalBlockEvents, Avep.BlockEvents);
}

TEST(WindowedProfileTest, CapturesTemporalShift) {
  // A branch whose outcome depends on the iteration number: early
  // windows see a different probability than late ones.
  ProgramBuilder PB("shift");
  BlockId Entry = PB.createBlock();
  BlockId Head = PB.createBlock();
  BlockId A = PB.createBlock();
  BlockId Tail = PB.createBlock();
  BlockId Exit = PB.createBlock();
  PB.setEntry(Entry);
  PB.switchTo(Entry);
  PB.movI(1, 0);
  PB.jump(Head);
  PB.switchTo(Head);
  PB.branchImm(CondKind::LtI, 1, 5000, A, Tail); // true early, false late
  PB.switchTo(A);
  PB.nop();
  PB.jump(Tail);
  PB.switchTo(Tail);
  PB.addI(1, 1, 1);
  PB.branchImm(CondKind::LtI, 1, 10000, Head, Exit);
  PB.switchTo(Exit);
  PB.halt();
  Program P = PB.build();

  WindowedProfile WP = collectWindowedProfile(P, 8, BlockTrace::record(P));
  EXPECT_GT(WP.takenProb(0, Head), 0.9);
  EXPECT_LT(WP.takenProb(7, Head), 0.1);
}

TEST(WindowedProfileTest, SingleWindowEqualsWholeRun) {
  Program P = makeHalfFlip();
  WindowedProfile WP = collectWindowedProfile(P, 1, BlockTrace::record(P));
  EXPECT_EQ(WP.numWindows(), 1u);
  EXPECT_GT(WP.Windows[0][1].Use, 9000u);
}

TEST(WindowedProfileTest, RespectsMaxBlocks) {
  Program P = makeHalfFlip();
  WindowedProfile WP =
      collectWindowedProfile(P, 2, BlockTrace::record(P, /*MaxBlocks=*/100));
  EXPECT_EQ(WP.TotalBlockEvents, 100u);
}

// Windows cut the run into equal event counts L = events / n + 1,
// including window counts that do not divide the event count: the
// counters of windows [0, w] equal a recording truncated after
// (w + 1) * L events.
TEST(WindowedProfileTest, WindowPrefixesMatchTruncatedRuns) {
  Program P = makeHalfFlip();
  BlockTrace Trace = BlockTrace::record(P);
  for (size_t NumWindows : {1u, 3u, 7u, 16u}) {
    WindowedProfile WP = collectWindowedProfile(P, NumWindows, Trace);
    ASSERT_EQ(WP.numWindows(), NumWindows);
    const uint64_t WindowLen = Trace.numEvents() / NumWindows + 1;
    std::vector<profile::BlockCounters> Prefix(P.numBlocks());
    for (size_t W = 0; W < NumWindows; ++W) {
      for (BlockId B = 0; B < P.numBlocks(); ++B) {
        Prefix[B].Use += WP.Windows[W][B].Use;
        Prefix[B].Taken += WP.Windows[W][B].Taken;
      }
      const BlockTrace Cut = BlockTrace::record(P, (W + 1) * WindowLen);
      for (BlockId B = 0; B < P.numBlocks(); ++B) {
        EXPECT_EQ(Prefix[B].Use, Cut.finalCounts()[B].Use)
            << "window " << W << " block " << B << " n=" << NumWindows;
        EXPECT_EQ(Prefix[B].Taken, Cut.finalCounts()[B].Taken)
            << "window " << W << " block " << B << " n=" << NumWindows;
      }
    }
  }
}

// A program that halts immediately: zero block events after the entry
// block executes. Every window exists, nearly all empty, no division by
// the (zero-ish) total blows up.
TEST(WindowedProfileTest, TinyTraceFewerEventsThanWindows) {
  ProgramBuilder PB("tiny");
  BlockId Entry = PB.createBlock();
  PB.setEntry(Entry);
  PB.switchTo(Entry);
  PB.halt();
  Program P = PB.build();

  WindowedProfile WP = collectWindowedProfile(P, 8, BlockTrace::record(P));
  EXPECT_EQ(WP.numWindows(), 8u);
  EXPECT_EQ(WP.TotalBlockEvents, 1u);
  uint64_t Use = 0;
  for (const auto &W : WP.Windows)
    Use += W[Entry].Use;
  EXPECT_EQ(Use, 1u);
  // The single event lands in the first window.
  EXPECT_EQ(WP.Windows[0][Entry].Use, 1u);
}

// An empty trace (no events recorded) produces sized-but-empty windows.
TEST(WindowedProfileTest, EmptyTraceYieldsEmptyWindows) {
  Program P = makeHalfFlip();
  BlockTrace Empty;
  WindowedProfile WP = collectWindowedProfile(P, 4, Empty);
  EXPECT_EQ(WP.numWindows(), 4u);
  EXPECT_EQ(WP.TotalBlockEvents, 0u);
  for (const auto &W : WP.Windows)
    for (const auto &C : W) {
      EXPECT_EQ(C.Use, 0u);
      EXPECT_EQ(C.Taken, 0u);
    }
}

// Window boundaries vs. the trace-segment budget: windowing a trace that
// was serialized segmented and re-parsed must not depend on where the
// segment cuts fell.
TEST(WindowedProfileTest, WindowsUnaffectedBySegmentBoundaries) {
  Program P = makeHalfFlip();
  BlockTrace Trace = BlockTrace::record(P);
  WindowedProfile Direct = collectWindowedProfile(P, 5, Trace);

  for (uint64_t Budget : {64ull, 1000ull, 1ull << 16}) {
    BlockTrace Reparsed;
    std::string Err;
    ASSERT_TRUE(
        BlockTrace::parse(Trace.serialize(Budget), Reparsed, &Err))
        << Err;
    WindowedProfile WP = collectWindowedProfile(P, 5, Reparsed);
    ASSERT_EQ(WP.TotalBlockEvents, Direct.TotalBlockEvents) << Budget;
    for (size_t W = 0; W < WP.numWindows(); ++W)
      for (BlockId B = 0; B < P.numBlocks(); ++B)
        EXPECT_EQ(WP.Windows[W][B].Use, Direct.Windows[W][B].Use)
            << "budget " << Budget;
  }
}
