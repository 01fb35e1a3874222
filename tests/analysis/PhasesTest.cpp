//===- tests/analysis/PhasesTest.cpp - Phase detection tests ----*- C++ -*-===//

#include "analysis/Phases.h"

#include "core/WindowedProfile.h"
#include "guest/ProgramBuilder.h"
#include "workloads/BenchSpec.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

using namespace tpdbt;
using namespace tpdbt::analysis;
using namespace tpdbt::profile;

namespace {

/// Hand-made window with given per-block use counts.
std::vector<BlockCounters> window(std::initializer_list<uint64_t> Uses) {
  std::vector<BlockCounters> W;
  for (uint64_t U : Uses)
    W.push_back({U, 0});
  return W;
}

} // namespace

TEST(BbvTest, NormalizesToL1) {
  auto Bbv = basicBlockVector(window({10, 30, 60}));
  ASSERT_EQ(Bbv.size(), 3u);
  EXPECT_DOUBLE_EQ(Bbv[0], 0.1);
  EXPECT_DOUBLE_EQ(Bbv[1], 0.3);
  EXPECT_DOUBLE_EQ(Bbv[2], 0.6);
}

TEST(BbvTest, EmptyWindowYieldsEmptyVector) {
  EXPECT_TRUE(basicBlockVector(window({0, 0})).empty());
}

TEST(BbvTest, DistanceBoundsAndSymmetry) {
  auto A = basicBlockVector(window({100, 0}));
  auto B = basicBlockVector(window({0, 100}));
  EXPECT_DOUBLE_EQ(bbvDistance(A, B), 2.0); // disjoint: max distance
  EXPECT_DOUBLE_EQ(bbvDistance(A, A), 0.0);
  EXPECT_DOUBLE_EQ(bbvDistance(A, B), bbvDistance(B, A));
}

TEST(DetectPhasesTest, UniformExecutionIsOnePhase) {
  std::vector<std::vector<BlockCounters>> Windows(
      6, window({100, 200, 700}));
  PhaseAnalysis P = detectPhases(Windows);
  EXPECT_EQ(P.NumPhases, 1);
  EXPECT_FALSE(P.hasPhaseChange());
  EXPECT_EQ(P.firstChangeWindow(), -1);
}

TEST(DetectPhasesTest, StepChangeMakesTwoPhases) {
  std::vector<std::vector<BlockCounters>> Windows;
  for (int I = 0; I < 4; ++I)
    Windows.push_back(window({900, 100, 0}));
  for (int I = 0; I < 4; ++I)
    Windows.push_back(window({100, 100, 800}));
  PhaseAnalysis P = detectPhases(Windows);
  EXPECT_EQ(P.NumPhases, 2);
  EXPECT_TRUE(P.hasPhaseChange());
  EXPECT_EQ(P.firstChangeWindow(), 4);
  EXPECT_EQ(P.PhaseOfWindow[0], 0);
  EXPECT_EQ(P.PhaseOfWindow[7], 1);
}

TEST(DetectPhasesTest, RecurringPhaseReusesId) {
  std::vector<std::vector<BlockCounters>> Windows;
  Windows.push_back(window({1000, 0}));
  Windows.push_back(window({0, 1000}));
  Windows.push_back(window({1000, 0})); // back to phase 0
  PhaseAnalysis P = detectPhases(Windows);
  EXPECT_EQ(P.NumPhases, 2);
  EXPECT_EQ(P.PhaseOfWindow[2], P.PhaseOfWindow[0]);
}

TEST(DetectPhasesTest, ThresholdControlsGranularity) {
  std::vector<std::vector<BlockCounters>> Windows;
  Windows.push_back(window({600, 400}));
  Windows.push_back(window({500, 500})); // distance 0.2 from the first
  EXPECT_EQ(detectPhases(Windows, 0.3).NumPhases, 1);
  EXPECT_EQ(detectPhases(Windows, 0.1).NumPhases, 2);
}

TEST(DetectPhasesTest, EmptyTrailingWindowsInheritPhase) {
  std::vector<std::vector<BlockCounters>> Windows;
  Windows.push_back(window({100, 0}));
  Windows.push_back(window({0, 0}));
  PhaseAnalysis P = detectPhases(Windows);
  EXPECT_EQ(P.PhaseOfWindow[1], P.PhaseOfWindow[0]);
}

TEST(DetectPhasesTest, CodeMixPhaseChangeIsDetected) {
  // A program whose executed code *mix* changes mid-run: a loop whose
  // trip count collapses from 200 to 2 after 5000 outer iterations. The
  // loop body dominates early windows and almost vanishes late — a
  // classic Sherwood-detectable phase change.
  using namespace tpdbt::guest;
  ProgramBuilder PB("mix");
  BlockId Entry = PB.createBlock();
  BlockId Head = PB.createBlock();
  BlockId SetLow = PB.createBlock();
  BlockId Pre = PB.createBlock();
  BlockId Body = PB.createBlock();
  BlockId Tail = PB.createBlock();
  BlockId Exit = PB.createBlock();
  PB.setEntry(Entry);
  PB.switchTo(Entry);
  PB.movI(1, 0);
  PB.jump(Head);
  PB.switchTo(Head);
  PB.movI(2, 200);
  PB.branchImm(CondKind::LtI, 1, 5000, Pre, SetLow);
  PB.switchTo(SetLow);
  PB.movI(2, 2);
  PB.jump(Pre);
  PB.switchTo(Pre);
  PB.movI(3, 0);
  PB.jump(Body);
  PB.switchTo(Body);
  PB.addI(3, 3, 1);
  PB.branch(CondKind::Lt, 3, 2, Body, Tail);
  PB.switchTo(Tail);
  PB.addI(1, 1, 1);
  PB.branchImm(CondKind::LtI, 1, 10000, Head, Exit);
  PB.switchTo(Exit);
  PB.halt();
  Program P = PB.build();

  core::WindowedProfile W =
      core::collectWindowedProfile(P, 16, core::BlockTrace::record(P));
  PhaseAnalysis PA = detectPhases(W.Windows);
  EXPECT_GE(PA.NumPhases, 2);
  EXPECT_TRUE(PA.hasPhaseChange());
  // The change sits deep in the run (the high-trip phase dominates the
  // event count, so it covers most windows).
  EXPECT_GT(PA.firstChangeWindow(), 8);
}

TEST(DetectPhasesTest, SuiteProfilesAreAnalyzable) {
  // The synthetic suite's phase mechanisms mostly shift branch
  // *probabilities* rather than the executed code mix, so BBV distances
  // stay small — the known blind spot of BBV phase detection (it would
  // take the paper's own metrics to see those phases). This test pins
  // that down: detection runs cleanly and stable eon is one phase.
  using namespace tpdbt::workloads;
  for (const char *Name : {"mcf", "eon"}) {
    auto B = generateBenchmark(scaledSpec(*findSpec(Name), 0.05));
    core::WindowedProfile W = core::collectWindowedProfile(
        B.Ref, 16, core::BlockTrace::record(B.Ref));
    PhaseAnalysis PA = detectPhases(W.Windows);
    EXPECT_GE(PA.NumPhases, 1);
    EXPECT_EQ(PA.PhaseOfWindow.size(), 16u);
  }
  auto Eon = generateBenchmark(scaledSpec(*findSpec("eon"), 0.05));
  core::WindowedProfile WEon = core::collectWindowedProfile(
      Eon.Ref, 16, core::BlockTrace::record(Eon.Ref));
  EXPECT_EQ(detectPhases(WEon.Windows).NumPhases, 1);
}
