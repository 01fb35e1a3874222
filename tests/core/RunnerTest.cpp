//===- tests/core/RunnerTest.cpp - Multi-threshold sweep tests --*- C++ -*-===//

#include "core/Runner.h"

#include "dbt/DbtEngine.h"
#include "workloads/BenchSpec.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

using namespace tpdbt;
using namespace tpdbt::core;

namespace {

bool snapshotsEqual(const profile::ProfileSnapshot &A,
                    const profile::ProfileSnapshot &B) {
  return profile::printSnapshot(A) == profile::printSnapshot(B);
}

} // namespace

TEST(RunnerTest, SweepMatchesDedicatedEngineRuns) {
  // The key correctness property of the shared-execution optimization:
  // one pass driving N policies produces byte-identical snapshots to N
  // dedicated DbtEngine runs — at any threshold count, a single threshold
  // and duplicated ones included.
  const auto *Spec = workloads::findSpec("twolf");
  auto B = workloads::generateBenchmark(workloads::scaledSpec(*Spec, 0.02));

  dbt::DbtOptions AvepOpts;
  dbt::DbtEngine AvepEngine(B.Ref, AvepOpts);
  const profile::ProfileSnapshot Avep = AvepEngine.run(100000000);

  const std::vector<std::vector<uint64_t>> Lists = {
      {1, 100, 500, 2000, 100000}, {2000}, {500, 500}};
  for (const std::vector<uint64_t> &Thresholds : Lists) {
    dbt::DbtOptions Base;
    SweepResult Sweep = runSweep(B.Ref, Thresholds, Base, 100000000);
    ASSERT_EQ(Sweep.PerThreshold.size(), Thresholds.size());

    for (size_t I = 0; I < Thresholds.size(); ++I) {
      dbt::DbtOptions Opts;
      Opts.Threshold = Thresholds[I];
      dbt::DbtEngine Engine(B.Ref, Opts);
      profile::ProfileSnapshot Single = Engine.run(100000000);
      EXPECT_TRUE(snapshotsEqual(Sweep.PerThreshold[I], Single))
          << "threshold " << Thresholds[I] << " of " << Thresholds.size();
    }
    EXPECT_TRUE(snapshotsEqual(Sweep.Average, Avep))
        << Thresholds.size() << " thresholds";
  }
}

TEST(RunnerTest, SweepWithFpBenchmark) {
  const auto *Spec = workloads::findSpec("art");
  auto B = workloads::generateBenchmark(workloads::scaledSpec(*Spec, 0.02));
  SweepResult Sweep =
      runSweep(B.Ref, {200, 5000}, dbt::DbtOptions(), 100000000);

  for (uint64_t TIdx : {0, 1}) {
    dbt::DbtOptions Opts;
    Opts.Threshold = TIdx == 0 ? 200 : 5000;
    dbt::DbtEngine Engine(B.Ref, Opts);
    EXPECT_TRUE(
        snapshotsEqual(Sweep.PerThreshold[TIdx], Engine.run(100000000)));
  }
}

TEST(RunnerTest, EmptyThresholdListYieldsAverageOnly) {
  const auto *Spec = workloads::findSpec("eon");
  auto B = workloads::generateBenchmark(workloads::scaledSpec(*Spec, 0.01));
  SweepResult Sweep = runSweep(B.Train, {}, dbt::DbtOptions(), 100000000);
  EXPECT_TRUE(Sweep.PerThreshold.empty());
  EXPECT_TRUE(Sweep.Average.isAverage());
  EXPECT_GT(Sweep.Average.BlockEvents, 0u);
}

TEST(RunnerTest, SmallerThresholdFreezesEarlier) {
  const auto *Spec = workloads::findSpec("mgrid");
  auto B = workloads::generateBenchmark(workloads::scaledSpec(*Spec, 0.05));
  SweepResult Sweep =
      runSweep(B.Ref, {100, 10000}, dbt::DbtOptions(), 100000000);
  // Summed frozen counts at T=100 are no larger than at T=10000, and the
  // profiling ops are strictly smaller.
  EXPECT_LT(Sweep.PerThreshold[0].ProfilingOps,
            Sweep.PerThreshold[1].ProfilingOps);
  EXPECT_LT(Sweep.PerThreshold[1].ProfilingOps,
            Sweep.Average.ProfilingOps);
}
