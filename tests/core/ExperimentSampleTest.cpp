//===- tests/core/ExperimentSampleTest.cpp - Sampled-mode context -*- C++ -*-===//

#include "core/Experiment.h"

#include "TestSupport.h"
#include "core/TraceSegments.h"

#include <gtest/gtest.h>

#include <filesystem>

using namespace tpdbt;
using namespace tpdbt::core;

namespace {

ExperimentConfig sampledConfig(const std::string &CacheDir = "") {
  ExperimentConfig C;
  C.Scale = 0.01;
  C.Thresholds = {100, 2000};
  C.CacheDir = CacheDir;
  C.Sample.Kind = sample::SampleConfig::Mode::Stratified;
  C.Sample.BudgetFrac = 0.25;
  return C;
}

ExperimentConfig exactConfig(const std::string &CacheDir = "") {
  ExperimentConfig C = sampledConfig(CacheDir);
  C.Sample = sample::SampleConfig();
  return C;
}

std::string tempDir(const char *Name) {
  std::string Dir =
      (std::filesystem::temp_directory_path() / Name).string();
  std::filesystem::remove_all(Dir);
  return Dir;
}

} // namespace

TEST(ExperimentSampleTest, SampledModePopulatesReplicates) {
  // Tiny-scale traces fit in one default-size segment; slice finer so the
  // sample spans enough segments to form jackknife groups.
  testsupport::ScopedEnv Budget("TPDBT_SEGMENT_EVENTS", "1024");
  ExperimentContext Ctx(sampledConfig());
  EXPECT_TRUE(Ctx.sampling());

  const SampledProfiles *SP = Ctx.sampled("gzip");
  ASSERT_NE(SP, nullptr);
  EXPECT_GE(SP->Stats.Strata, 1u);
  EXPECT_GT(SP->Stats.Segments, 0u);
  EXPECT_LE(SP->Stats.Decoded, SP->Stats.Segments);
  ASSERT_GE(SP->Replicates.size(), 2u);
  for (const auto &Rep : SP->Replicates)
    EXPECT_EQ(Rep.size(), Ctx.config().Thresholds.size());

  // AVEP and INIP(train) stay exact even in sampled mode: they depend
  // only on stream totals, which the estimator carries exactly.
  ExperimentContext Exact(exactConfig());
  EXPECT_EQ(profile::printSnapshot(Ctx.avep("gzip")),
            profile::printSnapshot(Exact.avep("gzip")));
  EXPECT_EQ(profile::printSnapshot(Ctx.train("gzip")),
            profile::printSnapshot(Exact.train("gzip")));
}

TEST(ExperimentSampleTest, OffModeIsExactPath) {
  ExperimentConfig C = exactConfig();
  ExperimentContext Ctx(C);
  EXPECT_FALSE(Ctx.sampling());
  EXPECT_EQ(Ctx.sampled("gzip"), nullptr);
  // Off mode never consults the sampling machinery at all.
  EXPECT_EQ(Ctx.traceStats().SampleDiskOpens.load(), 0u);
  EXPECT_EQ(Ctx.traceStats().SampleSegmentsDecoded.load(), 0u);
  EXPECT_EQ(Ctx.traceStats().SampleSegmentsSkipped.load(), 0u);
}

TEST(ExperimentSampleTest, AdaptivePoliciesStayExact) {
  ExperimentConfig C = sampledConfig();
  C.Dbt.Adaptive.Enabled = true;
  ExperimentContext Ctx(C);
  EXPECT_FALSE(Ctx.sampling());
  EXPECT_EQ(Ctx.sampled("gzip"), nullptr);
}

// Acceptance: sampled runs never read or write the .prof layer, and the
// unsampled share of a warm trace entry is never decompressed — the disk
// source reads the directory plus only the drawn segments.
TEST(ExperimentSampleTest, WarmCacheNeverDecompressesUnsampled) {
  std::string Dir = tempDir("tpdbt_sample_nodecomp_test");

  // Warm the trace layer with an exact run, then drop the .prof layer so
  // any snapshot access in the sampled run would be observable.
  ExperimentContext Warm(exactConfig(Dir));
  (void)Warm.inip("gzip", 100);
  size_t ProfBefore = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    if (E.path().extension() == ".prof") {
      std::filesystem::remove(E.path());
      ++ProfBefore;
    }
  ASSERT_GT(ProfBefore, 0u);

  ExperimentContext Ctx(sampledConfig(Dir));
  const SampledProfiles *SP = Ctx.sampled("gzip");
  ASSERT_NE(SP, nullptr);

  // Both inputs were answered from the segmented container.
  EXPECT_EQ(Ctx.traceStats().SampleDiskOpens.load(), 2u);
  // The full-decode path was never taken: no disk hits, no re-records.
  EXPECT_EQ(Ctx.traceStats().DiskHits.load(), 0u);
  EXPECT_EQ(Ctx.traceStats().Misses.load(), 0u);
  // Decoded exactly the ref plan; everything else (including the whole
  // training trace, answered from its header) was skipped.
  EXPECT_EQ(Ctx.traceStats().SampleSegmentsDecoded.load(),
            SP->Stats.Decoded);
  EXPECT_GT(Ctx.traceStats().SampleSegmentsSkipped.load(),
            SP->Stats.Segments - SP->Stats.Decoded);
  // Sampled runs bypass the .prof cache in both directions: nothing was
  // loaded, nothing was written back.
  EXPECT_EQ(Ctx.stats().CacheHits.load(), 0u);
  EXPECT_EQ(Ctx.stats().CacheMisses.load(), 0u);
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    EXPECT_NE(E.path().extension(), ".prof") << E.path();
  std::filesystem::remove_all(Dir);
}

// Cold (no cache dir) and warm (v3 container) sampled runs must draw the
// identical sample and produce identical estimates.
TEST(ExperimentSampleTest, ColdAndWarmEstimatesAgree) {
  std::string Dir = tempDir("tpdbt_sample_coldwarm_test");

  ExperimentContext Warm(exactConfig(Dir));
  (void)Warm.inip("art", 100); // record the traces

  ExperimentContext Disk(sampledConfig(Dir));
  ExperimentContext Cold(sampledConfig(""));
  for (uint64_t T : Disk.config().Thresholds)
    EXPECT_EQ(profile::printSnapshot(Disk.inip("art", T)),
              profile::printSnapshot(Cold.inip("art", T)))
        << "T=" << T;
  EXPECT_EQ(Disk.traceStats().SampleDiskOpens.load(), 2u);
  EXPECT_EQ(Cold.traceStats().SampleDiskOpens.load(), 0u);
  std::filesystem::remove_all(Dir);
}

// The determinism acceptance criterion at the context level: sampled
// snapshots are byte-identical at any TPDBT_JOBS.
TEST(ExperimentSampleTest, SampledSnapshotsIdenticalAcrossJobs) {
  ExperimentConfig Serial = sampledConfig();
  Serial.Jobs = 1;
  ExperimentContext SerialCtx(Serial);
  SerialCtx.warmUp({"gzip", "swim"});

  ExperimentConfig Parallel = sampledConfig();
  Parallel.Jobs = 8;
  ExperimentContext ParallelCtx(Parallel);
  ParallelCtx.warmUp({"gzip", "swim"});

  for (const std::string &N : {std::string("gzip"), std::string("swim")}) {
    for (uint64_t T : Serial.Thresholds)
      EXPECT_EQ(profile::printSnapshot(SerialCtx.inip(N, T)),
                profile::printSnapshot(ParallelCtx.inip(N, T)))
          << N << " T=" << T;
    const SampledProfiles *A = SerialCtx.sampled(N);
    const SampledProfiles *B = ParallelCtx.sampled(N);
    ASSERT_NE(A, nullptr);
    ASSERT_NE(B, nullptr);
    ASSERT_EQ(A->Replicates.size(), B->Replicates.size());
    for (size_t G = 0; G < A->Replicates.size(); ++G)
      for (size_t T = 0; T < A->Replicates[G].size(); ++T)
        EXPECT_EQ(profile::printSnapshot(A->Replicates[G][T]),
                  profile::printSnapshot(B->Replicates[G][T]));
  }
}

TEST(ExperimentSampleTest, StatsSummaryMentionsSample) {
  ExperimentContext Ctx(sampledConfig());
  (void)Ctx.inip("gzip", 100);
  std::string S = Ctx.statsSummary();
  EXPECT_NE(S.find("sample"), std::string::npos) << S;
  EXPECT_NE(S.find("seg decoded"), std::string::npos) << S;
}

TEST(ExperimentSampleTest, FromEnvParsesSampleKnobs) {
  testsupport::ScopedEnv Mode("TPDBT_SAMPLE_MODE", "stratified");
  testsupport::ScopedEnv Budget("TPDBT_SAMPLE_BUDGET", "0.5");
  testsupport::ScopedEnv Seed("TPDBT_SAMPLE_SEED", "0x123");
  ExperimentConfig C = ExperimentConfig::fromEnv();
  EXPECT_TRUE(C.Sample.enabled());
  EXPECT_DOUBLE_EQ(C.Sample.BudgetFrac, 0.5);
  EXPECT_EQ(C.Sample.Seed, 0x123u);
  // Sampling must never shift the .prof cache keys: exact artifacts stay
  // byte-identical whether the knobs are set or not.
  ExperimentConfig Off = C;
  Off.Sample = sample::SampleConfig();
  EXPECT_EQ(C.fingerprint(), Off.fingerprint());
  EXPECT_EQ(C.executionFingerprint(), Off.executionFingerprint());
  EXPECT_EQ(C.policyFingerprint(), Off.policyFingerprint());
  Mode.set(nullptr);
  Budget.set(nullptr);
  Seed.set(nullptr);
  EXPECT_FALSE(ExperimentConfig::fromEnv().Sample.enabled());
}
