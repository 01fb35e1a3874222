//===- tests/core/TraceIndexTest.cpp - Analytic index tests -----*- C++ -*-===//

#include "core/TraceIndex.h"

#include "core/Trace.h"
#include "core/TraceCache.h"
#include "workloads/BenchSpec.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include <unistd.h>

using namespace tpdbt;
using namespace tpdbt::core;

namespace {

workloads::GeneratedBenchmark smallBench(const char *Name) {
  return workloads::generateBenchmark(
      workloads::scaledSpec(*workloads::findSpec(Name), 0.01));
}

BlockTrace recordedTrace(const char *Name, uint64_t MaxBlocks = ~0ull) {
  auto B = smallBench(Name);
  return BlockTrace::record(B.Ref, MaxBlocks);
}

} // namespace

TEST(TraceIndexTest, InvariantsMatchBruteForce) {
  BlockTrace T = recordedTrace("gzip", 20000);
  const TraceIndex Idx = TraceIndex::build(T);
  ASSERT_EQ(Idx.numBlocks(), T.numBlocks());
  ASSERT_EQ(Idx.numEvents(), T.numEvents());
  EXPECT_EQ(Idx.totalInsts(), T.totalInsts());
  EXPECT_EQ(Idx.takenEvents(), T.takenEvents());

  // Recompute every per-block series by scanning the events directly.
  const size_t N = T.numBlocks();
  std::vector<std::vector<uint32_t>> Pos(N);
  std::vector<std::vector<uint32_t>> Taken(N, {0u});
  std::vector<std::vector<uint64_t>> Insts(N, {0ull});
  uint64_t GlobalInsts = 0;
  uint32_t GlobalTaken = 0;
  for (size_t I = 0; I < T.numEvents(); ++I) {
    const TraceEvent &E = T.event(I);
    EXPECT_EQ(Idx.instsBefore(static_cast<uint32_t>(I)), GlobalInsts);
    EXPECT_EQ(Idx.takenBefore(static_cast<uint32_t>(I)), GlobalTaken);
    Pos[E.Block].push_back(static_cast<uint32_t>(I));
    Taken[E.Block].push_back(Taken[E.Block].back() + (E.Branch == 2));
    Insts[E.Block].push_back(Insts[E.Block].back() + E.Insts);
    GlobalInsts += E.Insts;
    GlobalTaken += E.Branch == 2;
  }
  EXPECT_EQ(Idx.instsBefore(static_cast<uint32_t>(T.numEvents())),
            GlobalInsts);
  EXPECT_EQ(Idx.takenBefore(static_cast<uint32_t>(T.numEvents())),
            GlobalTaken);

  for (size_t B = 0; B < N; ++B) {
    const auto Id = static_cast<guest::BlockId>(B);
    ASSERT_EQ(Idx.occurrences(Id), Pos[B].size()) << "block " << B;
    for (uint32_t K = 0; K < Pos[B].size(); ++K) {
      EXPECT_EQ(Idx.position(Id, K), Pos[B][K]);
      EXPECT_EQ(Idx.occurrenceAt(Id, Pos[B][K]), K);
    }
    for (uint32_t K = 0; K <= Pos[B].size(); ++K) {
      EXPECT_EQ(Idx.takenOfFirst(Id, K), Taken[B][K]);
      EXPECT_EQ(Idx.instsOfFirst(Id, K), Insts[B][K]);
    }
  }
}

TEST(TraceIndexTest, UsesThroughMatchesBruteForce) {
  BlockTrace T = recordedTrace("eon", 3000);
  const TraceIndex Idx = TraceIndex::build(T);
  std::vector<uint32_t> Running(T.numBlocks(), 0);
  for (size_t I = 0; I < T.numEvents(); ++I) {
    ++Running[T.event(I).Block];
    // Spot-check all blocks at a stride, and the executing block always.
    for (size_t B = 0; B < T.numBlocks(); B += (I % 7) + 1) {
      const auto Id = static_cast<guest::BlockId>(B);
      EXPECT_EQ(Idx.usesThrough(Id, static_cast<uint32_t>(I)), Running[B])
          << "block " << B << " pos " << I;
      profile::BlockCounters C =
          Idx.countersThrough(Id, static_cast<uint32_t>(I));
      EXPECT_EQ(C.Use, Running[B]);
    }
  }
}

TEST(TraceIndexTest, FirstOutcomeChangeMatchesBruteForce) {
  BlockTrace T = recordedTrace("swim", 10000);
  const TraceIndex Idx = TraceIndex::build(T);
  for (size_t B = 0; B < T.numBlocks(); ++B) {
    const auto Id = static_cast<guest::BlockId>(B);
    const uint32_t Cnt = Idx.occurrences(Id);
    if (!Cnt)
      continue;
    // Collect the block's outcome sequence once.
    std::vector<bool> TakenSeq;
    for (uint32_t K = 0; K < Cnt; ++K)
      TakenSeq.push_back(Idx.takenOfFirst(Id, K + 1) >
                         Idx.takenOfFirst(Id, K));
    for (uint32_t K = 0; K < Cnt; K += 3) {
      for (bool Want : {false, true}) {
        uint32_t Expected = K;
        while (Expected < Cnt && TakenSeq[Expected] == Want)
          ++Expected;
        EXPECT_EQ(Idx.firstOutcomeChange(Id, K, Want), Expected)
            << "block " << B << " K=" << K << " taken=" << Want;
      }
    }
  }
}

TEST(TraceIndexTest, MatchesRejectsOtherTrace) {
  BlockTrace A = recordedTrace("gzip", 1000);
  BlockTrace B = recordedTrace("gzip", 1001);
  EXPECT_TRUE(A.index().matches(A));
  EXPECT_FALSE(A.index().matches(B));
}

TEST(TraceIndexTest, PositionLimitIsCheckedInEveryBuildType) {
  // A fake event count stands in for a 4 G-event trace: the check is a
  // plain branch, not an assert, so it runs in Release builds too.
  EXPECT_NO_THROW(TraceIndex::checkPositionLimit((1ull << 32) - 1, "x"));
  try {
    TraceIndex::checkPositionLimit(1ull << 32, "gzip.ref");
    FAIL() << "a 2^32-event trace must be refused";
  } catch (const std::length_error &E) {
    const std::string Msg = E.what();
    EXPECT_NE(Msg.find("gzip.ref"), std::string::npos) << Msg;
    EXPECT_NE(Msg.find("4294967296"), std::string::npos) << Msg;
  }
  EXPECT_THROW(TraceIndex::checkPositionLimit(~0ull, ""), std::length_error);
}

TEST(TraceIndexTest, CacheWritesOnlyTheTraceEntry) {
  const std::string Dir =
      (std::filesystem::temp_directory_path() /
       ("tpdbt_trace_index_test_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(Dir);
  auto B = smallBench("gzip");

  {
    // A cold get with a disk layer writes exactly one .trace per key and
    // builds no index: replay builds it on demand.
    TraceCache Cache(Dir);
    auto Ref = Cache.get("gzip", "ref", 0x1234, B.Ref, 5000);
    auto Train = Cache.get("gzip", "train", 0x1234, B.Train, 5000);
    ASSERT_NE(Ref, nullptr);
    ASSERT_NE(Train, nullptr);
    EXPECT_EQ(Cache.stats().Misses.load(), 2u);
    EXPECT_EQ(Cache.stats().IndexBuilds.load(), 0u);
    EXPECT_EQ(Ref->sharedIndex(), nullptr);
    EXPECT_EQ(Ref->name(), "gzip.ref");
    std::vector<std::string> Files;
    for (const auto &E : std::filesystem::directory_iterator(Dir))
      Files.push_back(E.path().filename().string());
    std::sort(Files.begin(), Files.end());
    ASSERT_EQ(Files.size(), 2u);
    EXPECT_EQ(Dir + "/" + Files[0], Cache.entryPath("gzip", "ref", 0x1234));
    EXPECT_EQ(Dir + "/" + Files[1],
              Cache.entryPath("gzip", "train", 0x1234));
  }

  {
    // A warm hit serves the trace alone; its index is built lazily and
    // equals a fresh build over a direct recording.
    TraceCache Cache(Dir);
    auto T = Cache.get("gzip", "ref", 0x1234, B.Ref, 5000);
    ASSERT_NE(T, nullptr);
    EXPECT_EQ(Cache.stats().DiskHits.load(), 1u);
    EXPECT_EQ(Cache.stats().IndexHits.load(), 0u);
    EXPECT_EQ(T->sharedIndex(), nullptr);
    EXPECT_TRUE(T->index().matches(BlockTrace::record(B.Ref, 5000)));
    EXPECT_FALSE(std::filesystem::exists(
        Cache.entryPath("gzip", "ref", 0x1234) + ".idx"));
  }

  std::filesystem::remove_all(Dir);
}

TEST(TraceIndexTest, WarmDiskHitReplayMatchesColdInMemory) {
  const std::string Dir =
      (std::filesystem::temp_directory_path() /
       ("tpdbt_trace_index_warm_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(Dir);
  auto B = smallBench("mcf");
  const std::vector<uint64_t> Thresholds = {1, 50, 500, 2000, 50};
  const dbt::DbtOptions Opts;

  auto sweepText = [&](const SweepResult &R) {
    std::string Out;
    for (const profile::ProfileSnapshot &S : R.PerThreshold)
      Out += profile::printSnapshot(S);
    return Out + profile::printSnapshot(R.Average);
  };

  TraceCache Memory("");
  auto Cold = Memory.get("mcf", "ref", 0x99, B.Ref, 30000);
  const std::string Expected =
      sweepText(replaySweep(*Cold, B.Ref, Thresholds, Opts, 1));

  TraceCache(Dir).get("mcf", "ref", 0x99, B.Ref, 30000);
  for (unsigned Jobs : {1u, 4u}) {
    TraceCache Warm(Dir);
    auto T = Warm.get("mcf", "ref", 0x99, B.Ref, 30000);
    ASSERT_EQ(Warm.stats().DiskHits.load(), 1u);
    EXPECT_EQ(sweepText(replaySweep(*T, B.Ref, Thresholds, Opts, Jobs)),
              Expected)
        << "jobs " << Jobs;
  }
  std::filesystem::remove_all(Dir);
}
