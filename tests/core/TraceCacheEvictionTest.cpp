//===- tests/core/TraceCacheEvictionTest.cpp - LRU budget tests -*- C++ -*-===//

#include "core/TraceCache.h"

#include "core/TraceSegments.h"
#include "support/TextFile.h"
#include "workloads/BenchSpec.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

using namespace tpdbt;
using namespace tpdbt::core;

namespace {

namespace fs = std::filesystem;

/// A scratch cache directory plus a TPDBT_CACHE_MAX_BYTES value, both
/// restored on destruction so other tests see a clean environment.
struct BudgetFixture {
  fs::path Dir;

  BudgetFixture() {
    Dir = fs::temp_directory_path() /
          ("tpdbt_evict_test_" + std::to_string(::getpid()));
    fs::create_directories(Dir);
  }
  ~BudgetFixture() {
    ::unsetenv("TPDBT_CACHE_MAX_BYTES");
    std::error_code Ec;
    fs::remove_all(Dir, Ec);
  }

  void setBudget(uint64_t Bytes) {
    ::setenv("TPDBT_CACHE_MAX_BYTES", std::to_string(Bytes).c_str(), 1);
  }

  /// Writes a .trace file of \p Bytes and stamps it \p AgeSeconds into
  /// the past, so recency order is explicit rather than racing the
  /// filesystem clock.
  std::string addEntry(const std::string &Stem, size_t Bytes,
                       int AgeSeconds) {
    const std::string Trace = (Dir / (Stem + ".trace")).string();
    writeTextFile(Trace, std::string(Bytes, 't'));
    fs::last_write_time(Trace, fs::file_time_type::clock::now() -
                                   std::chrono::seconds(AgeSeconds));
    return Trace;
  }

  /// Plants the `<trace>.idx` index sidecar an older build wrote next to
  /// each entry.
  static std::string plantSidecar(const std::string &Trace, size_t Bytes) {
    const std::string Idx = Trace + ".idx";
    writeTextFile(Idx, std::string(Bytes, 'i'));
    return Idx;
  }
};

} // namespace

TEST(CacheMaxBytesTest, ReadsEnvironmentFresh) {
  ::unsetenv("TPDBT_CACHE_MAX_BYTES");
  EXPECT_EQ(cacheMaxBytes(), 0u);
  ::setenv("TPDBT_CACHE_MAX_BYTES", "1048576", 1);
  EXPECT_EQ(cacheMaxBytes(), 1048576u);
  ::setenv("TPDBT_CACHE_MAX_BYTES", "not a number", 1);
  EXPECT_EQ(cacheMaxBytes(), 0u);
  ::unsetenv("TPDBT_CACHE_MAX_BYTES");
}

TEST(TraceCacheEvictionTest, EvictsOldestEntriesUntilUnderBudget) {
  BudgetFixture F;
  // Four 1000-byte entries, oldest first; a 3000-byte budget must drop
  // exactly the oldest one.
  const std::string Oldest = F.addEntry("a.ref.0001", 1000, 400);
  const std::string Mid1 = F.addEntry("b.ref.0002", 1000, 300);
  const std::string Mid2 = F.addEntry("c.ref.0003", 1000, 200);
  const std::string Newest = F.addEntry("d.ref.0004", 1000, 100);
  F.setBudget(3000);

  TraceCache Cache(F.Dir.string());
  Cache.enforceBudget();

  EXPECT_FALSE(fs::exists(Oldest));
  EXPECT_TRUE(fs::exists(Mid1));
  EXPECT_TRUE(fs::exists(Mid2));
  EXPECT_TRUE(fs::exists(Newest));
  EXPECT_EQ(Cache.stats().Evictions.load(), 1u);
  EXPECT_EQ(Cache.stats().EvictedBytes.load(), 1000u);

  // Shrinking the budget keeps evicting in LRU order.
  F.setBudget(1000);
  Cache.enforceBudget();
  EXPECT_FALSE(fs::exists(Mid1));
  EXPECT_FALSE(fs::exists(Mid2));
  EXPECT_TRUE(fs::exists(Newest));
  EXPECT_EQ(Cache.stats().Evictions.load(), 3u);
}

TEST(TraceCacheEvictionTest, UnboundedBudgetNeverEvicts) {
  BudgetFixture F;
  const std::string A = F.addEntry("a.ref.0001", 4000, 100);
  ::unsetenv("TPDBT_CACHE_MAX_BYTES");
  TraceCache Cache(F.Dir.string());
  Cache.enforceBudget();
  EXPECT_TRUE(fs::exists(A));
  EXPECT_EQ(Cache.stats().Evictions.load(), 0u);
}

TEST(TraceCacheEvictionTest, ProfSnapshotsAreNeverEvicted) {
  BudgetFixture F;
  // A .prof file dwarfing the budget sits in the same directory; only
  // .trace entries are the trace store's to manage.
  const std::string Prof = (F.Dir / "gzip.1234.prof").string();
  writeTextFile(Prof, std::string(100000, 'p'));
  const std::string Trace = F.addEntry("a.ref.0001", 1000, 100);
  F.setBudget(500);

  TraceCache Cache(F.Dir.string());
  Cache.enforceBudget();
  EXPECT_TRUE(fs::exists(Prof));
  EXPECT_FALSE(fs::exists(Trace));
}

TEST(TraceCacheEvictionTest, RecentUseProtectsAnEntry) {
  BudgetFixture F;
  // The *older-named* entry is the most recently used; LRU must keep it
  // and drop the stale one regardless of creation order.
  const std::string Hot = F.addEntry("a.ref.0001", 1000, 500);
  const std::string Cold = F.addEntry("b.ref.0002", 1000, 50);
  // Simulate a disk hit on Hot: bump its recency to "now".
  const auto Now = fs::file_time_type::clock::now();
  fs::last_write_time(Hot, Now);
  F.setBudget(1000);

  TraceCache Cache(F.Dir.string());
  Cache.enforceBudget();
  EXPECT_TRUE(fs::exists(Hot));
  EXPECT_FALSE(fs::exists(Cold));
}

TEST(TraceCacheEvictionTest, BudgetCountsOnlyTraceBytes) {
  BudgetFixture F;
  // Stale sidecars dwarf the traces, as they did in caches written while
  // the index was persisted; the budget is about .trace bytes alone.
  const std::string Old = F.addEntry("a.ref.0001", 1000, 200);
  const std::string New = F.addEntry("b.ref.0002", 1000, 100);
  const std::string OldIdx = F.plantSidecar(Old, 50000);
  const std::string NewIdx = F.plantSidecar(New, 50000);
  F.setBudget(2000);

  TraceCache Cache(F.Dir.string());
  Cache.enforceBudget();
  EXPECT_TRUE(fs::exists(Old));
  EXPECT_TRUE(fs::exists(New));
  EXPECT_EQ(Cache.stats().Evictions.load(), 0u);

  // Evicting an entry takes its stale sidecar along, and only the trace
  // bytes count as freed.
  F.setBudget(1000);
  Cache.enforceBudget();
  EXPECT_FALSE(fs::exists(Old));
  EXPECT_FALSE(fs::exists(OldIdx));
  EXPECT_TRUE(fs::exists(New));
  EXPECT_TRUE(fs::exists(NewIdx));
  EXPECT_EQ(Cache.stats().Evictions.load(), 1u);
  EXPECT_EQ(Cache.stats().EvictedBytes.load(), 1000u);
}

TEST(TraceCacheEvictionTest, StaleSidecarIsRemovedOnDiskHit) {
  BudgetFixture F;
  ::unsetenv("TPDBT_CACHE_MAX_BYTES");
  ::unsetenv("TPDBT_SEGMENT_EVENTS"); // openSegmented needs a v3 entry
  auto B = workloads::generateBenchmark(
      workloads::scaledSpec(*workloads::findSpec("gzip"), 0.01));
  std::string Entry;
  {
    TraceCache Cold(F.Dir.string());
    ASSERT_NE(Cold.get("gzip", "ref", 0x42, B.Ref, 2000), nullptr);
    Entry = Cold.entryPath("gzip", "ref", 0x42);
  }
  const std::string Idx = F.plantSidecar(Entry, 4096);

  TraceCache Warm(F.Dir.string());
  ASSERT_NE(Warm.get("gzip", "ref", 0x42, B.Ref, 2000), nullptr);
  EXPECT_EQ(Warm.stats().DiskHits.load(), 1u);
  EXPECT_TRUE(fs::exists(Entry));
  EXPECT_FALSE(fs::exists(Idx));

  // The sampled-replay open path is a hit too.
  F.plantSidecar(Entry, 4096);
  SegmentedTraceReader Reader;
  ASSERT_TRUE(Warm.openSegmented("gzip", "ref", 0x42, Reader, nullptr));
  EXPECT_FALSE(fs::exists(Idx));
}
