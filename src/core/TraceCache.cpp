//===- core/TraceCache.cpp - Keyed block-trace record store ----------------===//

#include "core/TraceCache.h"

#include "core/TraceSegments.h"
#include "support/Format.h"
#include "support/TextFile.h"
#include "vm/HostTier.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <system_error>

using namespace tpdbt;
using namespace tpdbt::core;

namespace {

uint64_t microsSince(std::chrono::steady_clock::time_point Start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());
}

} // namespace

uint64_t tpdbt::core::cacheMaxBytes() {
  const char *Env = std::getenv("TPDBT_CACHE_MAX_BYTES");
  if (!Env || !*Env)
    return 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Env, &End, 10);
  if (End == Env || *End != '\0')
    return 0;
  return V;
}

void TraceCache::touchEntry(const std::string &Path) {
  std::error_code Ec;
  std::filesystem::last_write_time(
      Path, std::filesystem::file_time_type::clock::now(), Ec);
}

void TraceCache::removeStaleSidecar(const std::string &Path) {
  std::error_code Ec;
  std::filesystem::remove(Path + ".idx", Ec);
}

void TraceCache::enforceBudget() {
  const uint64_t Budget = cacheMaxBytes();
  if (Budget == 0 || Dir.empty())
    return;
  std::lock_guard<std::mutex> Guard(EvictLock);
  struct Entry {
    std::string TracePath;
    uint64_t Bytes = 0;
    std::filesystem::file_time_type Used;
  };
  std::vector<Entry> Entries;
  uint64_t Total = 0;
  std::error_code Ec;
  for (const auto &E : std::filesystem::directory_iterator(Dir, Ec)) {
    if (E.path().extension() != ".trace")
      continue;
    Entry Ent;
    Ent.TracePath = E.path().string();
    Ent.Bytes = std::filesystem::file_size(E.path(), Ec);
    if (Ec)
      continue; // raced with a concurrent eviction or rewrite
    Ent.Used = std::filesystem::last_write_time(E.path(), Ec);
    Total += Ent.Bytes;
    Entries.push_back(std::move(Ent));
  }
  if (Total <= Budget)
    return;
  std::sort(Entries.begin(), Entries.end(),
            [](const Entry &A, const Entry &B) { return A.Used < B.Used; });
  for (const Entry &Ent : Entries) {
    if (Total <= Budget)
      break;
    // Removing a disk entry never invalidates live users: the in-memory
    // layer holds its own reference, and the next cold lookup simply
    // re-records (stampede-protected by the per-slot lock as usual).
    std::filesystem::remove(Ent.TracePath, Ec);
    removeStaleSidecar(Ent.TracePath);
    Total -= std::min(Total, Ent.Bytes);
    Stats.Evictions.fetch_add(1, std::memory_order_relaxed);
    Stats.EvictedBytes.fetch_add(Ent.Bytes, std::memory_order_relaxed);
  }
}

bool TraceCache::openSegmented(const std::string &Name,
                               const std::string &Input, uint64_t ExecFp,
                               SegmentedTraceReader &Reader,
                               std::string *Error) {
  if (Dir.empty()) {
    if (Error)
      *Error = "trace cache disk layer is disabled";
    return false;
  }
  const std::string Path = entryPath(Name, Input, ExecFp);
  if (!SegmentedTraceReader::open(Path, Reader, Error))
    return false;
  Stats.SampleDiskOpens.fetch_add(1, std::memory_order_relaxed);
  touchEntry(Path);
  removeStaleSidecar(Path);
  return true;
}

std::string TraceCache::entryPath(const std::string &Name,
                                  const std::string &Input,
                                  uint64_t ExecFp) const {
  return formatString("%s/%s.%s.%016llx.trace", Dir.c_str(), Name.c_str(),
                      Input.c_str(),
                      static_cast<unsigned long long>(ExecFp));
}

std::shared_ptr<BlockTrace>
TraceCache::loadDisk(const std::string &Path, const guest::Program &Program) {
  auto Bytes = readTextFile(Path);
  if (!Bytes)
    return nullptr;
  auto Trace = std::make_shared<BlockTrace>();
  if (!BlockTrace::parse(*Bytes, *Trace, nullptr) ||
      Trace->numBlocks() != Program.numBlocks()) {
    // Torn, corrupt, written in a retired format (TPDT v1/v2 in a
    // whole-file TPDZ frame), or recorded for a different program shape
    // (a stale key collision): treat as a miss; the re-recording
    // overwrites the entry.
    Stats.CorruptEntries.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  return Trace;
}

std::shared_ptr<const BlockTrace>
TraceCache::get(const std::string &Name, const std::string &Input,
                uint64_t ExecFp, const guest::Program &Program,
                uint64_t MaxBlocks) {
  Slot *S;
  {
    std::string Key = formatString("%s.%s.%016llx", Name.c_str(),
                                   Input.c_str(),
                                   static_cast<unsigned long long>(ExecFp));
    std::lock_guard<std::mutex> Guard(SlotsLock);
    S = &Slots[Key];
  }
  // Per-slot lock: lookups of different inputs record concurrently, while
  // racing lookups of the same input serialize and share one recording.
  std::lock_guard<std::mutex> Guard(S->Lock);
  if (auto Held = S->Trace.lock()) {
    Stats.MemoryHits.fetch_add(1, std::memory_order_relaxed);
    return Held;
  }

  std::string Path;
  if (!Dir.empty()) {
    Path = entryPath(Name, Input, ExecFp);
    if (auto FromDisk = loadDisk(Path, Program)) {
      Stats.DiskHits.fetch_add(1, std::memory_order_relaxed);
      touchEntry(Path); // refresh LRU recency for the bounded store
      removeStaleSidecar(Path);
      FromDisk->setName(Name + "." + Input);
      S->Trace = FromDisk;
      return FromDisk;
    }
  }

  Stats.Misses.fetch_add(1, std::memory_order_relaxed);
  auto Start = std::chrono::steady_clock::now();
  vm::HostTierStats Tier;
  auto Recorded = std::make_shared<BlockTrace>(
      BlockTrace::record(Program, MaxBlocks, &Tier));
  Stats.RecordMicros.fetch_add(microsSince(Start), std::memory_order_relaxed);
  Stats.HostChainedBlocks.fetch_add(Tier.ChainedBlocks,
                                    std::memory_order_relaxed);
  Stats.HostFoldedIters.fetch_add(Tier.RunFoldedIters,
                                  std::memory_order_relaxed);
  Stats.HostFallbacks.fetch_add(Tier.Fallbacks, std::memory_order_relaxed);
  Stats.JitUnits.fetch_add(Tier.JitUnits, std::memory_order_relaxed);
  Stats.JitBlocks.fetch_add(Tier.JitBlocks, std::memory_order_relaxed);
  Stats.JitLoopIters.fetch_add(Tier.JitLoopIters, std::memory_order_relaxed);
  Stats.JitDeopts.fetch_add(Tier.JitDeopts, std::memory_order_relaxed);
  Stats.JitFlushes.fetch_add(Tier.JitFlushes, std::memory_order_relaxed);
  Stats.JitCompileMicros.fetch_add(Tier.JitCompileMicros,
                                   std::memory_order_relaxed);
  Recorded->setName(Name + "." + Input);
  if (!Dir.empty()) {
    const uint64_t Budget = segmentEventBudget();
    Start = std::chrono::steady_clock::now();
    const std::string Bytes = Recorded->serialize(Budget);
    Stats.FlushMicros.fetch_add(microsSince(Start), std::memory_order_relaxed);
    Stats.SegmentsPiped.fetch_add((Recorded->numEvents() + Budget - 1) /
                                      Budget,
                                  std::memory_order_relaxed);
    if (ensureDirectory(Dir))
      writeTextFileAtomic(Path, Bytes);
    removeStaleSidecar(Path);
    enforceBudget();
  }
  S->Trace = Recorded;
  return Recorded;
}
