//===- core/TraceCache.cpp - Keyed block-trace record store ----------------===//

#include "core/TraceCache.h"

#include "core/TracePipeline.h"
#include "core/TraceSegments.h"
#include "support/Compression.h"
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
  auto Packed = readTextFile(Path);
  if (!Packed)
    return nullptr;
  // Sniff the outer framing: segmented (v3) containers start with the
  // raw TPDT magic — each segment payload is its own TPDZ frame inside —
  // while monolithic v1/v2 entries are one whole-file TPDZ frame.
  std::string Raw;
  const std::string *Bytes = &*Packed;
  if (Packed->size() >= 4 && Packed->compare(0, 4, "TPDT", 4) == 0) {
    // already raw
  } else if (decompressBytes(*Packed, Raw, nullptr)) {
    Bytes = &Raw;
  } else {
    Stats.CorruptEntries.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  auto Trace = std::make_shared<BlockTrace>();
  if (!BlockTrace::parse(*Bytes, *Trace, nullptr) ||
      Trace->numBlocks() != Program.numBlocks()) {
    // Torn, corrupt, or recorded for a different program shape (a stale
    // key collision): treat as a miss and re-record.
    Stats.CorruptEntries.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  return Trace;
}

void TraceCache::storeDisk(const std::string &Path,
                           const BlockTrace &Trace) const {
  if (!ensureDirectory(Dir))
    return;
  writeTextFileAtomic(Path, compressBytes(Trace.serialize()));
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
  // Only the disk layer wants the segmented container bytes; a
  // memory-only cache records without the pipeline.
  const uint64_t SegmentBudget = Dir.empty() ? 0 : segmentEventBudget();
  auto Start = std::chrono::steady_clock::now();
  vm::HostTierStats Tier;
  std::shared_ptr<BlockTrace> Recorded;
  std::unique_ptr<TracePipeline> Pipe;
  if (SegmentBudget > 0)
    Pipe = std::make_unique<TracePipeline>(SegmentBudget,
                                           Program.numBlocks());
  Recorded = std::make_shared<BlockTrace>(BlockTrace::record(
      Program, MaxBlocks, &Tier,
      Pipe ? BlockTrace::SegmentProgressFn(
                 [&](const BlockTrace &T) { return Pipe->onProgress(T); })
           : BlockTrace::SegmentProgressFn(),
      SegmentBudget));
  auto End = std::chrono::steady_clock::now();
  Stats.RecordMicros.fetch_add(
      std::chrono::duration_cast<std::chrono::microseconds>(End - Start)
          .count(),
      std::memory_order_relaxed);
  Stats.HostChainedBlocks.fetch_add(Tier.ChainedBlocks,
                                    std::memory_order_relaxed);
  Stats.HostFoldedIters.fetch_add(Tier.RunFoldedIters,
                                  std::memory_order_relaxed);
  Stats.HostClosedFormIters.fetch_add(Tier.ClosedFormIters,
                                      std::memory_order_relaxed);
  Stats.HostFallbacks.fetch_add(Tier.Fallbacks, std::memory_order_relaxed);
  Stats.JitUnits.fetch_add(Tier.JitUnits, std::memory_order_relaxed);
  Stats.JitBlocks.fetch_add(Tier.JitBlocks, std::memory_order_relaxed);
  Stats.JitLoopIters.fetch_add(Tier.JitLoopIters, std::memory_order_relaxed);
  Stats.JitDeopts.fetch_add(Tier.JitDeopts, std::memory_order_relaxed);
  Stats.JitFlushes.fetch_add(Tier.JitFlushes, std::memory_order_relaxed);
  Stats.JitCompileMicros.fetch_add(Tier.JitCompileMicros,
                                   std::memory_order_relaxed);
  Stats.JitSchedUnits.fetch_add(Tier.JitSchedUnits, std::memory_order_relaxed);
  Stats.JitReorderedOps.fetch_add(Tier.JitReorderedOps,
                                  std::memory_order_relaxed);
  Stats.JitStubsDeduped.fetch_add(Tier.JitStubsDeduped,
                                  std::memory_order_relaxed);
  Recorded->setName(Name + "." + Input);
  if (Pipe) {
    // Streamed path: the pipeline already compressed every segment behind
    // the recording; finish() drains the tail and assembles the v3
    // container — no separate serialize or compress pass remains.
    TracePipeline::Result R = Pipe->finish(*Recorded);
    Stats.StreamedRecords.fetch_add(1, std::memory_order_relaxed);
    Stats.SegmentsPiped.fetch_add(R.Segments, std::memory_order_relaxed);
    Stats.PipelineMicros.fetch_add(R.WorkMicros, std::memory_order_relaxed);
    Stats.FlushMicros.fetch_add(R.FlushMicros, std::memory_order_relaxed);
    if (ensureDirectory(Dir))
      writeTextFileAtomic(Path, R.FileBytes);
  } else if (!Dir.empty()) {
    storeDisk(Path, *Recorded);
  }
  if (!Dir.empty()) {
    removeStaleSidecar(Path);
    enforceBudget();
  }
  S->Trace = Recorded;
  return Recorded;
}
