//===- core/TracePipeline.cpp - Streamed record/compress -------------------===//

#include "core/TracePipeline.h"

#include "support/Compression.h"

#include <cassert>
#include <chrono>

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

TracePipeline::TracePipeline(uint64_t Budget, size_t NumBlocks)
    : Budget(Budget), NumBlocks(NumBlocks) {
  assert(Budget >= 1 && "segment budget must be positive");
  Pool.submit([this] { consumeLoop(); });
}

TracePipeline::~TracePipeline() {
  if (!Finished) {
    // Abandoned without finish() (error unwind): release the consumer so
    // the pool can join it.
    Ring.close();
    Pool.wait();
  }
}

void TracePipeline::consumeLoop() {
  Work W;
  while (Ring.pop(W)) {
    const auto Start = std::chrono::steady_clock::now();
    TraceSegmentRecord Rec;
    Rec.Events = static_cast<uint32_t>(W.Events.size());
    Rec.BaseInsts = RunInsts;
    Rec.BaseTaken = RunTaken;
    Rec.Payload =
        compressBytes(encodeSegmentEvents(W.Events.data(), W.Events.size()));
    for (const TraceEvent &E : W.Events) {
      RunInsts += E.Insts;
      if (E.Branch == 2)
        ++RunTaken;
    }
    Segments.push_back(std::move(Rec));
    WorkMicros += microsSince(Start);
  }
}

uint64_t TracePipeline::onProgress(const BlockTrace &T) {
  // Batched recorder deliveries can overshoot a boundary by a whole
  // run/chain batch, even past several boundaries at once — cut strictly
  // budget-sized segments regardless.
  while (T.numEvents() >= DoneThrough + Budget) {
    const TraceEvent *Slice = &T.event(static_cast<size_t>(DoneThrough));
    Work W;
    // Copy the slice out of the live vector: recording continues while
    // the consumer reads, and the vector may reallocate under growth.
    W.Events.assign(Slice, Slice + Budget);
    Ring.push(std::move(W));
    DoneThrough += Budget;
  }
  return DoneThrough + Budget;
}

TracePipeline::Result TracePipeline::finish(const BlockTrace &T) {
  assert(!Finished && "finish() must run exactly once");
  const auto Start = std::chrono::steady_clock::now();
  if (T.numEvents() > DoneThrough) {
    const TraceEvent *Slice = &T.event(static_cast<size_t>(DoneThrough));
    Work W;
    W.Events.assign(Slice, Slice + (T.numEvents() - DoneThrough));
    Ring.push(std::move(W));
    DoneThrough = T.numEvents();
  }
  Ring.close();
  Pool.wait(); // consumer drained; its accumulation is now safe to read
  Finished = true;

  Result R;
  R.Segments = Segments.size();
  R.FileBytes = assembleSegmentedTrace(NumBlocks, T.numEvents(),
                                       T.totalInsts(), Budget,
                                       T.finalCounts(), Segments);
  R.WorkMicros = WorkMicros;
  R.FlushMicros = microsSince(Start);
  return R;
}
