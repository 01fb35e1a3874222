//===- bench/micro_interp.cpp - Interpreter microbenchmarks -----*- C++ -*-===//
//
// google-benchmark timings of the execution substrate: block dispatch,
// full benchmark interpretation, and the multi-policy sweep overhead.
// These are the pieces whose speed determines how long the figure
// reproductions take.
//
//===----------------------------------------------------------------------===//

#include "core/Runner.h"
#include "core/Trace.h"
#include "core/TraceCache.h"
#include "core/TraceIndex.h"
#include "guest/ProgramBuilder.h"
#include "vm/Interpreter.h"
#include "workloads/BenchSpec.h"
#include "workloads/Generator.h"

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <unistd.h>

using namespace tpdbt;

namespace {

/// Tight counted loop: the block-dispatch fast path.
guest::Program makeHotLoop() {
  guest::ProgramBuilder PB("hot");
  auto Entry = PB.createBlock();
  auto Head = PB.createBlock();
  auto Exit = PB.createBlock();
  PB.setEntry(Entry);
  PB.switchTo(Entry);
  PB.movI(1, 0);
  PB.jump(Head);
  PB.switchTo(Head);
  PB.addI(1, 1, 1);
  PB.xorI(2, 1, 0x5a5a);
  PB.branchImm(guest::CondKind::LtI, 1, 1 << 20, Head, Exit);
  PB.switchTo(Exit);
  PB.halt();
  return PB.build();
}

void BM_InterpreterHotLoop(benchmark::State &State) {
  guest::Program P = makeHotLoop();
  vm::Interpreter I(P);
  uint64_t Insts = 0;
  for (auto _ : State) {
    vm::Machine M;
    M.reset(P);
    vm::RunOutcome Out = I.run(M, ~0ull);
    Insts += Out.InstsExecuted;
    benchmark::DoNotOptimize(Out.BlocksExecuted);
  }
  State.SetItemsProcessed(static_cast<int64_t>(Insts));
}
BENCHMARK(BM_InterpreterHotLoop)->Unit(benchmark::kMillisecond);

void BM_InterpretBenchmark(benchmark::State &State) {
  auto B = workloads::generateBenchmark(
      workloads::scaledSpec(*workloads::findSpec("swim"), 0.02));
  vm::Interpreter I(B.Ref);
  uint64_t Insts = 0;
  for (auto _ : State) {
    vm::Machine M;
    M.reset(B.Ref);
    Insts += I.run(M, ~0ull).InstsExecuted;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Insts));
}
BENCHMARK(BM_InterpretBenchmark)->Unit(benchmark::kMillisecond);

/// Cost of simulating N thresholds from one execution (items = block
/// events, so the per-event policy overhead is directly visible).
void BM_SweepPolicies(benchmark::State &State) {
  auto B = workloads::generateBenchmark(
      workloads::scaledSpec(*workloads::findSpec("gzip"), 0.02));
  std::vector<uint64_t> Thresholds;
  for (int I = 0; I < State.range(0); ++I)
    Thresholds.push_back(100ull << I);
  uint64_t Events = 0;
  for (auto _ : State) {
    core::SweepResult R =
        core::runSweep(B.Ref, Thresholds, dbt::DbtOptions(), ~0ull);
    Events += R.Average.BlockEvents;
    benchmark::DoNotOptimize(R.Average.ProfilingOps);
  }
  State.SetItemsProcessed(static_cast<int64_t>(Events));
}
BENCHMARK(BM_SweepPolicies)->Arg(1)->Arg(4)->Arg(15)
    ->Unit(benchmark::kMillisecond);

/// The unavoidable cold-path pass: interpret once while appending to a
/// BlockTrace. runSweep's cost is this plus one BM_ReplaySweep. Measured
/// per benchmark (self-loop density differs wildly: gzip stays in its
/// loops for ~half of all events, swim for ~95%), so the host translation
/// tier's coverage is visible in isolation — the BENCH_record.json
/// baseline at the repo root tracks this family.
void BM_RecordBenchmark(benchmark::State &State, const char *Name) {
  auto B = workloads::generateBenchmark(
      workloads::scaledSpec(*workloads::findSpec(Name), 0.02));
  uint64_t Events = 0;
  for (auto _ : State) {
    core::BlockTrace T = core::BlockTrace::record(B.Ref, ~0ull);
    Events += T.numEvents();
    benchmark::DoNotOptimize(T.totalInsts());
  }
  State.SetItemsProcessed(static_cast<int64_t>(Events));
}
BENCHMARK_CAPTURE(BM_RecordBenchmark, gzip, "gzip")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RecordBenchmark, swim, "swim")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RecordBenchmark, mcf, "mcf")
    ->Unit(benchmark::kMillisecond);

/// The same record pass with the jit tier switched off (TPDBT_HOST_JIT=0,
/// pre-decoded dispatch only): the gap to the plain BM_RecordBenchmark
/// row is the native-code speedup of the hottest chains and self-loops.
/// The knob is read per HostTier construction, so flipping it around the
/// timed region is enough.
void BM_RecordBenchmarkNoJit(benchmark::State &State, const char *Name) {
  auto B = workloads::generateBenchmark(
      workloads::scaledSpec(*workloads::findSpec(Name), 0.02));
  setenv("TPDBT_HOST_JIT", "0", 1);
  uint64_t Events = 0;
  for (auto _ : State) {
    core::BlockTrace T = core::BlockTrace::record(B.Ref, ~0ull);
    Events += T.numEvents();
    benchmark::DoNotOptimize(T.totalInsts());
  }
  unsetenv("TPDBT_HOST_JIT");
  State.SetItemsProcessed(static_cast<int64_t>(Events));
}
BENCHMARK_CAPTURE(BM_RecordBenchmarkNoJit, gzip, "gzip")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RecordBenchmarkNoJit, swim, "swim")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RecordBenchmarkNoJit, mcf, "mcf")
    ->Unit(benchmark::kMillisecond);

/// The full cold-record cache miss: interpret the whole trace, then
/// serialize it at the TPDBT_SEGMENT_EVENTS budget (default 65536:
/// encode + compress each segment, assemble the TPDT v3 container) and
/// write .trace. No index is built; replay does that (BM_BuildTraceIndex).
void BM_RecordCacheMiss(benchmark::State &State, const char *) {
  auto B = workloads::generateBenchmark(
      workloads::scaledSpec(*workloads::findSpec("mcf"), 0.02));
  const std::string Dir =
      (std::filesystem::temp_directory_path() /
       ("tpdbt_bench_record_" + std::to_string(getpid())))
          .string();
  uint64_t Events = 0;
  for (auto _ : State) {
    State.PauseTiming();
    std::filesystem::remove_all(Dir);
    State.ResumeTiming();
    core::TraceCache Cache(Dir);
    auto T = Cache.get("mcf", "ref", 1, B.Ref, ~0ull);
    Events += T->numEvents();
    benchmark::DoNotOptimize(T->totalInsts());
  }
  std::filesystem::remove_all(Dir);
  State.SetItemsProcessed(static_cast<int64_t>(Events));
}
BENCHMARK_CAPTURE(BM_RecordCacheMiss, mcf, "mcf")
    ->Unit(benchmark::kMillisecond);

/// The trace-cache hit path: drive N thresholds from an indexed trace
/// with no interpretation at all. Compare against BM_SweepPolicies at the
/// same argument — the warm-cache speedup of the experiment driver. The
/// index is prebuilt outside the loop (BM_BuildTraceIndex times it), so
/// the rows measure replay alone.
void BM_ReplaySweep(benchmark::State &State) {
  auto B = workloads::generateBenchmark(
      workloads::scaledSpec(*workloads::findSpec("gzip"), 0.02));
  core::BlockTrace T = core::BlockTrace::record(B.Ref, ~0ull);
  T.index();
  std::vector<uint64_t> Thresholds;
  for (int I = 0; I < State.range(0); ++I)
    Thresholds.push_back(100ull << I);
  uint64_t Events = 0;
  for (auto _ : State) {
    core::SweepResult R =
        core::replaySweep(T, B.Ref, Thresholds, dbt::DbtOptions());
    Events += R.Average.BlockEvents;
    benchmark::DoNotOptimize(R.Average.ProfilingOps);
  }
  State.SetItemsProcessed(static_cast<int64_t>(Events));
}
BENCHMARK(BM_ReplaySweep)->Arg(1)->Arg(4)->Arg(15)
    ->Unit(benchmark::kMillisecond);

/// The plain event-pump replay (the adaptive-mode path and the reference
/// the analytic replay is checked against): every trace event through
/// every policy, as DbtEngine::run does live. The gap to BM_ReplaySweep is
/// the analytic index's speedup.
void BM_ReplaySweepEventPump(benchmark::State &State) {
  auto B = workloads::generateBenchmark(
      workloads::scaledSpec(*workloads::findSpec("gzip"), 0.02));
  core::BlockTrace T = core::BlockTrace::record(B.Ref, ~0ull);
  std::vector<uint64_t> Thresholds;
  for (int I = 0; I < State.range(0); ++I)
    Thresholds.push_back(100ull << I);
  uint64_t Events = 0;
  for (auto _ : State) {
    core::SweepResult R =
        core::replaySweepEvents(T, B.Ref, Thresholds, dbt::DbtOptions());
    Events += R.Average.BlockEvents;
    benchmark::DoNotOptimize(R.Average.ProfilingOps);
  }
  State.SetItemsProcessed(static_cast<int64_t>(Events));
}
BENCHMARK(BM_ReplaySweepEventPump)->Arg(1)->Arg(15)
    ->Unit(benchmark::kMillisecond);

/// One-time cost of building the analytic index from a decoded trace,
/// paid once per trace per process on cold and warm runs alike and
/// amortized across every threshold replayed against it.
void BM_BuildTraceIndex(benchmark::State &State) {
  auto B = workloads::generateBenchmark(
      workloads::scaledSpec(*workloads::findSpec("gzip"), 0.02));
  core::BlockTrace T = core::BlockTrace::record(B.Ref, ~0ull);
  uint64_t Events = 0;
  for (auto _ : State) {
    core::TraceIndex Idx = core::TraceIndex::build(T);
    Events += Idx.numEvents();
    benchmark::DoNotOptimize(Idx);
  }
  State.SetItemsProcessed(static_cast<int64_t>(Events));
}
BENCHMARK(BM_BuildTraceIndex)->Unit(benchmark::kMillisecond);

void BM_GenerateBenchmark(benchmark::State &State) {
  const auto &Spec = *workloads::findSpec("gcc");
  for (auto _ : State) {
    auto B = workloads::generateBenchmark(Spec);
    benchmark::DoNotOptimize(B.Ref.numBlocks());
  }
}
BENCHMARK(BM_GenerateBenchmark);

} // namespace

BENCHMARK_MAIN();
