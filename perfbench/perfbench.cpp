//===- perfbench/perfbench.cpp - End-to-end benchmark driver ---*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled half of the end-to-end benchmark (perfbench/run.py is the
/// other half: it builds this, prepares cache directories, spawns the
/// processes under test and turns their reports into metrics).
///
///   suite   runs all figures of core::figureRegistry() over the whole
///           suite in one process, compares every table with the expected
///           CSVs, and prints one JSON report. --trace 1 runs the same
///           work decomposed into calls on each layer's public functions
///           and attributes the wall time to layers.
///   mix     closed-loop protocol clients working through a request
///           queue against tpdbt-sweepd (or, with --trace 1, against a
///           service::Daemon hosted here); checks every exact reply
///           against event-pump replay of the same trace.
///   oracle  writes the expected figure CSVs with the differential oracle:
///           plain-interpreter recording plus event-pump replay.
///   context prints the build type (run.py refuses non-Release builds)
///           and the benchmark and figure names the mix draws from.
///
/// Layer self time is wall time: every instant of the timed phase is
/// split evenly among the threads that are inside some layer's span at
/// that instant, so the layer totals plus the unattributed remainder add
/// up to the wall clock by construction. What is checked is that the
/// durations the layers' own counters report fit inside the spans timed
/// here (Tracer::clipped).
///
//===----------------------------------------------------------------------===//

#include "core/Experiment.h"
#include "core/Figures.h"
#include "core/Trace.h"
#include "core/TraceCache.h"
#include "service/Daemon.h"
#include "service/Protocol.h"
#include "service/SweepService.h"
#include "support/Format.h"
#include "support/Rng.h"
#include "support/TextFile.h"
#include "support/ThreadPool.h"
#include "workloads/BenchSpec.h"
#include "workloads/Generator.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace tpdbt;
using namespace tpdbt::core;
using Clock = std::chrono::steady_clock;

namespace {

//===----------------------------------------------------------------------===//
// Small utilities
//===----------------------------------------------------------------------===//

struct Args {
  std::map<std::string, std::string> KV;
  std::string get(const std::string &K, const std::string &Def = "") const {
    auto It = KV.find(K);
    return It == KV.end() ? Def : It->second;
  }
  double num(const std::string &K, double Def) const {
    auto It = KV.find(K);
    return It == KV.end() ? Def : std::atof(It->second.c_str());
  }
  bool flag(const std::string &K) const { return KV.count(K) != 0; }
};

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 2; I < Argc; ++I) {
    std::string K = Argv[I];
    if (K.rfind("--", 0) != 0)
      continue;
    K = K.substr(2);
    if (I + 1 < Argc && std::strncmp(Argv[I + 1], "--", 2) != 0)
      A.KV[K] = Argv[++I];
    else
      A.KV[K] = "1";
  }
  return A;
}

double secondsSince(Clock::time_point T0, Clock::time_point T) {
  return std::chrono::duration<double>(T - T0).count();
}

double cpuSeconds() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_utime.tv_sec + U.ru_utime.tv_usec * 1e-6 + U.ru_stime.tv_sec +
         U.ru_stime.tv_usec * 1e-6;
}

double peakRssMb() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (C == '\n') {
      Out += "\\n";
      continue;
    }
    Out += C;
  }
  return Out;
}

/// A flat JSON object writer; values are emitted in insertion order.
class JsonObject {
public:
  void num(const std::string &K, double V) {
    Fields.push_back("\"" + K + "\": " + formatString("%.9g", V));
  }
  void count(const std::string &K, uint64_t V) {
    Fields.push_back("\"" + K + "\": " +
                     std::to_string(static_cast<unsigned long long>(V)));
  }
  void str(const std::string &K, const std::string &V) {
    Fields.push_back("\"" + K + "\": \"" + jsonEscape(V) + "\"");
  }
  void raw(const std::string &K, const std::string &Json) {
    Fields.push_back("\"" + K + "\": " + Json);
  }
  std::string text() const { return "{" + join(Fields, ", ") + "}"; }

private:
  std::vector<std::string> Fields;
};

std::string jsonNumbers(const std::vector<double> &V) {
  std::vector<std::string> Parts;
  for (double X : V)
    Parts.push_back(formatString("%.6f", X));
  return "[" + join(Parts, ", ") + "]";
}

std::string jsonStrings(const std::vector<std::string> &V) {
  std::vector<std::string> Parts;
  for (const std::string &X : V)
    Parts.push_back(formatString("\"%s\"", jsonEscape(X).c_str()));
  return "[" + join(Parts, ", ") + "]";
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

std::vector<std::string> suiteNames() {
  std::vector<std::string> All = workloads::intBenchmarkNames();
  for (const std::string &N : workloads::fpBenchmarkNames())
    All.push_back(N);
  return All;
}

template <typename T> void shuffleBySeed(std::vector<T> &V, uint64_t Seed) {
  std::mt19937_64 G(Seed);
  std::shuffle(V.begin(), V.end(), G);
}

bool isReleaseBuild() {
#ifdef NDEBUG
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

/// The .trace key ExperimentContext::ensureProfiles derives for \p B.
uint64_t execFingerprint(const ExperimentConfig &C,
                         const workloads::GeneratedBenchmark &B) {
  return combineSeeds(combineSeeds(C.executionFingerprint(),
                                   workloads::specFingerprint(B.Spec)),
                      B.Spec.MaxBlockEvents);
}

//===----------------------------------------------------------------------===//
// Spans and wall-share attribution
//===----------------------------------------------------------------------===//

/// The layers a traced run attributes wall time to; the names are the
/// per-layer metric names run.py prints.
enum Layer : int {
  LVmRecord,
  LJitCompile,
  LTracePipeline,
  LTraceFlush,
  LIndexBuild,
  LCacheWrite,
  LCacheRead,
  LCacheProf,
  LReplay,
  LSample,
  LAnalysis,
  LService,
  NumLayers
};

const char *const LayerNames[NumLayers] = {
    "vm.record_s",        "jit.compile_s",      "core.trace.pipeline_s",
    "core.trace.flush_s", "core.index.build_s", "core.cache.write_s",
    "core.cache.read_s",  "core.cache.prof_s",  "core.replay.s",
    "sample.s",           "analysis.figures_s", "service.self_s"};

/// Collects self-time intervals from every thread of a traced run. Each
/// span is one thread's call into a layer, timed here. Its children are
/// durations the layer reports (counter deltas read around the call), laid
/// out back to back from the span's start; whatever they do not cover is
/// the span's own self time. A child that does not fit in what is left of
/// its span is cut to fit, and the cut is kept in clipped(): the layers'
/// own clocks and this one must agree, so a large cut means the counters
/// read around a call were not that call's alone.
class Tracer {
public:
  explicit Tracer(Clock::time_point T0) : T0(T0) {}

  double now() const { return secondsSince(T0, Clock::now()); }

  void span(Layer Parent, double Start, double End,
            const std::vector<std::pair<Layer, double>> &Children = {}) {
    std::lock_guard<std::mutex> Guard(Lock);
    double At = Start;
    for (const auto &[L, Dur] : Children) {
      const double Len = std::min(std::max(Dur, 0.0), End - At);
      Clipped += std::max(Dur, 0.0) - std::max(Len, 0.0);
      if (Len <= 0.0)
        continue;
      Ivs.push_back({L, At, At + Len});
      At += Len;
    }
    if (End > At)
      Ivs.push_back({Parent, At, End});
  }

  /// A span of \p Dur seconds of work that ran on a thread of its own
  /// while [Start, End) was timed on the caller's thread.
  void overlapped(Layer L, double Start, double End, double Dur) {
    std::lock_guard<std::mutex> Guard(Lock);
    const double Len = std::min(std::max(Dur, 0.0), End - Start);
    Clipped += std::max(Dur, 0.0) - std::max(Len, 0.0);
    if (Len > 0.0)
      Ivs.push_back({L, Start, Start + Len});
  }

  double clipped() const {
    std::lock_guard<std::mutex> Guard(Lock);
    return Clipped;
  }

  /// Splits [0, Wall) among the layers: an elementary slice with k
  /// active intervals gives dt/k to each; slices with none are
  /// unattributed.
  void attribute(double Wall, double Self[NumLayers],
                 double &Unattributed) const {
    std::vector<std::pair<double, int>> Ev; // (time, +/-(layer+1))
    for (const Interval &I : Ivs) {
      Ev.push_back({std::min(I.Start, Wall), I.L + 1});
      Ev.push_back({std::min(I.End, Wall), -(I.L + 1)});
    }
    std::sort(Ev.begin(), Ev.end(), [](const auto &A, const auto &B) {
      return A.first < B.first || (A.first == B.first && A.second < B.second);
    });
    int Active[NumLayers] = {};
    int K = 0;
    double Prev = 0.0;
    Unattributed = 0.0;
    for (int L = 0; L < NumLayers; ++L)
      Self[L] = 0.0;
    for (const auto &[T, Code] : Ev) {
      const double Dt = T - Prev;
      if (Dt > 0.0) {
        if (K == 0)
          Unattributed += Dt;
        else
          for (int L = 0; L < NumLayers; ++L)
            Self[L] += Dt * Active[L] / K;
      }
      Prev = T;
      if (Code > 0) {
        ++Active[Code - 1];
        ++K;
      } else {
        --Active[-Code - 1];
        --K;
      }
    }
    if (Wall > Prev)
      Unattributed += Wall - Prev;
  }

private:
  struct Interval {
    Layer L;
    double Start, End;
  };
  Clock::time_point T0;
  mutable std::mutex Lock;
  std::vector<Interval> Ivs;
  double Clipped = 0.0;
};

/// The trace-cache counters a traced run differences around each call.
struct CacheSnap {
  uint64_t MemoryHits, DiskHits, Misses, Corrupt, RecordMicros, IndexHits,
      IndexBuilds, IndexMicros, Segments, PipelineMicros, FlushMicros,
      HostChained, HostFolded, HostFallbacks, JitUnits, JitBlocks,
      JitLoopIters, JitDeopts, JitCompileMicros, SampleDecoded,
      SampleSkipped;
};

CacheSnap snap(const TraceCache::Counters &C) {
  auto L = [](const std::atomic<uint64_t> &A) {
    return A.load(std::memory_order_relaxed);
  };
  return {L(C.MemoryHits),     L(C.DiskHits),         L(C.Misses),
          L(C.CorruptEntries), L(C.RecordMicros),     L(C.IndexHits),
          L(C.IndexBuilds),    L(C.IndexMicros),      L(C.SegmentsPiped),
          L(C.PipelineMicros), L(C.FlushMicros),      L(C.HostChainedBlocks),
          L(C.HostFoldedIters), L(C.HostFallbacks),   L(C.JitUnits),
          L(C.JitBlocks),      L(C.JitLoopIters),     L(C.JitDeopts),
          L(C.JitCompileMicros), L(C.SampleSegmentsDecoded),
          L(C.SampleSegmentsSkipped)};
}

CacheSnap operator-(const CacheSnap &A, const CacheSnap &B) {
  constexpr size_t N = sizeof(CacheSnap) / sizeof(uint64_t);
  static_assert(N * sizeof(uint64_t) == sizeof(CacheSnap));
  uint64_t X[N], Y[N], Z[N];
  std::memcpy(X, &A, sizeof(CacheSnap));
  std::memcpy(Y, &B, sizeof(CacheSnap));
  for (size_t I = 0; I < N; ++I)
    Z[I] = X[I] - Y[I];
  CacheSnap Out;
  std::memcpy(&Out, Z, sizeof(CacheSnap));
  return Out;
}

CacheSnap &operator+=(CacheSnap &A, const CacheSnap &B) {
  constexpr size_t N = sizeof(CacheSnap) / sizeof(uint64_t);
  uint64_t X[N], Y[N];
  std::memcpy(X, &A, sizeof(CacheSnap));
  std::memcpy(Y, &B, sizeof(CacheSnap));
  for (size_t I = 0; I < N; ++I)
    X[I] += Y[I];
  std::memcpy(&A, X, sizeof(CacheSnap));
  return A;
}

/// The per-layer counts a traced run reports; guest instructions and block
/// events come from the traces the run itself fetched.
void countersJson(JsonObject &J, const CacheSnap &S, uint64_t GuestInsts,
                  uint64_t BlockEvents) {
  J.count("vm.guest_insts", GuestInsts);
  J.count("vm.block_events", BlockEvents);
  J.count("vm.host_chained_blocks", S.HostChained);
  J.count("vm.host_folded_iters", S.HostFolded);
  J.count("vm.host_fallbacks", S.HostFallbacks);
  J.count("jit.units", S.JitUnits);
  J.count("jit.native_blocks", S.JitBlocks);
  J.count("jit.native_loop_iters", S.JitLoopIters);
  J.count("jit.deopts", S.JitDeopts);
  J.count("core.trace.segments", S.Segments);
  J.count("core.cache.mem_hits", S.MemoryHits);
  J.count("core.cache.disk_hits", S.DiskHits);
  J.count("core.cache.misses", S.Misses);
  J.count("core.cache.corrupt", S.Corrupt);
  J.count("sample.segments_decoded", S.SampleDecoded);
  J.count("sample.segments_skipped", S.SampleSkipped);
}

void layersJson(JsonObject &J, const Tracer &Tr, double Wall) {
  double Self[NumLayers];
  double Unattributed = 0.0;
  Tr.attribute(Wall, Self, Unattributed);
  for (int L = 0; L < NumLayers; ++L)
    J.num(LayerNames[L], Self[L]);
  J.num("traced.wall_s", Wall);
  J.num("traced.unattributed_s", Unattributed);
  J.num("traced.clipped_s", Tr.clipped());
}

//===----------------------------------------------------------------------===//
// The differential oracle: plain recording + event-pump replay
//===----------------------------------------------------------------------===//

/// Writes the .prof snapshots ExperimentContext would store for \p Name
/// under \p C, computed by the event pump over \p Ref / \p Train, into
/// C.CacheDir — a context on that directory then serves them as hits.
void writePumpProfiles(const ExperimentConfig &C, const std::string &Name,
                       const workloads::GeneratedBenchmark &B,
                       const BlockTrace &Ref, const BlockTrace &Train) {
  SweepResult R = replaySweepEvents(Ref, B.Ref, C.Thresholds, C.Dbt);
  SweepResult T = replaySweepEvents(Train, B.Train, {}, C.Dbt);
  const uint64_t Fp =
      combineSeeds(C.fingerprint(), workloads::specFingerprint(B.Spec));
  auto Put = [&](const std::string &Input, uint64_t Th,
                 profile::ProfileSnapshot S) {
    S.Benchmark = Name;
    S.Input = Input;
    writeTextFileAtomic(
        formatString("%s/%s.%s.T%llu.%016llx.prof", C.CacheDir.c_str(),
                     Name.c_str(), Input.c_str(),
                     static_cast<unsigned long long>(Th),
                     static_cast<unsigned long long>(Fp)),
        profile::printSnapshot(S));
  };
  for (size_t I = 0; I < C.Thresholds.size(); ++I)
    Put("ref", C.Thresholds[I], R.PerThreshold[I]);
  Put("ref", 0, R.Average);
  Put("train", 0, T.Average);
}

workloads::GeneratedBenchmark generateFor(const std::string &Name,
                                          double Scale) {
  const workloads::BenchSpec *Spec = workloads::findSpec(Name);
  return workloads::generateBenchmark(
      Scale == 1.0 ? *Spec : workloads::scaledSpec(*Spec, Scale));
}

int runOracle(const Args &A) {
  // The oracle's traces come from the plain interpreter: no host tier,
  // no jit (read once per process, so set before anything records).
  setenv("TPDBT_HOST_TRANS", "0", 1);
  setenv("TPDBT_HOST_JIT", "0", 1);
  ExperimentConfig C;
  C.Scale = A.num("scale", 0.2);
  C.Jobs = static_cast<unsigned>(A.num("jobs", 4));
  C.CacheDir = A.get("work");
  const std::string Out = A.get("out");
  if (C.CacheDir.empty() || Out.empty() || !ensureDirectory(C.CacheDir) ||
      !ensureDirectory(Out)) {
    std::fprintf(stderr, "oracle: need writable --work and --out\n");
    return 2;
  }
  const std::vector<std::string> Names = suiteNames();
  parallelFor(Names.size(), C.Jobs, [&](size_t I) {
    workloads::GeneratedBenchmark B = generateFor(Names[I], C.Scale);
    BlockTrace Ref = BlockTrace::record(B.Ref, B.Spec.MaxBlockEvents);
    BlockTrace Train = BlockTrace::record(B.Train, B.Spec.MaxBlockEvents);
    writePumpProfiles(C, Names[I], B, Ref, Train);
  });
  ExperimentContext Ctx(C);
  Ctx.warmUp(Names);
  if (Ctx.stats().CacheMisses.load() != 0) {
    std::fprintf(stderr, "oracle: context missed its pump snapshots\n");
    return 1;
  }
  for (const FigureSpec &F : figureRegistry())
    writeTextFile(Out + "/" + F.Name + ".csv", F.Build(Ctx).toCsv());
  std::printf("oracle: wrote %zu figures at scale %.3f to %s\n",
              figureRegistry().size(), C.Scale, Out.c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// suite: all figures over the whole suite
//===----------------------------------------------------------------------===//

struct FigureCheck {
  unsigned Attempted = 0;
  std::vector<std::string> Failed;
};

void checkFigure(FigureCheck &Check, const std::string &ExpectedDir,
                 const std::string &Name, const std::string &Csv) {
  ++Check.Attempted;
  auto Want = readTextFile(ExpectedDir + "/" + Name + ".csv");
  if (!Want || *Want != Csv)
    Check.Failed.push_back(Name);
}

int runSuite(const Args &A) {
  ExperimentConfig C;
  C.Scale = A.num("scale", 0.2);
  C.Jobs = static_cast<unsigned>(A.num("jobs", 4));
  C.CacheDir = A.get("cache");
  const uint64_t Seed = static_cast<uint64_t>(A.num("seed", 1));
  const bool Traced = A.num("trace", 0) != 0;
  const bool Prepare = A.flag("prepare");
  const std::string ExpectedDir = A.get("expected");
  constexpr int GenReps = 7; // set-up passes; set-up times are their medians
  if (C.CacheDir.empty()) {
    std::fprintf(stderr, "suite: --cache DIR is required\n");
    return 2;
  }

  // The seed and --order N draw the order in which benchmarks are
  // submitted and figures built. A run times several orders of one seed,
  // so which benchmarks run together (and with that the peak memory and
  // the slowest benchmark's latency) is not left to a single draw.
  const uint64_t Order =
      combineSeeds(Seed, static_cast<uint64_t>(A.num("order", 0)));
  std::vector<std::string> Names = suiteNames();
  shuffleBySeed(Names, Order);
  std::vector<const FigureSpec *> Figures;
  for (const FigureSpec &F : figureRegistry())
    Figures.push_back(&F);
  shuffleBySeed(Figures, combineSeeds(Order, 1));

  // --- Set-up (untimed): program generation, then contexts. The
  // generation passes run on one thread so that the set-up figure is the
  // work itself, not thread start-up latency. ---
  std::vector<double> GenTimes;
  for (int R = 0; R < GenReps; ++R) {
    auto G0 = Clock::now();
    for (const std::string &Name : Names)
      generateFor(Name, C.Scale);
    GenTimes.push_back(secondsSince(G0, Clock::now()));
  }
  // The context the run uses is built the same number of times; set-up
  // reports the median, and the last one is kept.
  ExperimentConfig Single = C;
  Single.Jobs = 1;
  std::unique_ptr<ExperimentContext> Built;
  std::vector<double> CtxTimes;
  for (int R = 0; R < GenReps; ++R) {
    Built.reset();
    auto C0 = Clock::now();
    Built = std::make_unique<ExperimentContext>(Traced ? C : Single);
    parallelFor(Names.size(), C.Jobs,
                [&](size_t I) { Built->benchmark(Names[I]); });
    CtxTimes.push_back(secondsSince(C0, Clock::now()));
  }
  ExperimentContext &Ctx = *Built;

  // Traced runs decompose the warm-up per benchmark: each gets a private
  // trace cache (so counter deltas around a call are that call's alone)
  // and a context recording into it.
  struct PerBench {
    std::shared_ptr<TraceCache> Traces;
    std::unique_ptr<ExperimentContext> Ctx;
  };
  std::vector<PerBench> Parts(Traced ? Names.size() : 0);
  if (Traced) {
    ExperimentConfig One = C;
    One.Jobs = 1;
    parallelFor(Names.size(), C.Jobs, [&](size_t I) {
      Parts[I].Traces = std::make_shared<TraceCache>(C.CacheDir);
      Parts[I].Ctx = std::make_unique<ExperimentContext>(One, Parts[I].Traces);
      Parts[I].Ctx->benchmark(Names[I]);
    });
  }
  ::sync(); // flush dirty pages so earlier writes do not land in the timing

  // --- Timed phase. ---
  const double Cpu0 = cpuSeconds();
  const auto T0 = Clock::now();
  Tracer Tr(T0);
  std::map<std::string, std::string> Csv;
  uint64_t GuestInsts = 0, BlockEvents = 0;
  FigureCheck Check;
  unsigned Failures = 0;

  std::vector<double> Latency(Names.size(), 0.0);
  if (!Traced) {
    // ExperimentContext::warmUp(Names, Jobs) spelled out, to time how long
    // each benchmark's profiles take once a worker picks it up: the same
    // parallelFor over the names, one ensureProfiles per index with
    // single-threaded replay (the context was built with Jobs = 1 for
    // exactly that).
    parallelFor(Names.size(), C.Jobs, [&](size_t I) {
      const auto B0 = Clock::now();
      Ctx.warmUp({Names[I]}, 1);
      Latency[I] = secondsSince(B0, Clock::now());
    });
    if (!Prepare)
      for (const FigureSpec *F : Figures)
        Csv[F->Name] = F->Build(Ctx).toCsv();
  } else {
    std::atomic<size_t> Next{0};
    std::atomic<uint64_t> Insts{0}, Events{0};
    std::atomic<unsigned> Bad{0};
    auto Worker = [&] {
      for (size_t I; (I = Next.fetch_add(1)) < Names.size();) {
        PerBench &P = Parts[I];
        const workloads::GeneratedBenchmark &B = P.Ctx->benchmark(Names[I]);
        const uint64_t Fp = execFingerprint(C, B);
        std::shared_ptr<const BlockTrace> Held[2];
        const char *Inputs[2] = {"ref", "train"};
        for (int In = 0; In < 2; ++In) {
          const CacheSnap Before = snap(P.Traces->stats());
          const double S = Tr.now();
          Held[In] = P.Traces->get(Names[I], Inputs[In], Fp,
                                   B.program(Inputs[In]),
                                   B.Spec.MaxBlockEvents);
          const double E = Tr.now();
          const CacheSnap D = snap(P.Traces->stats()) - Before;
          Insts += Held[In]->totalInsts();
          Events += Held[In]->numEvents();
          if (D.Misses) {
            const double Jit = D.JitCompileMicros * 1e-6;
            Tr.span(LCacheWrite, S, E,
                    {{LJitCompile, Jit},
                     {LVmRecord, D.RecordMicros * 1e-6 - Jit},
                     {LTraceFlush, D.FlushMicros * 1e-6}});
            // The pipeline's consumer thread overlaps the recording.
            Tr.overlapped(LTracePipeline, S, E, D.PipelineMicros * 1e-6);
          } else {
            Tr.span(LCacheRead, S, E,
                    {{LIndexBuild, D.IndexMicros * 1e-6}});
          }
        }
        // Replay both inputs through the context; its trace lookups hit
        // the traces held above in memory.
        const CacheSnap Before = snap(P.Traces->stats());
        const uint64_t Replay0 = P.Ctx->stats().ReplayMicros.load();
        const double S = Tr.now();
        P.Ctx->warmUp({Names[I]}, 1);
        const double E = Tr.now();
        const CacheSnap D = snap(P.Traces->stats()) - Before;
        if (D.MemoryHits != 2 || D.Misses != 0)
          ++Bad;
        Tr.span(LCacheProf, S, E,
                {{LIndexBuild, D.IndexMicros * 1e-6},
                 {LReplay,
                  (P.Ctx->stats().ReplayMicros.load() - Replay0) * 1e-6}});
      }
    };
    std::vector<std::thread> Pool;
    for (unsigned W = 0; W < C.Jobs; ++W)
      Pool.emplace_back(Worker);
    for (std::thread &T : Pool)
      T.join();
    GuestInsts = Insts.load();
    BlockEvents = Events.load();
    Failures += Bad.load();
    // Every figure is built by one context over the snapshots the
    // workers stored: load them (prof reads), then run the builders.
    if (!Prepare) {
      double S = Tr.now();
      Ctx.warmUp(Names, C.Jobs);
      Tr.span(LCacheProf, S, Tr.now());
      if (Ctx.stats().CacheMisses.load() != 0)
        ++Failures; // the workers' snapshots must all be served from disk
      for (const FigureSpec *F : Figures) {
        S = Tr.now();
        Table T = F->Build(Ctx);
        Tr.span(LAnalysis, S, Tr.now());
        Csv[F->Name] = T.toCsv();
      }
    }
  }
  const double Wall = secondsSince(T0, Clock::now());
  const double Cpu = cpuSeconds() - Cpu0;

  if (!ExpectedDir.empty())
    for (const auto &[Name, Text] : Csv)
      checkFigure(Check, ExpectedDir, Name, Text);

  JsonObject J;
  J.str("mode", Traced ? "traced" : "plain");
  J.num("generate_s", median(GenTimes));
  J.num("context_s", median(CtxTimes));
  J.num("wall_s", Wall);
  J.num("cpu_s", Cpu);
  J.num("peak_rss_mb", peakRssMb());
  J.raw("latency_s", jsonNumbers(Latency));
  J.count("attempted", Check.Attempted + (Traced ? 1 : 0));
  J.count("failed", Check.Failed.size() + Failures);
  J.raw("mismatched", jsonStrings(Check.Failed));
  if (Traced) {
    CacheSnap Total = snap(Ctx.traceStats());
    uint64_t ProfHits = Ctx.stats().CacheHits.load();
    uint64_t ProfMisses = Ctx.stats().CacheMisses.load();
    uint64_t Sweeps = 0;
    for (PerBench &P : Parts) {
      Total += snap(P.Traces->stats());
      ProfHits += P.Ctx->stats().CacheHits.load();
      ProfMisses += P.Ctx->stats().CacheMisses.load();
      Sweeps += P.Ctx->stats().SweepsRun.load();
    }
    JsonObject L;
    countersJson(L, Total, GuestInsts, BlockEvents);
    L.count("core.cache.prof_hits", ProfHits);
    L.count("core.cache.prof_misses", ProfMisses);
    L.count("core.replay.sweeps", Sweeps);
    layersJson(L, Tr, Wall);
    J.raw("layers", L.text());
  } else {
    J.count("trace_misses", Ctx.traceStats().Misses.load());
  }
  std::printf("%s\n", J.text().c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// mix: closed-loop protocol clients
//===----------------------------------------------------------------------===//

/// One request per line, in queue order: "sweep <bench> <t1,t2,...|->" or
/// "approx <figure> <budget-ppm> <seed>".
bool loadMix(const std::string &Path, double Scale,
             std::vector<service::SweepRequest> &Out) {
  std::ifstream In(Path);
  std::string Line;
  uint64_t Id = 1;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    std::istringstream S(Line);
    service::SweepRequest M;
    std::string Kind;
    S >> Kind >> M.Name;
    M.Id = Id++;
    M.Scale = Scale;
    if (Kind == "sweep") {
      M.RequestKind = service::SweepRequest::Sweep;
      std::string List;
      S >> List;
      if (List == "-") // no list: the daemon sweeps paperThresholds()
        List.clear();
      std::istringstream L(List);
      for (std::string T; std::getline(L, T, ',');)
        M.Thresholds.push_back(std::strtoull(T.c_str(), nullptr, 10));
    } else if (Kind == "approx") {
      M.RequestKind = service::SweepRequest::Figure;
      M.SampleMode = 1;
      S >> M.SampleBudgetPpm >> M.SampleSeed;
    } else {
      return false;
    }
    if (!S)
      return false;
    Out.push_back(std::move(M));
  }
  return !Out.empty();
}

/// Requests with equal keys must get byte-identical replies.
std::string requestKey(const service::SweepRequest &R) {
  std::string Key = formatString("%d %s", R.RequestKind, R.Name.c_str());
  for (uint64_t T : R.Thresholds)
    Key += formatString(",%llu", static_cast<unsigned long long>(T));
  return Key + formatString(" %llu %llu",
                            static_cast<unsigned long long>(R.SampleBudgetPpm),
                            static_cast<unsigned long long>(R.SampleSeed));
}

struct MixReply {
  double Send = 0, FirstProgress = -1, Done = -1;
  bool Ok = false;
  bool Coalesced = false;
  std::string Payload;
  std::string Error;
};

/// A closed-loop client: takes the next request off the shared queue once
/// its previous reply has arrived, recording send / first PROGRESS /
/// RESULT times.
void runClient(const std::string &Socket,
               const std::vector<service::SweepRequest> &Mix,
               std::atomic<size_t> &Next, std::vector<MixReply> &Replies,
               Tracer &Tr) {
  std::string Error;
  UnixSocket Sock = UnixSocket::connectTo(Socket, &Error);
  for (size_t I; (I = Next.fetch_add(1)) < Mix.size();) {
    MixReply &Rep = Replies[I];
    if (!Sock.valid()) {
      Rep.Error = "connect: " + Error;
      continue;
    }
    const service::SweepRequest &R = Mix[I];
    Rep.Send = Tr.now();
    if (!service::writeFrame(Sock, service::MsgType::Request,
                             service::encodeRequest(R),
                             service::requestFrameVersion(R))) {
      Rep.Error = "send failed";
      continue;
    }
    for (;;) {
      service::MsgType Type;
      std::string Body;
      if (!service::readFrame(Sock, Type, Body, &Rep.Error))
        break;
      if (Type == service::MsgType::Progress) {
        service::ProgressMsg P;
        if (Rep.FirstProgress < 0 && service::decodeProgress(Body, P))
          Rep.FirstProgress = Tr.now();
        continue;
      }
      service::SweepResult Res;
      if (Type != service::MsgType::Result ||
          !service::decodeResult(Body, Res) || Res.Id != R.Id) {
        Rep.Error = "unexpected frame";
        break;
      }
      Rep.Done = Tr.now();
      if (Rep.FirstProgress < 0)
        Rep.FirstProgress = Rep.Done;
      Rep.Ok = Res.ResultStatus == service::Status::Ok;
      Rep.Coalesced = Res.Coalesced;
      Rep.Payload = std::move(Res.Payload);
      if (!Rep.Ok)
        Rep.Error = "status " + std::to_string(int(Res.ResultStatus));
      break;
    }
  }
}

bool fetchStats(const std::string &Socket,
                std::map<std::string, uint64_t> &Out) {
  std::string Error;
  UnixSocket Sock = UnixSocket::connectTo(Socket, &Error);
  if (!Sock.valid() ||
      !service::writeFrame(Sock, service::MsgType::Stats,
                           service::encodeStats(service::StatsMsg())))
    return false;
  service::MsgType Type;
  std::string Body;
  service::StatsMsg M;
  if (!service::readFrame(Sock, Type, Body, &Error) ||
      Type != service::MsgType::Stats || !service::decodeStats(Body, M))
    return false;
  for (const auto &[K, V] : M.Counters)
    Out[K] = V;
  return true;
}

bool sendShutdown(const std::string &Socket) {
  std::string Error;
  UnixSocket Sock = UnixSocket::connectTo(Socket, &Error);
  if (!Sock.valid() ||
      !service::writeFrame(Sock, service::MsgType::Shutdown, std::string()))
    return false;
  service::MsgType Type;
  std::string Body;
  return service::readFrame(Sock, Type, Body, &Error) &&
         Type == service::MsgType::Result;
}

/// The mix's base configuration, as tpdbt-sweepd builds it from an
/// environment holding only TPDBT_CACHE_DIR and TPDBT_JOBS.
ExperimentConfig mixBase(const Args &A) {
  ExperimentConfig Base;
  Base.CacheDir = A.get("cache");
  Base.Jobs = static_cast<unsigned>(A.num("jobs", 4));
  return Base;
}

/// Checks every exact reply against event-pump replay of the warm trace
/// the daemon served it from. Returns the number of failed checks.
unsigned checkExactReplies(const Args &A, const std::vector<service::SweepRequest> &Mix,
                           const std::vector<MixReply> &Replies,
                           unsigned &Checked) {
  const ExperimentConfig Base = mixBase(A);
  const std::string Work = A.get("work");
  auto Traces = std::make_shared<TraceCache>(Base.CacheDir);
  // One oracle computation per distinct request; duplicates share it.
  std::map<std::string, std::vector<size_t>> ByKey;
  for (size_t I = 0; I < Mix.size(); ++I) {
    if (Mix[I].RequestKind == service::SweepRequest::Sweep)
      ByKey[requestKey(Mix[I])].push_back(I);
  }
  std::vector<std::vector<size_t>> Groups;
  for (auto &[K, V] : ByKey)
    Groups.push_back(V);
  std::atomic<unsigned> Bad{0}, Done{0};
  parallelFor(Groups.size(), Base.Jobs, [&](size_t G) {
    const service::SweepRequest &R = Mix[Groups[G].front()];
    ExperimentConfig C;
    std::string Error;
    bool Ok = service::SweepService::resolveConfig(Base, R, C, &Error) ==
              service::Status::Ok;
    std::string Want;
    if (Ok) {
      C.CacheDir = formatString("%s/oracle%zu", Work.c_str(), G);
      Ok = ensureDirectory(C.CacheDir);
    }
    if (Ok) {
      ExperimentConfig Probe = C;
      Probe.CacheDir.clear();
      ExperimentContext Gen(Probe);
      const workloads::GeneratedBenchmark &B = Gen.benchmark(R.Name);
      const uint64_t Fp = execFingerprint(C, B);
      const CacheSnap Before = snap(Traces->stats());
      auto Ref = Traces->get(R.Name, "ref", Fp, B.Ref, B.Spec.MaxBlockEvents);
      auto Train =
          Traces->get(R.Name, "train", Fp, B.Train, B.Spec.MaxBlockEvents);
      // The oracle must replay the daemon's own warm traces.
      Ok = (snap(Traces->stats()) - Before).Misses == 0;
      if (Ok) {
        writePumpProfiles(C, R.Name, B, *Ref, *Train);
        ExperimentContext Oracle(C);
        Want = sweepTable(Oracle, R.Name).toCsv();
        Ok = Oracle.stats().CacheMisses.load() == 0;
      }
    }
    for (size_t I : Groups[G]) {
      ++Done;
      if (!Ok || !Replies[I].Ok || Replies[I].Payload != Want)
        ++Bad;
    }
  });
  Checked = Done.load();
  return Bad.load();
}

/// An estimate of where one request's computation spends its time. The
/// daemon's computation cannot be timed from outside src/, so the request
/// is issued again after the timed phase through the calls the daemon
/// makes (SweepService::resolveConfig, then SweepService::buildTable on an
/// ExperimentContext over a shared TraceCache), on a fresh context whose
/// snapshots go to a private directory, with each call timed and its
/// counters read. A second buildTable on the same context is what a repeat
/// costs the daemon, whose context pool keeps the context; RepeatClean
/// says that this second call read no trace and no snapshot.
struct RequestSplit {
  double Read = 0, Replay = 0, Prof = 0, Sample = 0, Analysis = 0;
  double total() const { return Read + Replay + Prof + Sample + Analysis; }
  double RepeatS = 0;
  bool RepeatClean = false;
};

RequestSplit measureSplit(const ExperimentConfig &Base,
                          const service::SweepRequest &R,
                          const std::string &Dir) {
  RequestSplit Out;
  ExperimentConfig C;
  if (service::SweepService::resolveConfig(Base, R, C, nullptr) !=
          service::Status::Ok ||
      !ensureDirectory(Dir))
    return Out;
  auto Traces = std::make_shared<TraceCache>(Base.CacheDir);
  C.CacheDir = Dir; // the daemon stores this request's snapshots too
  ExperimentContext Ctx(C, Traces);
  if (R.RequestKind == service::SweepRequest::Sweep) {
    const workloads::GeneratedBenchmark &B = Ctx.benchmark(R.Name);
    const uint64_t Fp = execFingerprint(C, B);
    auto T0 = Clock::now();
    auto Ref = Traces->get(R.Name, "ref", Fp, B.Ref, B.Spec.MaxBlockEvents);
    auto Train =
        Traces->get(R.Name, "train", Fp, B.Train, B.Spec.MaxBlockEvents);
    auto T1 = Clock::now();
    const uint64_t Replay0 = Ctx.stats().ReplayMicros.load();
    Ctx.warmUp({R.Name}, 1);
    auto T2 = Clock::now();
    service::SweepService::buildTable(Ctx, R);
    auto T3 = Clock::now();
    Out.Read = secondsSince(T0, T1);
    Out.Replay = (Ctx.stats().ReplayMicros.load() - Replay0) * 1e-6;
    Out.Prof = std::max(0.0, secondsSince(T1, T2) - Out.Replay);
    Out.Analysis = secondsSince(T2, T3);
  } else {
    // A sampled figure: the first build estimates every benchmark it
    // touches (segment reads + estimation) and builds the table.
    auto T0 = Clock::now();
    service::SweepService::buildTable(Ctx, R);
    Out.Sample = secondsSince(T0, Clock::now());
  }
  const CacheSnap Before = snap(Traces->stats());
  const uint64_t Prof0 =
      Ctx.stats().CacheHits.load() + Ctx.stats().CacheMisses.load();
  auto T0 = Clock::now();
  service::SweepService::buildTable(Ctx, R);
  Out.RepeatS = secondsSince(T0, Clock::now());
  const CacheSnap D = snap(Traces->stats()) - Before;
  Out.RepeatClean =
      D.MemoryHits + D.DiskHits + D.Misses + D.SampleDecoded == 0 &&
      Ctx.stats().CacheHits.load() + Ctx.stats().CacheMisses.load() == Prof0;
  if (R.RequestKind != service::SweepRequest::Sweep) {
    // The first build's table construction is the repeat's cost.
    Out.Analysis = std::min(Out.RepeatS, Out.Sample);
    Out.Sample -= Out.Analysis;
  }
  return Out;
}

int runMix(const Args &A) {
  const double Scale = A.num("scale", 0.05);
  const bool Traced = A.num("trace", 0) != 0;
  std::vector<service::SweepRequest> Mix;
  if (!loadMix(A.get("requests"), Scale, Mix)) {
    std::fprintf(stderr, "mix: cannot read --requests\n");
    return 2;
  }
  const unsigned Clients = static_cast<unsigned>(A.num("clients", 0));
  if (Clients == 0) {
    std::fprintf(stderr, "mix: --clients N is required\n");
    return 2;
  }

  // The traced run hosts the daemon here, so its trace-cache counters
  // are readable after the mix.
  std::string Socket = A.get("socket");
  std::unique_ptr<service::Daemon> Hosted;
  std::thread Server;
  double StartupS = 0.0;
  if (Traced) {
    auto S0 = Clock::now();
    service::DaemonOptions O;
    O.SocketPath = Socket;
    O.Base = mixBase(A);
    O.Quiet = true;
    Hosted = std::make_unique<service::Daemon>(O);
    std::string Error;
    if (!Hosted->start(&Error)) {
      std::fprintf(stderr, "mix: %s\n", Error.c_str());
      return 1;
    }
    Server = std::thread([&] { Hosted->run(); });
    StartupS = secondsSince(S0, Clock::now());
  }

  // The daemon has bound its socket; wait until it also accepts.
  for (int Try = 0;; ++Try) {
    std::string Error;
    if (UnixSocket::connectTo(Socket, &Error).valid())
      break;
    if (Try == 2000) {
      std::fprintf(stderr, "mix: cannot connect: %s\n", Error.c_str());
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  const auto T0 = Clock::now();
  Tracer Tr(T0);
  std::vector<MixReply> Replies(Mix.size());
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back([&] { runClient(Socket, Mix, Next, Replies, Tr); });
  for (std::thread &T : Threads)
    T.join();
  const double Wall = secondsSince(T0, Clock::now());

  std::map<std::string, uint64_t> Stats;
  const bool HaveStats = fetchStats(Socket, Stats);
  CacheSnap Cache{};
  if (Traced)
    Cache = snap(Hosted->service().traceStats());
  const bool Stopped = sendShutdown(Socket);
  if (Server.joinable())
    Server.join();
  Hosted.reset();

  // Correctness: with --oracle 1, exact replies are checked against the
  // pump oracle here and approx payloads are written out for run.py's
  // interval-coverage check. Every run reports a digest per reply, so
  // run.py can hold later rounds of the same mix to the checked one.
  unsigned ExactChecked = 0;
  unsigned Failed = 0;
  std::vector<std::string> Approx, Digests;
  const std::string Work = A.get("work");
  for (size_t I = 0; I < Mix.size(); ++I) {
    const MixReply &Rep = Replies[I];
    Digests.push_back(formatString(
        "%d:%016llx", Rep.Ok ? 1 : 0,
        static_cast<unsigned long long>(std::hash<std::string>()(Rep.Payload))));
    if (!Rep.Ok)
      ++Failed;
  }
  if (A.num("oracle", 1) != 0) {
    Failed += checkExactReplies(A, Mix, Replies, ExactChecked);
    for (size_t I = 0; I < Mix.size(); ++I) {
      if (Mix[I].RequestKind == service::SweepRequest::Sweep || !Replies[I].Ok)
        continue;
      const std::string Dir = formatString("%s/approx%zu", Work.c_str(), I);
      ensureDirectory(Dir);
      writeTextFile(Dir + "/" + Mix[I].Name + ".csv", Replies[I].Payload);
      Approx.push_back(Dir + "/" + Mix[I].Name);
    }
  }

  std::vector<double> Latency, Queue, Compute;
  std::vector<std::string> Errors;
  for (size_t I = 0; I < Mix.size(); ++I) {
    const MixReply &Rep = Replies[I];
    if (!Rep.Error.empty())
      Errors.push_back(Rep.Error);
    if (Rep.Done < 0)
      continue;
    Latency.push_back((Rep.Done - Rep.Send) * 1e3);
    Queue.push_back((Rep.FirstProgress - Rep.Send) * 1e3);
    Compute.push_back((Rep.Done - Rep.FirstProgress) * 1e3);
  }

  JsonObject J;
  J.num("wall_s", Wall);
  J.num("startup_s", StartupS);
  J.count("attempted", Mix.size());
  J.count("failed", Failed);
  J.count("exact_checked", ExactChecked);
  J.raw("approx_outputs", jsonStrings(Approx));
  J.raw("digests", jsonStrings(Digests));
  J.raw("latency_ms", jsonNumbers(Latency));
  J.raw("queue_ms", jsonNumbers(Queue));
  J.raw("compute_ms", jsonNumbers(Compute));
  J.raw("errors", jsonStrings(Errors));
  J.count("stats_ok", HaveStats && Stopped);
  {
    JsonObject S;
    for (const auto &[K, V] : Stats)
      S.count(K, V);
    J.raw("stats", S.text());
  }

  if (Traced) {
    // Per request: send -> first PROGRESS is service time (queueing,
    // admission); a coalesced request waits on another's computation, so
    // all of it is service time. A computing request's PROGRESS -> RESULT
    // span is split by the estimate measureSplit makes for it. A later
    // request with the same key counts as analysis when the estimate found
    // that a repeat on the daemon's kept context reads nothing; otherwise
    // it is split like the first.
    const ExperimentConfig Base = mixBase(A);
    std::map<std::string, RequestSplit> Splits;
    unsigned DirtyRepeats = 0;
    for (size_t I = 0; I < Mix.size(); ++I) {
      const MixReply &Rep = Replies[I];
      if (Rep.Done < 0)
        continue;
      const service::SweepRequest &R = Mix[I];
      Tr.span(LService, Rep.Send, Rep.FirstProgress);
      if (Rep.Coalesced) {
        Tr.span(LService, Rep.FirstProgress, Rep.Done);
        continue;
      }
      const std::string Key = requestKey(R);
      const double Len = Rep.Done - Rep.FirstProgress;
      auto It = Splits.find(Key);
      if (It != Splits.end() && It->second.RepeatClean) {
        Tr.span(LAnalysis, Rep.FirstProgress, Rep.Done);
        continue;
      }
      if (It == Splits.end())
        It = Splits
                 .emplace(Key, measureSplit(Base, R,
                                            formatString("%s/split%zu",
                                                         Work.c_str(), I)))
                 .first;
      else
        ++DirtyRepeats;
      const RequestSplit &S = It->second;
      const double Tot = S.total() > 0 ? S.total() : 1.0;
      Tr.span(LAnalysis, Rep.FirstProgress, Rep.Done,
              {{LCacheRead, Len * S.Read / Tot},
               {LReplay, Len * S.Replay / Tot},
               {LCacheProf, Len * S.Prof / Tot},
               {LSample, Len * S.Sample / Tot}});
    }
    J.count("dirty_repeats", DirtyRepeats);
    JsonObject L;
    countersJson(L, Cache, 0, 0); // the mix replays; it records nothing
    layersJson(L, Tr, Wall);
    J.raw("layers", L.text());
  }
  std::printf("%s\n", J.text().c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::fprintf(stderr,
                 "usage: %s suite|mix|oracle|context [--flag value]...\n"
                 "  (perfbench/run.py drives these; see perfbench/README.md)\n",
                 Argv[0]);
    return 2;
  }
  const std::string Mode = Argv[1];
  const Args A = parseArgs(Argc, Argv);
  if (Mode == "context") {
    std::vector<std::string> Figures;
    for (const FigureSpec &F : figureRegistry())
      Figures.push_back(F.Name);
    JsonObject J;
    J.str("build_type", PERFBENCH_BUILD_TYPE);
    J.raw("release", isReleaseBuild() ? "true" : "false");
    J.raw("benchmarks", jsonStrings(suiteNames()));
    J.raw("figures", jsonStrings(Figures));
    std::printf("%s\n", J.text().c_str());
    return 0;
  }
  if (!isReleaseBuild()) {
    std::fprintf(stderr, "%s: refusing to measure a %s build\n", Argv[0],
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  if (Mode == "suite")
    return runSuite(A);
  if (Mode == "mix")
    return runMix(A);
  if (Mode == "oracle")
    return runOracle(A);
  std::fprintf(stderr, "%s: unknown mode '%s'\n", Argv[0], Mode.c_str());
  return 2;
}
