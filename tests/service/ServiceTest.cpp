//===- tests/service/ServiceTest.cpp - Dispatch-layer tests -----*- C++ -*-===//

#include "service/Daemon.h"
#include "service/SweepService.h"

#include "core/Figures.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace tpdbt;
using namespace tpdbt::core;
using namespace tpdbt::service;

namespace {

ExperimentConfig tinyBase() {
  ExperimentConfig C;
  C.Scale = 0.01;
  C.CacheDir.clear(); // memory-only; tests never touch the working dir
  C.Jobs = 2;
  return C;
}

SweepRequest tinySweep(const std::string &Bench = "gzip") {
  SweepRequest R;
  R.RequestKind = SweepRequest::Sweep;
  R.Name = Bench;
  R.Scale = 0.01;
  R.Thresholds = {100, 2000};
  return R;
}

ServiceLimits testLimits() {
  ServiceLimits L;
  L.MaxActive = 4;
  L.ClientDepth = 16;
  return L;
}

} // namespace

TEST(SweepServiceTest, RejectsInvalidRequests) {
  SweepService S(tinyBase(), testLimits());
  SweepRequest R = tinySweep("no_such_benchmark");
  auto Out = S.run(R);
  EXPECT_EQ(Out.ResultStatus, Status::BadRequest);

  R = tinySweep();
  R.Scale = -1.0;
  EXPECT_EQ(S.run(R).ResultStatus, Status::BadRequest);

  R = tinySweep();
  R.Thresholds = {100, 0};
  EXPECT_EQ(S.run(R).ResultStatus, Status::BadRequest);

  SweepRequest F;
  F.RequestKind = SweepRequest::Figure;
  F.Name = "not_a_figure";
  F.Scale = 0.01;
  EXPECT_EQ(S.run(F).ResultStatus, Status::BadRequest);

  // Figures run the paper's own threshold sweep; a custom list would be
  // silently meaningless, so it is refused instead.
  F.Name = "fig08_sd_bp";
  F.Thresholds = {100};
  EXPECT_EQ(S.run(F).ResultStatus, Status::BadRequest);

  EXPECT_EQ(S.stats().Rejected.load(), 5u);
  EXPECT_EQ(S.stats().Computed.load(), 0u);
}

TEST(SweepServiceTest, ComputesASweepTable) {
  SweepService S(tinyBase(), testLimits());
  auto Out = S.run(tinySweep());
  ASSERT_EQ(Out.ResultStatus, Status::Ok);
  EXPECT_FALSE(Out.Coalesced);
  // CSV header plus one row per requested threshold.
  EXPECT_NE(Out.Payload.find("threshold,sd_bp"), std::string::npos);
  EXPECT_NE(Out.Payload.find("\n100,"), std::string::npos);
  EXPECT_NE(Out.Payload.find("\n2k,"), std::string::npos);
  EXPECT_EQ(S.stats().Computed.load(), 1u);
}

TEST(SweepServiceTest, SampledRequestsEstimateWithIntervals) {
  SweepService S(tinyBase(), testLimits());
  SweepRequest Approx = tinySweep();
  Approx.SampleMode = 1;
  Approx.SampleBudgetPpm = 250000;
  Approx.SampleSeed = 0x5eed;
  auto A = S.run(Approx);
  ASSERT_EQ(A.ResultStatus, Status::Ok);
  EXPECT_NE(A.Payload.find("ci95"), std::string::npos) << A.Payload;

  // The exact table for the same sweep carries no interval columns, and
  // the two requests never share a context or a flight.
  auto E = S.run(tinySweep());
  ASSERT_EQ(E.ResultStatus, Status::Ok);
  EXPECT_EQ(E.Payload.find("ci95"), std::string::npos) << E.Payload;

  // Budget bounds are validated before any work happens.
  Approx.SampleBudgetPpm = 0;
  EXPECT_EQ(S.run(Approx).ResultStatus, Status::BadRequest);
  Approx.SampleBudgetPpm = 1000001;
  EXPECT_EQ(S.run(Approx).ResultStatus, Status::BadRequest);
}

TEST(SweepServiceTest, ResolveConfigScopesSamplingToTheRequest) {
  // A daemon started under TPDBT_SAMPLE_MODE=stratified must still serve
  // exact tables to plain requests: only the wire fields enable sampling.
  ExperimentConfig Base = tinyBase();
  Base.Sample.Kind = sample::SampleConfig::Mode::Stratified;
  ExperimentConfig C;
  ASSERT_EQ(SweepService::resolveConfig(Base, tinySweep(), C, nullptr),
            Status::Ok);
  EXPECT_FALSE(C.Sample.enabled());

  SweepRequest Approx = tinySweep();
  Approx.SampleMode = 1;
  Approx.SampleBudgetPpm = 500000;
  Approx.SampleSeed = 0xabc;
  ASSERT_EQ(SweepService::resolveConfig(tinyBase(), Approx, C, nullptr),
            Status::Ok);
  EXPECT_TRUE(C.Sample.enabled());
  EXPECT_DOUBLE_EQ(C.Sample.BudgetFrac, 0.5);
  EXPECT_EQ(C.Sample.Seed, 0xabcu);
}

TEST(SweepServiceTest, IdenticalInFlightRequestsCoalesce) {
  SweepService S(tinyBase(), testLimits());
  constexpr unsigned N = 6;

  // Park the leader until every other request has attached to its
  // flight, so the dedup assertion is deterministic, not timing-luck.
  S.BeforeBuild = [&S] {
    for (int Spins = 0; Spins < 10000; ++Spins) {
      if (S.stats().FlightWaiters.load() >= N - 1)
        return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  std::vector<SweepService::Outcome> Outs(N);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < N; ++I)
    Threads.emplace_back([&S, &Outs, I] { Outs[I] = S.run(tinySweep()); });
  for (auto &T : Threads)
    T.join();

  unsigned Coalesced = 0;
  for (const auto &Out : Outs) {
    ASSERT_EQ(Out.ResultStatus, Status::Ok);
    EXPECT_EQ(Out.Payload, Outs[0].Payload);
    if (Out.Coalesced)
      ++Coalesced;
  }
  // One computation, N-1 fan-outs — the tentpole's dedup guarantee.
  EXPECT_EQ(S.stats().Computed.load(), 1u);
  EXPECT_EQ(Coalesced, N - 1);
  EXPECT_EQ(S.stats().Coalesced.load(), N - 1);
  EXPECT_EQ(S.stats().Served.load(), N);
  EXPECT_EQ(S.stats().FlightWaiters.load(), 0u);
}

TEST(SweepServiceTest, DistinctRequestsNeverCoalesce) {
  // Disk-backed cache: the in-memory layer holds weak references, so the
  // cross-policy sharing below is only observable through the disk layer
  // once the first run's trace has been released.
  const auto Dir = std::filesystem::temp_directory_path() /
                   ("tpdbt_svc_share_" + std::to_string(::getpid()));
  std::filesystem::create_directories(Dir);
  ExperimentConfig Base = tinyBase();
  Base.CacheDir = Dir.string();

  SweepService S(Base, testLimits());
  SweepRequest A = tinySweep("gzip");
  SweepRequest B = tinySweep("gzip");
  B.Thresholds = {100, 500}; // policy differs -> different key
  auto OutA = S.run(A);
  auto OutB = S.run(B);
  ASSERT_EQ(OutA.ResultStatus, Status::Ok);
  ASSERT_EQ(OutB.ResultStatus, Status::Ok);
  EXPECT_EQ(S.stats().Computed.load(), 2u);
  EXPECT_EQ(S.stats().Coalesced.load(), 0u);
  // Same execution fingerprint, though: the first policy recorded gzip's
  // inputs into the shared store and the second replayed them warm.
  EXPECT_EQ(S.traceStats().Misses.load(), 2u); // ref + train, once
  EXPECT_GT(S.traceStats().hits(), 0u);

  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec);
}

TEST(SweepServiceTest, RepeatAfterCompletionRecomputesIdentically) {
  SweepService S(tinyBase(), testLimits());
  auto First = S.run(tinySweep());
  auto Second = S.run(tinySweep());
  ASSERT_EQ(First.ResultStatus, Status::Ok);
  ASSERT_EQ(Second.ResultStatus, Status::Ok);
  // The flight retired with the first computation; the repeat recomputes
  // (against warm caches) rather than serving a stale handle...
  EXPECT_EQ(S.stats().Computed.load(), 2u);
  EXPECT_FALSE(Second.Coalesced);
  // ...and determinism makes the recomputation byte-identical.
  EXPECT_EQ(First.Payload, Second.Payload);
}

TEST(SweepServiceTest, ResolveConfigFillsDefaults) {
  ExperimentConfig Base = tinyBase();
  ExperimentConfig C;
  std::string Error;

  SweepRequest R = tinySweep();
  R.Thresholds.clear();
  ASSERT_EQ(SweepService::resolveConfig(Base, R, C, &Error), Status::Ok);
  EXPECT_EQ(C.Thresholds, paperThresholds());
  EXPECT_DOUBLE_EQ(C.Scale, 0.01);

  SweepRequest F;
  F.RequestKind = SweepRequest::Figure;
  F.Name = "fig08_sd_bp";
  F.Scale = 0.5;
  ASSERT_EQ(SweepService::resolveConfig(Base, F, C, &Error), Status::Ok);
  // Figures need the full performance sweep available (fig17 reads T=1).
  EXPECT_EQ(C.Thresholds, performanceThresholds());
}

TEST(SweepServiceTest, StatsCountersNameEveryDispatchCounter) {
  SweepService S(tinyBase(), testLimits());
  StatsMsg M = S.statsCounters();
  auto Has = [&](const std::string &Name) {
    for (const auto &[N, V] : M.Counters)
      if (N == Name)
        return true;
    return false;
  };
  for (const char *Name :
       {"served", "computed", "coalesced", "queued", "rejected",
        "contexts", "trace_mem_hits", "trace_evictions", "cache_max_bytes"})
    EXPECT_TRUE(Has(Name)) << Name;
}

namespace {

/// A daemon on a socket in a fresh temp directory, torn down with the
/// test. run() executes on a background thread like production.
struct DaemonFixture {
  std::filesystem::path Dir;
  DaemonOptions Opts;
  std::unique_ptr<Daemon> D;
  std::thread Runner;

  DaemonFixture() {
    Dir = std::filesystem::temp_directory_path() /
          ("tpdbt_svc_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(Dir);
    Opts.SocketPath = (Dir / "d.sock").string();
    Opts.Base = tinyBase();
    Opts.Limits = testLimits();
    Opts.Quiet = true;
    D = std::make_unique<Daemon>(Opts);
    std::string Error;
    if (!D->start(&Error)) {
      ADD_FAILURE() << Error;
      return;
    }
    Runner = std::thread([this] { D->run(); });
  }

  ~DaemonFixture() {
    if (D)
      D->requestStop();
    if (Runner.joinable())
      Runner.join();
    D.reset();
    std::error_code Ec;
    std::filesystem::remove_all(Dir, Ec);
  }

  UnixSocket connect() {
    std::string Error;
    UnixSocket S = UnixSocket::connectTo(Opts.SocketPath, &Error);
    EXPECT_TRUE(S.valid()) << Error;
    return S;
  }
};

} // namespace

TEST(DaemonTest, ServesARequestOverTheSocket) {
  DaemonFixture F;
  UnixSocket Sock = F.connect();
  SweepRequest R = tinySweep();
  R.Id = 5;
  ASSERT_TRUE(writeFrame(Sock, MsgType::Request, encodeRequest(R)));
  // Read frames until the RESULT (progress notes may precede it).
  for (;;) {
    MsgType Type;
    std::string Body, Error;
    ASSERT_TRUE(readFrame(Sock, Type, Body, &Error)) << Error;
    if (Type == MsgType::Progress)
      continue;
    ASSERT_EQ(Type, MsgType::Result);
    service::SweepResult Res;
    ASSERT_TRUE(decodeResult(Body, Res));
    EXPECT_EQ(Res.Id, 5u);
    EXPECT_EQ(Res.ResultStatus, Status::Ok);
    EXPECT_NE(Res.Payload.find("threshold,"), std::string::npos);
    break;
  }
}

TEST(DaemonTest, AnswersStatsAndAcknowledgesShutdown) {
  DaemonFixture F;
  {
    UnixSocket Sock = F.connect();
    ASSERT_TRUE(writeFrame(Sock, MsgType::Stats, encodeStats(StatsMsg())));
    MsgType Type;
    std::string Body, Error;
    ASSERT_TRUE(readFrame(Sock, Type, Body, &Error)) << Error;
    ASSERT_EQ(Type, MsgType::Stats);
    StatsMsg M;
    ASSERT_TRUE(decodeStats(Body, M));
    // Global counters plus the per-client session counters.
    bool SawClient = false;
    for (const auto &[Name, Value] : M.Counters)
      if (Name == "client_served")
        SawClient = true;
    EXPECT_TRUE(SawClient);
  }
  UnixSocket Sock = F.connect();
  ASSERT_TRUE(writeFrame(Sock, MsgType::Shutdown, std::string()));
  MsgType Type;
  std::string Body, Error;
  ASSERT_TRUE(readFrame(Sock, Type, Body, &Error)) << Error;
  ASSERT_EQ(Type, MsgType::Result);
  service::SweepResult Ack;
  ASSERT_TRUE(decodeResult(Body, Ack));
  EXPECT_EQ(Ack.ResultStatus, Status::Ok);
  // run() must return on its own after the ack.
  F.Runner.join();
}

TEST(DaemonTest, MalformedFrameEarnsErrorAndClose) {
  DaemonFixture F;
  UnixSocket Sock = F.connect();
  // A REQUEST frame whose body is garbage.
  ASSERT_TRUE(writeFrame(Sock, MsgType::Request, "\x01garbage"));
  MsgType Type;
  std::string Body, Error;
  ASSERT_TRUE(readFrame(Sock, Type, Body, &Error)) << Error;
  EXPECT_EQ(Type, MsgType::Error);
  // The daemon closes the connection afterwards.
  EXPECT_FALSE(readFrame(Sock, Type, Body, &Error));
}

TEST(DaemonTest, StopWhileClientsDisconnect) {
  // Clients hang up at the moment the daemon is told to stop, so
  // connection threads retire their sockets while requestStop() walks
  // the live connections. Each round must drain cleanly; under
  // ThreadSanitizer this is the regression test for the stop/close race
  // on a connection's descriptor.
  for (int Round = 0; Round < 25; ++Round) {
    DaemonFixture F;
    constexpr int Clients = 6;
    std::vector<UnixSocket> Socks;
    for (int C = 0; C < Clients; ++C) {
      Socks.push_back(F.connect());
      // One answered frame proves the connection thread is serving.
      ASSERT_TRUE(
          writeFrame(Socks.back(), MsgType::Stats, encodeStats(StatsMsg())));
      MsgType Type;
      std::string Body, Error;
      ASSERT_TRUE(readFrame(Socks.back(), Type, Body, &Error)) << Error;
      ASSERT_EQ(Type, MsgType::Stats);
    }
    std::atomic<bool> Go{false};
    std::vector<std::thread> Hangups;
    for (UnixSocket &S : Socks)
      Hangups.emplace_back([&Go, &S] {
        while (!Go.load(std::memory_order_acquire))
          std::this_thread::yield();
        S.close();
      });
    Go.store(true, std::memory_order_release);
    F.D->requestStop();
    for (std::thread &T : Hangups)
      T.join();
    F.Runner.join(); // run() returns with every connection drained
  }
}
