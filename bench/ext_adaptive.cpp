//===- bench/ext_adaptive.cpp - Adaptive re-optimization extension ---------===//
//
// The paper's Section 5 future work, evaluated: "longer profiling periods
// or selective continuous profiling (especially for CP and LP) is
// beneficial... Effectively monitoring region side exits to trigger
// retranslation and adaptation looks promising."
//
// This bench compares the plain two-phase translator against the adaptive
// variant (side-exit + trip-class monitoring with re-profiling) at
// T = 2000 on the phase-heavy benchmarks the paper names (mcf, gzip,
// wupwise) and on stable controls (eon, swim): accuracy of the *final*
// prediction, modeled cycles, and retranslation counts.
//
//===----------------------------------------------------------------------===//

#include "FigureBenchMain.h"

#include "analysis/Metrics.h"
#include "core/Runner.h"
#include "dbt/DbtEngine.h"
#include "support/Format.h"
#include "support/Table.h"
#include "workloads/BenchSpec.h"
#include "workloads/Generator.h"

#include <cstdio>
#include <cstdlib>

using namespace tpdbt;

namespace {

struct RunResult {
  double SdBp = 0;
  double LpMismatch = 0;
  uint64_t Cycles = 0;
  uint64_t SideExits = 0;
  uint64_t Retranslations = 0;
};

RunResult runOne(const workloads::GeneratedBenchmark &B,
                 const profile::ProfileSnapshot &Avep, bool Adaptive) {
  cfg::Cfg G(B.Ref);
  dbt::DbtOptions Opts;
  Opts.Threshold = 2000;
  Opts.Adaptive.Enabled = Adaptive;
  dbt::DbtEngine Engine(B.Ref, Opts);
  profile::ProfileSnapshot Snap = Engine.run(~0ull);

  RunResult Out;
  Out.SdBp = analysis::sdBranchProb(Snap, Avep, G);
  Out.LpMismatch = analysis::lpMismatchRate(Snap, Avep, G);
  Out.Cycles = Snap.Cycles;
  Out.SideExits = Engine.cost().SideExits;
  Out.Retranslations = Engine.retranslations();
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  if (int Code = bench::handleBenchArgs(argc, argv, "ext_adaptive",
                                        "Extension: adaptive re-optimization vs. the plain two-phase translator at T=2000");
      Code >= 0)
    return Code;

  double Scale = 0.5;
  if (const char *S = std::getenv("TPDBT_SCALE")) {
    double V = std::atof(S);
    if (V > 0)
      Scale *= V;
  }

  Table T("Extension: adaptive re-optimization vs. plain two-phase "
          "(T=2k, scale " + formatDouble(Scale, 2) + ")");
  T.setHeader({"benchmark", "Sd.BP", "Sd.BP(adapt)", "LPmis",
               "LPmis(adapt)", "speedup", "retrans", "side_exit_ratio"});

  for (const char *Name : {"mcf", "gzip", "wupwise", "parser", "eon",
                           "swim"}) {
    auto B = workloads::generateBenchmark(
        workloads::scaledSpec(*workloads::findSpec(Name), Scale));
    // AVEP for the metrics.
    core::SweepResult Avg = core::runSweep(B.Ref, {}, dbt::DbtOptions(),
                                           ~0ull);
    RunResult Plain = runOne(B, Avg.Average, /*Adaptive=*/false);
    RunResult Adapt = runOne(B, Avg.Average, /*Adaptive=*/true);

    T.addRow();
    T.addCell(std::string(Name));
    T.addCell(Plain.SdBp, 3);
    T.addCell(Adapt.SdBp, 3);
    T.addCell(Plain.LpMismatch, 3);
    T.addCell(Adapt.LpMismatch, 3);
    T.addCell(static_cast<double>(Plain.Cycles) /
                  static_cast<double>(Adapt.Cycles),
              3);
    T.addCell(Adapt.Retranslations);
    T.addCell(Plain.SideExits
                  ? static_cast<double>(Adapt.SideExits) /
                        static_cast<double>(Plain.SideExits)
                  : 1.0,
              3);
  }
  std::printf("%s", T.toText().c_str());
  std::printf("\nPhase-heavy benchmarks (mcf, gzip, wupwise) should show "
              "retranslations, better final accuracy and fewer side "
              "exits; stable ones (eon, swim) should be untouched.\n");
  return 0;
}
