//===- core/WindowedProfile.h - Per-window profile collection ---*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Collects use/taken counters per execution window: the raw signal for
/// phase analysis (examples/phase_explorer) and for the mispredicted-
/// branch characterization (analysis/Mispredict.h).
///
/// Windows split the execution into equal numbers of block events, so
/// sizing them needs the total event count up front. A recorded trace
/// provides both the count and the stream, so the windows are filled
/// without executing anything.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_CORE_WINDOWEDPROFILE_H
#define TPDBT_CORE_WINDOWEDPROFILE_H

#include "core/Trace.h"
#include "guest/Program.h"
#include "profile/Profile.h"

#include <vector>

namespace tpdbt {
namespace core {

/// Per-window block counters of one full execution.
struct WindowedProfile {
  /// Windows[w][b] = counters of block b during window w. Windows split
  /// the execution into equal numbers of block events.
  std::vector<std::vector<profile::BlockCounters>> Windows;
  uint64_t TotalBlockEvents = 0;

  size_t numWindows() const { return Windows.size(); }

  /// Taken probability of \p B during window \p W (0 when unused).
  double takenProb(size_t W, guest::BlockId B) const {
    return Windows[W][B].takenProb();
  }
};

/// Slices \p Trace (a recording of the same program) into \p NumWindows
/// windows without executing anything: the trace's event count sizes the
/// windows and its event stream fills them. Window w holds events
/// [w * L, (w + 1) * L) with L = events / NumWindows + 1, so trailing
/// windows of a short trace stay empty.
WindowedProfile collectWindowedProfile(const guest::Program &P,
                                       size_t NumWindows,
                                       const BlockTrace &Trace);

} // namespace core
} // namespace tpdbt

#endif // TPDBT_CORE_WINDOWEDPROFILE_H
