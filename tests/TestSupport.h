//===- tests/TestSupport.h - Shared test helpers ----------------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by several test binaries: a scoped environment-variable
/// guard for the TPDBT_* knobs and the small faulting chain program the
/// host tier, jit and replay tests run.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_TESTS_TESTSUPPORT_H
#define TPDBT_TESTS_TESTSUPPORT_H

#include "guest/ProgramBuilder.h"

#include <cstdint>
#include <cstdlib>
#include <string>

namespace tpdbt {
namespace testsupport {

/// Overrides an environment variable for one scope and restores the
/// inherited value (or absence) on destruction, so a test run under, say,
/// TPDBT_SEGMENT_EVENTS keeps that setting for every later test. The
/// knobs are re-read where they are used, so this is all a test needs.
class ScopedEnv {
public:
  /// Saves \p Name's current value without changing it.
  explicit ScopedEnv(const char *Name) : Name(Name) {
    const char *Prev = std::getenv(Name);
    Had = Prev != nullptr;
    if (Had)
      Old = Prev;
  }
  /// Sets \p Name to \p Value for the scope (see set()).
  ScopedEnv(const char *Name, const char *Value) : ScopedEnv(Name) {
    set(Value);
  }
  ~ScopedEnv() { set(Had ? Old.c_str() : nullptr); }
  ScopedEnv(const ScopedEnv &) = delete;
  ScopedEnv &operator=(const ScopedEnv &) = delete;

  /// Sets the variable to \p Value; a null \p Value unsets it.
  void set(const char *Value) {
    if (Value)
      setenv(Name.c_str(), Value, 1);
    else
      unsetenv(Name.c_str());
  }

private:
  std::string Name;
  std::string Old;
  bool Had = false;
};

/// A four-block chain (head, two straight-line members, a conditional
/// latch) re-entered \p Iters times. Block B loads from address r1 = r0
/// (the outer counter), so shrinking memory below Iters plants a MemFault
/// in the middle of the chain once it is hot; that faulting event ends
/// the run with fewer instructions than B's other occurrences. No block
/// branches to itself, keeping every member out of the self-loop tier.
inline guest::Program makeChainProgram(int64_t Iters, uint64_t MemWords) {
  guest::ProgramBuilder PB("chain");
  auto Entry = PB.createBlock("entry");
  auto Head = PB.createBlock("head");
  auto A = PB.createBlock("a");
  auto B = PB.createBlock("b");
  auto Latch = PB.createBlock("latch");
  auto Exit = PB.createBlock("exit");
  PB.setMemWords(MemWords);
  PB.setEntry(Entry);
  PB.switchTo(Entry);
  PB.movI(0, 0);
  PB.jump(Head);
  PB.switchTo(Head);
  PB.addI(2, 0, 7);
  PB.jump(A);
  PB.switchTo(A);
  PB.xorI(3, 2, 0x33);
  PB.jump(B);
  PB.switchTo(B);
  PB.mov(1, 0);
  PB.load(4, 1, 0); // faults once r0 reaches MemWords
  PB.jump(Latch);
  PB.switchTo(Latch);
  PB.addI(0, 0, 1);
  PB.branchImm(guest::CondKind::LtI, 0, Iters, Head, Exit);
  PB.switchTo(Exit);
  PB.halt();
  return PB.build();
}

} // namespace testsupport
} // namespace tpdbt

#endif // TPDBT_TESTS_TESTSUPPORT_H
