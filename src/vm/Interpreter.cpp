//===- vm/Interpreter.cpp - Block-level guest interpreter ------------------===//

#include "vm/Interpreter.h"

#include <cstdint>

using namespace tpdbt;
using namespace tpdbt::vm;
using namespace tpdbt::guest;

/// True for comparison opcodes that can fuse into a terminator branch
/// testing their 0/1 result.
static bool isFusableCompare(Opcode Op) {
  switch (Op) {
  case Opcode::CmpEq:
  case Opcode::CmpLt:
  case Opcode::CmpLtU:
  case Opcode::CmpEqI:
  case Opcode::CmpLtI:
  case Opcode::CmpLtUI:
  case Opcode::FCmpLt:
    return true;
  default:
    return false;
  }
}

Interpreter::Interpreter(const Program &P) : P(P) {
  const size_t N = P.numBlocks();
  First.reserve(N + 1);
  Terms.reserve(N);
  size_t TotalOps = 0;
  for (const Block &B : P.Blocks)
    TotalOps += B.Insts.size();
  Ops.reserve(TotalOps);

  for (const Block &B : P.Blocks) {
    First.push_back(static_cast<uint32_t>(Ops.size()));

    DecodedTerm T{};
    T.Taken = B.Term.Taken;
    T.Fall = B.Term.Fallthrough;
    T.Imm = B.Term.Imm;
    T.Ra = B.Term.Ra;
    T.Rb = B.Term.Rb;
    switch (B.Term.Kind) {
    case TermKind::Jump:
      T.Code = TermCode::Jump;
      break;
    case TermKind::Halt:
      T.Code = TermCode::Halt;
      break;
    case TermKind::Branch:
      T.Code = TermCode::Branch;
      T.Cond = static_cast<uint8_t>(B.Term.Cond);
      break;
    }

    // Compare+branch fusion: a trailing Cmp* whose result register is
    // tested against zero by the terminator collapses into one
    // superinstruction. The compare still writes its register.
    bool Fused = false;
    if (T.Code == TermCode::Branch && !B.Insts.empty()) {
      const Inst &Last = B.Insts.back();
      bool BranchOnTrue =
          B.Term.Cond == CondKind::NeI && B.Term.Imm == 0;
      bool BranchOnFalse =
          B.Term.Cond == CondKind::EqI && B.Term.Imm == 0;
      if ((BranchOnTrue || BranchOnFalse) && isFusableCompare(Last.Op) &&
          Last.Rd == B.Term.Ra) {
        T.Code = TermCode::FusedBr;
        T.Cond = static_cast<uint8_t>(Last.Op);
        T.Rd = Last.Rd;
        T.Ra = Last.Ra;
        T.Rb = Last.Rb;
        T.Imm = Last.Imm;
        T.Invert = BranchOnFalse ? 1 : 0;
        Fused = true;
        ++FusedBlocks;
      }
    }

    const size_t BodyEnd = B.Insts.size() - (Fused ? 1 : 0);
    for (size_t I = 0; I < BodyEnd; ++I) {
      const Inst &In = B.Insts[I];
      Ops.push_back(DecodedOp{In.Op, In.Rd, In.Ra, In.Rb, In.Imm});
    }
    Terms.push_back(T);
  }
  First.push_back(static_cast<uint32_t>(Ops.size()));

  classifySelfLoops();
}

void Interpreter::classifySelfLoops() {
  const size_t N = P.numBlocks();
  SelfLoops.assign(N, SelfLoop{});
  for (size_t Id = 0; Id < N; ++Id) {
    const DecodedTerm &T = Terms[Id];
    SelfLoop SL;
    if (T.Code == TermCode::Halt)
      continue;
    if (T.Code == TermCode::Jump) {
      if (T.Taken != Id)
        continue;
      SL.Kind = SelfLoop::Level::Generic;
      SL.StayBranch = 0;
    } else {
      const bool TakenSelf = T.Taken == Id;
      const bool FallSelf = T.Fall == Id;
      // Not a self-loop — or a degenerate latch whose two edges both
      // loop, which has no fixed staying branch outcome. Leave those to
      // the plain dispatch.
      if (TakenSelf == FallSelf)
        continue;
      SL.Kind = SelfLoop::Level::Generic;
      SL.StayBranch = TakenSelf ? 2 : 1;
    }
    SL.FullInsts = First[Id + 1] - First[Id] +
                   (T.Code == TermCode::FusedBr ? 2u : 1u);
    // A fused latch writes its compare register on every iteration, so
    // only a plain branch latch (no side effects) can be skipped.
    if (T.Code == TermCode::Branch)
      upgradeCountedLoop(static_cast<guest::BlockId>(Id), SL);
    SelfLoops[Id] = SL;
  }
}

void Interpreter::upgradeCountedLoop(guest::BlockId Id, SelfLoop &SL) const {
  const DecodedTerm &T = Terms[Id];
  bool CondIsLt, BoundIsImm;
  switch (static_cast<CondKind>(T.Cond)) {
  case CondKind::Lt:
    CondIsLt = true;
    BoundIsImm = false;
    break;
  case CondKind::LtI:
    CondIsLt = true;
    BoundIsImm = true;
    break;
  case CondKind::Ge:
    CondIsLt = false;
    BoundIsImm = false;
    break;
  case CondKind::GeI:
    CondIsLt = false;
    BoundIsImm = true;
    break;
  default:
    return; // equality/unsigned latches have wrapping exit conditions
  }
  // Staying on the false edge flips the predicate (!(<) is >=).
  const bool StayIsLt = CondIsLt == (SL.StayBranch == 2);

  const uint8_t X = T.Ra;
  if (!BoundIsImm && T.Rb == X)
    return;

  // The induction register must be written exactly once, by a constant
  // step (AddI X, X, imm), and the bound register must be loop-invariant.
  const DecodedOp *Begin = Ops.data() + First[Id];
  const DecodedOp *const End = Ops.data() + First[Id + 1];
  int64_t Step = 0;
  int WritesToX = 0;
  for (const DecodedOp *Op = Begin; Op != End; ++Op) {
    if (!opcodeWritesRd(Op->Op))
      continue;
    if (Op->Rd == X) {
      if (++WritesToX > 1 || Op->Op != Opcode::AddI || Op->Ra != X ||
          Op->Imm == 0)
        return;
      Step = Op->Imm;
    }
    if (!BoundIsImm && Op->Rd == T.Rb)
      return;
  }
  if (WritesToX != 1)
    return;
  // The step must move X toward the exit, or the stay count is not a
  // simple division (the loop only exits through int64 wrapping).
  if (StayIsLt ? Step <= 0 : Step >= 0)
    return;

  SL.X = X;
  SL.Step = Step;
  SL.StayIsLt = StayIsLt;
  SL.BoundIsImm = BoundIsImm;
  SL.BoundReg = T.Rb;
  SL.BoundImm = T.Imm;
  SL.Kind = SelfLoop::Level::Counted;
}
