//===- jit/Emitter.h - x86-64 machine code emitter --------------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small append-only x86-64 instruction encoder.
///
/// The emitter covers exactly the subset the superblock compiler
/// (jit/ChainCompiler.cpp) lowers the guest ISA to: 64-bit ALU in the
/// register-register, register-memory and register-immediate forms,
/// signed multiply/divide, CL- and immediate-count shifts, setcc,
/// base+disp and base+index*8 addressing for the guest register file and
/// guest memory, rel32 branches with label fixups, and the scalar-double
/// SSE2 ops (movq gpr<->xmm, add/sub/mul/divsd, ucomisd, cvtsi2sd,
/// cvttsd2si) that implement the guest's bits-as-double FP semantics.
///
/// Code is built into a plain byte vector; finish() patches all label
/// fixups and hands the buffer over. Making the bytes executable is the
/// code cache's job (jit/CodeBuffer.h) — the emitter never touches page
/// protections.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_JIT_EMITTER_H
#define TPDBT_JIT_EMITTER_H

#include <cassert>
#include <cstdint>
#include <vector>

namespace tpdbt {
namespace jit {

/// Host general-purpose registers, hardware encoding.
enum HostReg : uint8_t {
  RAX = 0,
  RCX = 1,
  RDX = 2,
  RBX = 3,
  RSP = 4,
  RBP = 5,
  RSI = 6,
  RDI = 7,
  R8 = 8,
  R9 = 9,
  R10 = 10,
  R11 = 11,
  R12 = 12,
  R13 = 13,
  R14 = 14,
  R15 = 15,
};

/// Condition codes (the x86 cc nibble used by jcc/setcc).
enum class Cond : uint8_t {
  B = 0x2,  ///< unsigned <
  Ae = 0x3, ///< unsigned >=
  E = 0x4,
  Ne = 0x5,
  Be = 0x6, ///< unsigned <=
  A = 0x7,  ///< unsigned >  (also: ucomisd "above", NaN-safe false)
  L = 0xc,  ///< signed <
  Ge = 0xd, ///< signed >=
};

/// The complementary condition (x86 encodes negation as cc ^ 1).
inline Cond negate(Cond C) {
  return static_cast<Cond>(static_cast<uint8_t>(C) ^ 1);
}

/// Two-operand 64-bit ALU ops sharing one encoding scheme.
enum class Alu : uint8_t { Add, Sub, And, Or, Xor, Cmp };

/// Shift kinds (count in CL or an immediate; hardware masks the count to
/// 63 in 64-bit mode, which is exactly the guest's shift semantics).
enum class Shift : uint8_t { Shl, Shr, Sar };

/// Scalar-double SSE2 arithmetic.
enum class Sse : uint8_t { AddSd, SubSd, MulSd, DivSd };

class Emitter {
public:
  /// Forward-referencable code position; bind() sets it, jcc()/jmp()
  /// reference it (rel32, patched by finish()).
  using Label = uint32_t;

  Label newLabel() {
    Labels.push_back(Unbound);
    return static_cast<Label>(Labels.size() - 1);
  }

  void bind(Label L) {
    assert(Labels[L] == Unbound && "label bound twice");
    Labels[L] = static_cast<uint32_t>(Code.size());
  }

  size_t size() const { return Code.size(); }

  /// Patches every pending rel32 fixup and returns the finished code.
  std::vector<uint8_t> finish() {
    for (const Fixup &F : Fixups) {
      assert(Labels[F.Target] != Unbound && "unbound label at finish");
      const int64_t Rel = static_cast<int64_t>(Labels[F.Target]) -
                          (static_cast<int64_t>(F.Pos) + 4);
      patch32(F.Pos, static_cast<int32_t>(Rel));
    }
    Fixups.clear();
    return std::move(Code);
  }

  // --- Stack / moves ----------------------------------------------------

  void push(HostReg R) {
    if (R >= 8)
      byte(0x41);
    byte(0x50 + (R & 7));
  }

  void pop(HostReg R) {
    if (R >= 8)
      byte(0x41);
    byte(0x58 + (R & 7));
  }

  /// mov Dst, Src (64-bit).
  void movRR(HostReg Dst, HostReg Src) {
    rex(true, Src, 0, Dst);
    byte(0x89);
    modrm(3, Src, Dst);
  }

  /// mov R, Imm64 (C7 sign-extended imm32 when it fits, else movabs).
  void movImm(HostReg R, int64_t V) {
    if (fitsI32(V)) {
      rex(true, 0, 0, R);
      byte(0xC7);
      modrm(3, 0, R);
      dword(static_cast<int32_t>(V));
    } else {
      rex(true, 0, 0, R);
      byte(0xB8 + (R & 7));
      qword(V);
    }
  }

  /// xor R32, R32 — the canonical 64-bit zeroing idiom.
  void zero(HostReg R) {
    if (R >= 8)
      byte(0x45); // REX.RB
    byte(0x31);
    modrm(3, R, R);
  }

  /// mov Dst, [Base + Disp] (64-bit load).
  void load(HostReg Dst, HostReg Base, int32_t Disp) {
    rex(true, Dst, 0, Base);
    byte(0x8B);
    mem(Dst, Base, Disp);
  }

  /// mov [Base + Disp], Src (64-bit store).
  void store(HostReg Base, int32_t Disp, HostReg Src) {
    rex(true, Src, 0, Base);
    byte(0x89);
    mem(Src, Base, Disp);
  }

  /// mov Dst, [Base + Index*8].
  void loadIndex8(HostReg Dst, HostReg Base, HostReg Index) {
    rex(true, Dst, Index, Base);
    byte(0x8B);
    sib8(Dst, Base, Index);
  }

  /// mov [Base + Index*8], Src.
  void storeIndex8(HostReg Base, HostReg Index, HostReg Src) {
    rex(true, Src, Index, Base);
    byte(0x89);
    sib8(Src, Base, Index);
  }

  // --- Integer ALU ------------------------------------------------------

  /// op Dst, Src (64-bit, r <- r op r).
  void alu(Alu Op, HostReg Dst, HostReg Src) {
    rex(true, Dst, 0, Src);
    byte(aluRmOpcode(Op));
    modrm(3, Dst, Src);
  }

  /// op Dst, [Base + Disp] (64-bit, r <- r op m).
  void aluMem(Alu Op, HostReg Dst, HostReg Base, int32_t Disp) {
    rex(true, Dst, 0, Base);
    byte(aluRmOpcode(Op));
    mem(Dst, Base, Disp);
  }

  /// op Dst, Imm32 (sign-extended to 64 bits).
  void aluImm(Alu Op, HostReg Dst, int32_t Imm) {
    rex(true, 0, 0, Dst);
    byte(0x81);
    modrm(3, aluDigit(Op), Dst);
    dword(Imm);
  }

  /// imul Dst, Src (64-bit).
  void imul(HostReg Dst, HostReg Src) {
    rex(true, Dst, 0, Src);
    byte(0x0F);
    byte(0xAF);
    modrm(3, Dst, Src);
  }

  /// imul Dst, [Base + Disp].
  void imulMem(HostReg Dst, HostReg Base, int32_t Disp) {
    rex(true, Dst, 0, Base);
    byte(0x0F);
    byte(0xAF);
    mem(Dst, Base, Disp);
  }

  /// imul Dst, Src, Imm32.
  void imulImm(HostReg Dst, HostReg Src, int32_t Imm) {
    rex(true, Dst, 0, Src);
    byte(0x69);
    modrm(3, Dst, Src);
    dword(Imm);
  }

  /// cqo: sign-extend RAX into RDX:RAX (idiv setup).
  void cqo() {
    byte(0x48);
    byte(0x99);
  }

  /// idiv R: RAX <- RDX:RAX / R, RDX <- remainder.
  void idiv(HostReg R) {
    rex(true, 0, 0, R);
    byte(0xF7);
    modrm(3, 7, R);
  }

  /// shift R by CL.
  void shiftCl(Shift K, HostReg R) {
    rex(true, 0, 0, R);
    byte(0xD3);
    modrm(3, shiftDigit(K), R);
  }

  /// shift R by an immediate count (already masked to 0..63).
  void shiftImm(Shift K, HostReg R, uint8_t Count) {
    rex(true, 0, 0, R);
    byte(0xC1);
    modrm(3, shiftDigit(K), R);
    byte(Count);
  }

  /// test A, B (64-bit AND discarding the result, setting flags).
  void test(HostReg A, HostReg B) {
    rex(true, B, 0, A);
    byte(0x85);
    modrm(3, B, A);
  }

  /// setcc R8 (byte register; REX is emitted for SPL/BPL/SIL/DIL and the
  /// extended registers so the low byte is always the one addressed).
  void setcc(Cond C, HostReg R) {
    if (R >= 4)
      byte(0x40 | (R >= 8 ? 1 : 0));
    byte(0x0F);
    byte(0x90 + static_cast<uint8_t>(C));
    modrm(3, 0, R);
  }

  /// inc R (64-bit).
  void inc(HostReg R) {
    rex(true, 0, 0, R);
    byte(0xFF);
    modrm(3, 0, R);
  }

  // --- Control flow -----------------------------------------------------

  void jcc(Cond C, Label L) {
    byte(0x0F);
    byte(0x80 + static_cast<uint8_t>(C));
    rel32(L);
  }

  void jmp(Label L) {
    byte(0xE9);
    rel32(L);
  }

  void ret() { byte(0xC3); }

  // --- Scalar double (SSE2) ---------------------------------------------
  // Xmm operands are plain indices 0..7 (the compiler only uses xmm0/1).

  /// movq Xmm, R (gpr bits into the low quadword).
  void movqToXmm(uint8_t Xmm, HostReg R) {
    byte(0x66);
    rex(true, Xmm, 0, R);
    byte(0x0F);
    byte(0x6E);
    modrm(3, Xmm, R);
  }

  /// movq R, Xmm.
  void movqFromXmm(HostReg R, uint8_t Xmm) {
    byte(0x66);
    rex(true, Xmm, 0, R);
    byte(0x0F);
    byte(0x7E);
    modrm(3, Xmm, R);
  }

  /// addsd/subsd/mulsd/divsd Dst, Src.
  void sse(Sse Op, uint8_t Dst, uint8_t Src) {
    byte(0xF2);
    byte(0x0F);
    switch (Op) {
    case Sse::AddSd:
      byte(0x58);
      break;
    case Sse::MulSd:
      byte(0x59);
      break;
    case Sse::SubSd:
      byte(0x5C);
      break;
    case Sse::DivSd:
      byte(0x5E);
      break;
    }
    modrm(3, Dst, Src);
  }

  /// ucomisd A, B (unordered compare setting ZF/PF/CF).
  void ucomisd(uint8_t A, uint8_t B) {
    byte(0x66);
    byte(0x0F);
    byte(0x2E);
    modrm(3, A, B);
  }

  /// cvtsi2sd Xmm, R (int64 -> double).
  void cvtsi2sd(uint8_t Xmm, HostReg R) {
    byte(0xF2);
    rex(true, Xmm, 0, R);
    byte(0x0F);
    byte(0x2A);
    modrm(3, Xmm, R);
  }

  /// cvttsd2si R, Xmm (double -> int64, truncating; out-of-range yields
  /// the INT64_MIN sentinel — the same value the compiled interpreter's
  /// cast produces on x86-64).
  void cvttsd2si(HostReg R, uint8_t Xmm) {
    byte(0xF2);
    rex(true, R, 0, Xmm);
    byte(0x0F);
    byte(0x2C);
    modrm(3, R, Xmm);
  }

  static bool fitsI32(int64_t V) {
    return V >= INT32_MIN && V <= INT32_MAX;
  }

private:
  static constexpr uint32_t Unbound = ~0u;

  struct Fixup {
    uint32_t Pos; ///< offset of the rel32 field
    Label Target;
  };

  void byte(uint8_t B) { Code.push_back(B); }

  void dword(int32_t V) {
    for (int I = 0; I < 4; ++I)
      byte(static_cast<uint8_t>(static_cast<uint32_t>(V) >> (8 * I)));
  }

  void qword(int64_t V) {
    for (int I = 0; I < 8; ++I)
      byte(static_cast<uint8_t>(static_cast<uint64_t>(V) >> (8 * I)));
  }

  void patch32(uint32_t Pos, int32_t V) {
    for (int I = 0; I < 4; ++I)
      Code[Pos + I] = static_cast<uint8_t>(static_cast<uint32_t>(V) >> (8 * I));
  }

  void rel32(Label L) {
    Fixups.push_back(Fixup{static_cast<uint32_t>(Code.size()), L});
    dword(0);
  }

  /// REX prefix; R/X/B take full register numbers (only bit 3 is used).
  void rex(bool W, uint8_t R, uint8_t X, uint8_t B) {
    const uint8_t P = 0x40 | (W ? 8 : 0) | ((R >> 3) << 2) | ((X >> 3) << 1) |
                      (B >> 3);
    if (P != 0x40 || W)
      byte(P);
  }

  void modrm(uint8_t Mod, uint8_t Reg, uint8_t Rm) {
    byte(static_cast<uint8_t>((Mod << 6) | ((Reg & 7) << 3) | (Rm & 7)));
  }

  /// [Base + Disp] operand (no index). Handles the RSP/R12 SIB escape and
  /// the RBP/R13 no-disp0 rule.
  void mem(uint8_t Reg, HostReg Base, int32_t Disp) {
    const uint8_t BaseLow = Base & 7;
    uint8_t Mod;
    if (Disp == 0 && BaseLow != 5)
      Mod = 0;
    else if (Disp >= -128 && Disp <= 127)
      Mod = 1;
    else
      Mod = 2;
    modrm(Mod, Reg, BaseLow);
    if (BaseLow == 4)
      byte(0x24); // SIB: base only
    if (Mod == 1)
      byte(static_cast<uint8_t>(Disp));
    else if (Mod == 2)
      dword(Disp);
  }

  /// [Base + Index*8] operand. Index must not be RSP (hardware limit; the
  /// compiler never uses RSP as an index).
  void sib8(uint8_t Reg, HostReg Base, HostReg Index) {
    assert((Index & 7) != 4 || Index >= 8);
    assert(Index != RSP && "rsp cannot be an index");
    const uint8_t BaseLow = Base & 7;
    const uint8_t Mod = BaseLow == 5 ? 1 : 0; // rbp/r13 need an explicit disp
    modrm(Mod, Reg, 4);
    byte(static_cast<uint8_t>((3 << 6) | ((Index & 7) << 3) | BaseLow));
    if (Mod == 1)
      byte(0);
  }

  static uint8_t aluRmOpcode(Alu Op) {
    switch (Op) {
    case Alu::Add:
      return 0x03;
    case Alu::Sub:
      return 0x2B;
    case Alu::And:
      return 0x23;
    case Alu::Or:
      return 0x0B;
    case Alu::Xor:
      return 0x33;
    case Alu::Cmp:
      return 0x3B;
    }
    return 0x03;
  }

  static uint8_t aluDigit(Alu Op) {
    switch (Op) {
    case Alu::Add:
      return 0;
    case Alu::Or:
      return 1;
    case Alu::And:
      return 4;
    case Alu::Sub:
      return 5;
    case Alu::Xor:
      return 6;
    case Alu::Cmp:
      return 7;
    }
    return 0;
  }

  static uint8_t shiftDigit(Shift K) {
    switch (K) {
    case Shift::Shl:
      return 4;
    case Shift::Shr:
      return 5;
    case Shift::Sar:
      return 7;
    }
    return 4;
  }

  std::vector<uint8_t> Code;
  std::vector<uint32_t> Labels;
  std::vector<Fixup> Fixups;
};

} // namespace jit
} // namespace tpdbt

#endif // TPDBT_JIT_EMITTER_H
