//===- support/Varint.h - LEB128 varint and zigzag helpers ------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The varint/zigzag primitives shared by every tpdbt binary format
/// (TPDT traces, the TPDZ frame header). Unsigned values are LEB128:
/// seven payload bits per byte, high bit marks continuation.
/// Signed deltas go through zigzag so small negative values stay short.
///
/// getVarint rejects encodings wider than 64 bits and truncated input by
/// returning false; callers treat that as a corrupt stream.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_SUPPORT_VARINT_H
#define TPDBT_SUPPORT_VARINT_H

#include <cstdint>
#include <string>

namespace tpdbt {

inline void putVarint(std::string &Out, uint64_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<char>(0x80 | (V & 0x7f)));
    V >>= 7;
  }
  Out.push_back(static_cast<char>(V));
}

inline bool getVarint(const std::string &In, size_t &Pos, uint64_t &V) {
  V = 0;
  unsigned Shift = 0;
  while (Pos < In.size()) {
    uint8_t Byte = static_cast<uint8_t>(In[Pos++]);
    V |= static_cast<uint64_t>(Byte & 0x7f) << Shift;
    if (!(Byte & 0x80))
      return true;
    Shift += 7;
    if (Shift > 63)
      return false;
  }
  return false;
}

inline uint64_t zigzagEncode(int64_t V) {
  return (static_cast<uint64_t>(V) << 1) ^ static_cast<uint64_t>(V >> 63);
}

inline int64_t zigzagDecode(uint64_t V) {
  return static_cast<int64_t>(V >> 1) ^ -static_cast<int64_t>(V & 1);
}

} // namespace tpdbt

#endif // TPDBT_SUPPORT_VARINT_H
