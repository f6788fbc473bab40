//===-- runtime/CompiledMethod.h - Compiled code artifact ------*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compiled method: the MiniVM analogue of Jikes' VM_CompiledMethod. The
/// "machine code" is optimized IR executed by the costed interpreter; the
/// code-size and compile-time figures of the paper (Figures 10 and 11) are
/// modeled from the emitted instruction count and the optimization work done.
/// A mutable method has one *general* compiled method plus one *special*
/// compiled method per hot state (StateIndex >= 0), generated together when
/// the method is recompiled at a high optimization level (paper Figure 5).
/// Each instruction of the body carries its own dispatch entry, stamped by
/// decodeBody (runtime/DecodedBody.h) before the body is handed over.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_RUNTIME_COMPILEDMETHOD_H
#define DCHM_RUNTIME_COMPILEDMETHOD_H

#include "ir/Function.h"
#include "ir/Ids.h"

#include <cstdint>

namespace dchm {

struct MethodInfo;

/// One compiled version of a method, constructed with its finished,
/// stamped body.
class CompiledMethod {
public:
  CompiledMethod(MethodInfo &M, IRFunction CodeIn, int OptLevel,
                 int StateIndex)
      : Method(&M), Code(std::move(CodeIn)), OptLevel(OptLevel),
        StateIndex(StateIndex),
        // Modeled machine-code footprint: a fixed header plus bytes per
        // emitted instruction. The baseline-ish opt0 translation is less
        // dense than optimized code, mirroring Jikes' baseline-vs-opt code
        // size ratio.
        CodeBytes(32 + Code.Insts.size() * (OptLevel == 0 ? 14 : 10)) {}

  MethodInfo &method() const { return *Method; }
  const IRFunction &code() const { return Code; }
  int optLevel() const { return OptLevel; }
  /// Hot state this code is specialized for, or -1 for the general version.
  /// A specialized version sits in exactly one slot, Specials[stateIndex()].
  int stateIndex() const { return StateIndex; }
  bool isSpecialized() const { return StateIndex >= 0; }
  size_t codeBytes() const { return CodeBytes; }

  /// Invalidation marker. A replaced version stays allocated until the
  /// Program is destroyed, as in Jikes: active frames may still execute it.
  bool isInvalidated() const { return Invalidated; }
  void invalidate() { Invalidated = true; }

private:
  MethodInfo *Method;
  IRFunction Code;
  int OptLevel;
  int StateIndex;
  size_t CodeBytes;
  bool Invalidated = false;
};

} // namespace dchm

#endif // DCHM_RUNTIME_COMPILEDMETHOD_H
