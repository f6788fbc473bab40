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
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_RUNTIME_COMPILEDMETHOD_H
#define DCHM_RUNTIME_COMPILEDMETHOD_H

#include "ir/Function.h"
#include "ir/Ids.h"
#include "runtime/DecodedBody.h"

#include <cstdint>
#include <vector>

namespace dchm {

struct MethodInfo;

/// One compiled version of a method, constructed with its finished body and
/// that body's dispatch form (runtime/DecodedBody.h).
class CompiledMethod {
public:
  CompiledMethod(MethodInfo &M, IRFunction CodeIn,
                 std::vector<DecodedInst> DecodedIn, int OptLevel,
                 int StateIndex, uint64_t CompileCycles)
      : Method(&M), Code(std::move(CodeIn)), Decoded(std::move(DecodedIn)),
        OptLevel(OptLevel), StateIndex(StateIndex),
        CompileCycles(CompileCycles),
        // Modeled machine-code footprint: a fixed header plus bytes per
        // emitted instruction. The baseline-ish opt0 translation is less
        // dense than optimized code, mirroring Jikes' baseline-vs-opt code
        // size ratio.
        CodeBytes(32 + Code.Insts.size() * (OptLevel == 0 ? 14 : 10)) {}

  MethodInfo &method() const { return *Method; }
  const IRFunction &code() const { return Code; }
  /// Dispatch entries, index-parallel to code().Insts.
  const std::vector<DecodedInst> &decoded() const { return Decoded; }
  int optLevel() const { return OptLevel; }
  /// Hot state this code is specialized for, or -1 for the general version.
  /// A specialized version sits in exactly one slot, Specials[stateIndex()].
  int stateIndex() const { return StateIndex; }
  bool isSpecialized() const { return StateIndex >= 0; }
  size_t codeBytes() const { return CodeBytes; }
  uint64_t compileCycles() const { return CompileCycles; }

  /// Size charged against the code budget, estimated by the compiler from
  /// the unit size before optimization. Budget eviction ranks on this
  /// estimate, not on codeBytes().
  size_t budgetBytes() const { return BudgetBytes; }
  void setBudgetBytes(size_t N) { BudgetBytes = N; }

  /// Drops the body IR and dispatch form of a retired version (epoch-based
  /// reclamation after plan retirement / budget eviction). The object itself
  /// stays allocated forever, Jikes-style; CodeBytes is kept so code-size
  /// metrics remain stable. Only legal once no dispatch structure or frame
  /// can reach this version.
  void releaseBody() {
    Code = IRFunction();
    Decoded = std::vector<DecodedInst>();
    BodyReleased = true;
  }
  bool bodyReleased() const { return BodyReleased; }

  /// Invalidation marker (the replaced version stays allocated because
  /// active frames may still execute it, as in Jikes).
  bool isInvalidated() const { return Invalidated; }
  void invalidate() { Invalidated = true; }

private:
  MethodInfo *Method;
  IRFunction Code;
  std::vector<DecodedInst> Decoded;
  int OptLevel;
  int StateIndex;
  uint64_t CompileCycles;
  size_t CodeBytes;
  size_t BudgetBytes = 0;
  bool Invalidated = false;
  bool BodyReleased = false;
};

} // namespace dchm

#endif // DCHM_RUNTIME_COMPILEDMETHOD_H
