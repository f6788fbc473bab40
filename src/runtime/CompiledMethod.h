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

#include <atomic>
#include <cstdint>

namespace dchm {

struct MethodInfo;

/// One compiled version of a method.
///
/// A CompiledMethod may be created as a *pending shell*: installable in
/// dispatch structures immediately (its modeled compile cycles are already
/// charged), while the host-side optimization work that produces the body
/// runs on a CompilePipeline worker. finalizeCode() publishes the body with
/// a release store on ReadyFlag; the interpreter checks ready() (acquire) at
/// its invocation safepoint and blocks until the body lands. A sync-created
/// CompiledMethod is born ready, so the check is a single always-true load.
class CompiledMethod {
public:
  CompiledMethod(MethodInfo &M, IRFunction CodeIn, int OptLevel,
                 int StateIndex, uint64_t CompileCycles)
      : CompiledMethod(M, OptLevel, StateIndex, CompileCycles) {
    finalizeCode(std::move(CodeIn));
  }

  /// Pending-shell constructor: no body yet; finalizeCode() must follow.
  CompiledMethod(MethodInfo &M, int OptLevel, int StateIndex,
                 uint64_t CompileCycles)
      : Method(&M), OptLevel(OptLevel), StateIndex(StateIndex),
        CompileCycles(CompileCycles) {}

  /// Publishes the finished body. Called exactly once, either inline from
  /// the sync constructor or from a pipeline worker thread; every other
  /// thread observes the body only through a ready() acquire.
  void finalizeCode(IRFunction CodeIn) {
    Code = std::move(CodeIn);
    // Modeled machine-code footprint: a fixed header plus bytes per emitted
    // instruction. The baseline-ish opt0 translation is less dense than
    // optimized code, mirroring Jikes' baseline-vs-opt code size ratio.
    CodeBytes = 32 + Code.Insts.size() * (OptLevel == 0 ? 14 : 10);
    ReadyFlag.store(true, std::memory_order_release);
  }

  /// True once the body is published. Pairs with finalizeCode()'s release.
  bool ready() const { return ReadyFlag.load(std::memory_order_acquire); }

  MethodInfo &method() const { return *Method; }
  const IRFunction &code() const { return Code; }
  int optLevel() const { return OptLevel; }
  /// Hot state this code is specialized for, or -1 for the general version.
  /// A cache-shared specialized version keeps the index it was first
  /// compiled for; routing goes by Specials slot / TIB, never this field.
  int stateIndex() const { return StateIndex; }
  bool isSpecialized() const { return StateIndex >= 0; }
  size_t codeBytes() const { return CodeBytes; }
  uint64_t compileCycles() const { return CompileCycles; }

  /// Deterministic size estimate charged against the code budget at compile
  /// *request* time (CodeBytes only exists once an async body finalizes, so
  /// budget accounting cannot use it without diverging between sync and
  /// async hosts). Set by the compiler when the shell is created.
  size_t budgetBytes() const { return BudgetBytes; }
  void setBudgetBytes(size_t N) { BudgetBytes = N; }

  /// Drops the body IR of a retired version (epoch-based reclamation after
  /// plan retirement / budget eviction). The CompiledMethod object itself
  /// stays allocated forever, Jikes-style; CodeBytes is kept so code-size
  /// metrics remain stable. Only legal once no dispatch structure or frame
  /// can reach this version.
  void releaseBody() {
    Code = IRFunction();
    BodyReleased = true;
  }
  bool bodyReleased() const { return BodyReleased; }

  /// Number of Specials slots this version serves: 1, or more when the
  /// specialization cache found hot states indistinguishable to the method.
  unsigned shareCount() const { return ShareCount; }
  void addShare() { ++ShareCount; }

  /// Invalidation marker (the replaced version stays allocated because
  /// active frames may still execute it, as in Jikes).
  bool isInvalidated() const { return Invalidated; }
  void invalidate() { Invalidated = true; }

private:
  MethodInfo *Method;
  IRFunction Code;
  int OptLevel;
  int StateIndex;
  uint64_t CompileCycles;
  size_t CodeBytes = 0;
  size_t BudgetBytes = 0;
  unsigned ShareCount = 1;
  bool Invalidated = false;
  bool BodyReleased = false;
  std::atomic<bool> ReadyFlag{false};
};

} // namespace dchm

#endif // DCHM_RUNTIME_COMPILEDMETHOD_H
