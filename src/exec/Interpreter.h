//===-- exec/Interpreter.h - Costed IR interpreter ------------*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MiniVM execution engine. "Compiled code" is optimized IR; this
/// interpreter executes it while charging the deterministic cycle costs of
/// runtime/CostModel.h, so specialization's benefit (fewer instructions) and
/// mutation's overheads (state-field patch code, TIB-offset interface
/// dispatch) show up in the measured cycle counts exactly where the paper
/// describes them. Dispatch is faithful to Jikes: virtual calls through the
/// receiver's (possibly special) TIB slot, static calls through the JTOC,
/// invokespecial through the declaring class TIB, interface calls through
/// the IMT. The interpreter is also the GC's root provider (frame scan).
///
/// The host-side fast path (docs/dispatch.md) is independent of the
/// simulated cost accounting: the one inner loop dispatches with computed
/// goto on the dispatch entry each instruction of a compiled body carries
/// (runtime/DecodedBody.h), stamped once per compiled method, where fused
/// groups of dominant instruction sequences have their own handlers and
/// are charged on dispatch. It changes only real wall time, never
/// simulated cycles or program output. A guest call pushes a Frame and
/// keeps dispatching in the same loop, so guest depth costs no host stack;
/// registers live in one contiguous bump-allocated arena shared by all
/// frames.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_EXEC_INTERPRETER_H
#define DCHM_EXEC_INTERPRETER_H

#include "exec/Callbacks.h"
#include "runtime/AuditHook.h"
#include "runtime/Heap.h"
#include "runtime/Program.h"
#include "runtime/Safepoint.h"

#include <string>
#include <vector>

namespace dchm {

/// Execution statistics for one interpreter lifetime.
struct ExecStats {
  uint64_t Cycles = 0;       ///< simulated application cycles
  uint64_t Insts = 0;        ///< interpreted instructions
  uint64_t Invocations = 0;  ///< method invocations
  uint64_t VirtualCalls = 0;
  uint64_t InterfaceCalls = 0;
  uint64_t StatePatchHits = 0; ///< state-field assignments intercepted
};

/// Executes compiled methods against a Program and Heap.
class Interpreter : public RootProvider {
public:
  /// Ctx is the mutator context this interpreter runs: it allocates
  /// through heap buffer Ctx.
  Interpreter(Program &P, Heap &H, VMCallbacks &CB, unsigned Ctx);

  /// Invokes method M with the given arguments (receiver first for instance
  /// methods), compiling lazily as needed, and returns its result.
  Value invoke(MethodId M, const std::vector<Value> &Args);

  const ExecStats &stats() const { return Stats; }

  /// Always true: the inner loop is computed-goto threaded dispatch. Kept
  /// for run manifests that record it.
  bool threadedDispatch() const { return true; }

  /// Stops sampling methods at the top of the ladder (TopOptLevel). Only
  /// valid when the adaptive system samples every entry/back-edge event
  /// (SampleInterval == 1): then a top-tier sample only bumps
  /// MethodInfo::SampleCount, which nothing reads past opt1, and the
  /// decimation tick is untouched. So the interpreter skips the callback
  /// chain and the shared atomic counter on its two hottest events, at any
  /// mutator count, without changing any simulated result. With a larger
  /// interval every event ticks the global decimation counter, which
  /// decides which *other* methods' events count, so it must stay off.
  void setSkipTopTierSamples(bool On) { SkipTopTierSamples = On; }

  /// Attaches a consistency-audit hook fired at the invocation-boundary
  /// safepoint (the top of the loop, where all dispatch structures are
  /// quiescent). Null detaches. The hook must not modify simulated state;
  /// see runtime/AuditHook.h.
  void setAuditHook(AuditHook *H) { Audit = H; }

  /// Attaches this interpreter (= this mutator thread) to its rendezvous
  /// slot. The inner loop then polls the slot's flag at invocation
  /// boundaries and backedges and parks when a leader holds the world.
  /// Null (the single-mutator default) compiles the polls away to nothing.
  void setSafepointSlot(SafepointSlot *S) { Sp = S; }

  /// Appends the receiver of every constructor frame currently on the
  /// stack. The consistency auditor exempts these objects from the strict
  /// TIB-matches-state invariant: algorithm part I defers classification of
  /// an object to the exit of its constructors, so a half-constructed
  /// object's TIB legitimately lags its fields.
  void collectActiveCtorReceivers(std::vector<Object *> &Out) const;

  /// Per-method cycle attribution for the offline hot-method profiler.
  void setProfiling(bool On);
  const std::vector<uint64_t> &methodCycles() const { return MethodCycles; }

  /// Program output (Print opcode) and its FNV-1a hash; the hash is the
  /// semantic-equivalence witness for mutation-on vs mutation-off runs.
  const std::string &output() const { return Output; }
  uint64_t outputHash() const { return OutHash; }
  void clearOutput();

  // RootProvider: scans the reference-typed registers of all live frames.
  void enumerateRoots(std::vector<Object *> &Roots) override;

private:
  static constexpr size_t MaxFrames = 512;

  /// One activation record. Registers live in the shared arena window that
  /// starts at RegBase; the Ret fields resume the caller.
  struct Frame {
    CompiledMethod *CM;
    size_t RegBase;
    /// The caller's call instruction; null in the frame invoke() pushed.
    const Instruction *RetIp;
    uint64_t RetC; ///< the caller's cycle accumulator
  };

  /// Pushes a frame running CM that returns to RetIp/RetC, and returns its
  /// register window, zeroed past the NumArgs arguments the caller then
  /// copies in.
  Value *pushFrame(CompiledMethod *CM, size_t NumArgs,
                   const Instruction *RetIp, uint64_t RetC);
  /// The inner loop: runs the frame invoke() pushed, and every frame it
  /// calls, until it returns, and returns its result.
  Value executeLoop();
  CompiledMethod *resolveAndEnsure(TIB *T, uint32_t Slot);
  /// IMT resolution for a CallInterface site; adds the entry
  /// kind's extra simulated cycles to ExtraCost.
  CompiledMethod *resolveInterfaceSite(TIB *T, uint32_t ImtSlot,
                                       MethodId IfaceMethod,
                                       uint64_t &ExtraCost);
  void printValue(const Instruction &I, Value V);
  void appendOutput(const char *S, size_t Len);

  Program &P;
  Heap &H;
  VMCallbacks &CB;
  unsigned Ctx;
  ExecStats Stats;
  std::vector<Frame> Frames; ///< the live frames, grown on demand
  /// Contiguous register stack: one slab, frame windows bump-allocated on
  /// call and released on return. Grows geometrically on demand.
  std::vector<Value> RegArena;
  size_t ArenaTop = 0;
  AuditHook *Audit = nullptr;
  SafepointSlot *Sp = nullptr;
  bool SkipTopTierSamples = false;
  bool Profiling = false;
  std::vector<uint64_t> MethodCycles;
  std::string Output;
  uint64_t OutHash = 1469598103934665603ull; // FNV-1a offset basis
};

} // namespace dchm

#endif // DCHM_EXEC_INTERPRETER_H
