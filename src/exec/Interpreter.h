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
/// simulated cost accounting: computed-goto threaded dispatch (DispatchMode)
/// with fused handler pairs for dominant instruction sequences changes only
/// real wall time, never simulated cycles or program output. Registers live
/// in one contiguous bump-allocated arena shared by all frames.
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

/// How the interpreter's inner loop dispatches opcodes. Default resolves to
/// Threaded when the build enables DCHM_THREADED_DISPATCH and the compiler
/// supports computed goto, otherwise to the portable Switch loop. Both
/// modes produce identical output and identical simulated cycle counts.
enum class DispatchMode : uint8_t { Default, Switch, Threaded };

/// Executes compiled methods against a Program and Heap.
class Interpreter : public RootProvider {
public:
  Interpreter(Program &P, Heap &H, VMCallbacks &CB,
              DispatchMode Mode = DispatchMode::Default);

  /// Invokes method M with the given arguments (receiver first for instance
  /// methods), compiling lazily as needed, and returns its result.
  Value invoke(MethodId M, const std::vector<Value> &Args);

  const ExecStats &stats() const { return Stats; }

  /// Number of live activation records. Zero means no return address can
  /// point into compiled code — the safe point for draining the epoch-based
  /// reclamation list of retired TIBs and specialized bodies.
  size_t liveFrames() const { return Depth; }

  /// True when the inner loop runs on computed-goto threaded dispatch.
  bool threadedDispatch() const { return UseThreaded; }

  /// Enables the inline hotness-sample fast path. Only valid when the
  /// adaptive system samples every entry/back-edge event (SampleInterval ==
  /// 1): in that regime a sample for a fully promoted method is exactly
  /// MethodInfo::SampleCount++ — promotion is a no-op at the top opt level
  /// and the decimation tick is untouched — so the interpreter takes the
  /// increment inline instead of walking the callback chain on its two
  /// hottest events.
  void setInlineSampling(bool On) { InlineSampling = On; }

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
  SafepointSlot *safepointSlot() const { return Sp; }

  /// Appends the receiver of every constructor frame currently on the
  /// stack. The consistency auditor exempts these objects from the strict
  /// TIB-matches-state invariant: algorithm part I defers classification of
  /// an object to the exit of its constructors, so a half-constructed
  /// object's TIB legitimately lags its fields.
  void collectActiveCtorReceivers(std::vector<Object *> &Out) const;

  /// Per-method cycle attribution for the offline hot-method profiler.
  void setProfiling(bool On);
  const std::vector<uint64_t> &methodCycles() const { return MethodCycles; }
  const std::vector<uint64_t> &methodInvocations() const {
    return MethodInvocations;
  }

  /// Program output (Print opcode) and its FNV-1a hash; the hash is the
  /// semantic-equivalence witness for mutation-on vs mutation-off runs.
  const std::string &output() const { return Output; }
  uint64_t outputHash() const { return OutHash; }
  void clearOutput();

  // RootProvider: scans the reference-typed registers of all live frames.
  void enumerateRoots(std::vector<Object *> &Roots) override;

private:
  static constexpr size_t MaxArgs = 16;
  static constexpr size_t MaxFrames = 512;
  static constexpr size_t InitialArenaSlots = 4096;

  /// One activation record. Registers live in the shared arena window
  /// [RegBase, RegBase + NumRegs).
  struct Frame {
    const IRFunction *Fn = nullptr;
    const MethodInfo *M = nullptr;
    size_t RegBase = 0;
    uint32_t NumRegs = 0;
  };

  Value execute(CompiledMethod *CM, const Value *Args, size_t NumArgs);
  /// The two compilations of the shared inner-loop body
  /// (exec/InterpreterLoop.inc). They are separate functions, not a
  /// template over the dispatch flag, so the switch copy is compiled with
  /// no address-taken labels at all: a `&&label` table anywhere in a
  /// function pins every labelled block and costs the pure-switch loop
  /// measurable straight-line speed.
  Value executeLoopSwitch(CompiledMethod *CM, const Value *Args,
                          size_t NumArgs);
  Value executeLoopThreaded(CompiledMethod *CM, const Value *Args,
                            size_t NumArgs);
  CompiledMethod *resolveAndEnsure(TIB *T, uint32_t Slot);
  /// Resolves an interface method against T's IMT (for external invoke()).
  CompiledMethod *resolveInterface(TIB *T, MethodId IfaceMethod);
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
  ExecStats Stats;
  std::vector<Frame> Frames; ///< pooled frame stack; Depth frames live
  size_t Depth = 0;
  /// Contiguous register stack: one slab, frame windows bump-allocated on
  /// invoke and released on return. Grows geometrically; raw register
  /// pointers are re-derived after any nested invocation (see executeLoop).
  std::vector<Value> RegArena;
  size_t ArenaTop = 0;
  AuditHook *Audit = nullptr;
  SafepointSlot *Sp = nullptr;
  bool UseThreaded = false;
  bool InlineSampling = false;
  bool Profiling = false;
  std::vector<uint64_t> MethodCycles;
  std::vector<uint64_t> MethodInvocations;
  std::string Output;
  uint64_t OutHash = 1469598103934665603ull; // FNV-1a offset basis
};

} // namespace dchm

#endif // DCHM_EXEC_INTERPRETER_H
