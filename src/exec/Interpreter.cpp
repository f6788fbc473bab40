//===-- exec/Interpreter.cpp - Costed IR interpreter --------------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
// The inner loop is written once (exec/InterpreterLoop.inc) and compiled
// twice: executeLoopThreaded dispatches with computed goto over each body's
// decoded form (one indirect branch per handler, fused groups decided once
// per compiled body, see runtime/DecodedBody.h) and executeLoopSwitch with
// the portable central switch over raw IR. Both charge identical simulated
// cycles and produce identical output; only host wall time differs. See
// docs/dispatch.md.
//
//===----------------------------------------------------------------------===//

#include "exec/Interpreter.h"

#include "compiler/Eval.h"
#include "runtime/CostModel.h"
#include "runtime/DecodedBody.h"
#include "support/Debug.h"

#include <algorithm>
#include <cstdio>

// Computed goto is a GNU extension available on GCC and Clang; elsewhere the
// threaded instantiation falls back to the switch loop.
#if defined(__GNUC__) || defined(__clang__)
#define DCHM_HAVE_COMPUTED_GOTO 1
#else
#define DCHM_HAVE_COMPUTED_GOTO 0
#endif

namespace dchm {

Interpreter::Interpreter(Program &P, Heap &H, VMCallbacks &CB,
                         DispatchMode Mode)
    : P(P), H(H), CB(CB) {
  Frames.resize(MaxFrames);
  RegArena.resize(InitialArenaSlots);
#if DCHM_HAVE_COMPUTED_GOTO
#ifdef DCHM_THREADED_DISPATCH
  constexpr bool DefaultThreaded = true;
#else
  constexpr bool DefaultThreaded = false;
#endif
  UseThreaded = Mode == DispatchMode::Threaded ||
                (Mode == DispatchMode::Default && DefaultThreaded);
#else
  (void)Mode;
  UseThreaded = false;
#endif
}

void Interpreter::setProfiling(bool On) {
  Profiling = On;
  if (On) {
    MethodCycles.assign(P.numMethods(), 0);
    MethodInvocations.assign(P.numMethods(), 0);
  }
}

void Interpreter::clearOutput() {
  Output.clear();
  OutHash = 1469598103934665603ull;
}

void Interpreter::appendOutput(const char *S, size_t Len) {
  Output.append(S, Len);
  for (size_t I = 0; I < Len; ++I) {
    OutHash ^= static_cast<unsigned char>(S[I]);
    OutHash *= 1099511628211ull;
  }
}

void Interpreter::printValue(const Instruction &I, Value V) {
  char Buf[64];
  int Len;
  if (I.Aux == 1) {
    Buf[0] = static_cast<char>(V.I);
    Len = 1;
  } else if (I.Ty == Type::F64) {
    Len = std::snprintf(Buf, sizeof(Buf), "%.6g", V.F);
  } else {
    Len = std::snprintf(Buf, sizeof(Buf), "%lld",
                        static_cast<long long>(V.I));
  }
  appendOutput(Buf, static_cast<size_t>(Len));
}

void Interpreter::enumerateRoots(std::vector<Object *> &Roots) {
  for (size_t D = 0; D < Depth; ++D) {
    const Frame &F = Frames[D];
    if (!F.Fn)
      continue;
    const auto &Types = F.Fn->RegTypes;
    const Value *Regs = RegArena.data() + F.RegBase;
    for (uint32_t R = 0; R < F.NumRegs; ++R)
      if (Types[R] == Type::Ref && Regs[R].R)
        Roots.push_back(Regs[R].R);
  }
}

void Interpreter::collectActiveCtorReceivers(std::vector<Object *> &Out) const {
  for (size_t D = 0; D < Depth; ++D) {
    const Frame &F = Frames[D];
    if (!F.Fn || !F.M || !F.M->Flags.IsCtor || F.NumRegs == 0)
      continue;
    const Value *Regs = RegArena.data() + F.RegBase;
    if (Regs[0].R)
      Out.push_back(Regs[0].R);
  }
}

CompiledMethod *Interpreter::resolveInterface(TIB *T, MethodId IfaceMethod) {
  uint64_t Ignored = 0;
  return resolveInterfaceSite(T, IfaceMethod % NumImtSlots, IfaceMethod,
                              Ignored);
}

CompiledMethod *Interpreter::resolveInterfaceSite(TIB *T, uint32_t ImtSlot,
                                                  MethodId IfaceMethod,
                                                  uint64_t &ExtraCost) {
  DCHM_CHECK(T->Imt, "interface call on class with no IMT");
  const ImtEntry &E = T->Imt->Slots[ImtSlot];
  switch (E.K) {
  case ImtEntry::Kind::Direct: {
    if (E.DirectCode)
      return E.DirectCode;
    MethodInfo &Impl = P.method(E.DirectImpl);
    CB.ensureCompiled(Impl);
    return E.DirectCode ? E.DirectCode : T->Slots[Impl.VSlot];
  }
  case ImtEntry::Kind::TibOffset:
    // Mutable-class slot: one extra load through the current TIB so the
    // dispatch honors the object's (special) TIB.
    ExtraCost += DispatchCost::ImtMutableExtraLoad;
    return resolveAndEnsure(T, E.VSlot);
  case ImtEntry::Kind::Conflict: {
    ExtraCost += DispatchCost::ImtConflictStub;
    for (const auto &[IfaceM, Slot] : E.Table)
      if (IfaceM == IfaceMethod)
        return resolveAndEnsure(T, Slot);
    DCHM_UNREACHABLE("conflict stub: method not found");
  }
  case ImtEntry::Kind::Empty:
    break;
  }
  DCHM_UNREACHABLE("interface dispatch through empty IMT slot");
}

CompiledMethod *Interpreter::resolveAndEnsure(TIB *T, uint32_t Slot) {
  CompiledMethod *CM = T->Slots[Slot];
  if (CM)
    return CM;
  // Lazy compilation: resolve the method occupying this slot for the
  // receiver's class and ask the broker; installation fills the TIBs.
  MethodInfo &Resolved = P.method(T->Cls->VTable[Slot]);
  CompiledMethod *General = CB.ensureCompiled(Resolved);
  CM = T->Slots[Slot];
  if (!CM) {
    // Installation only fills *live* TIBs. A receiver stranded on a retired
    // special TIB (partial plan retirement) still dispatches; fall back to
    // the general code the broker just produced rather than aborting.
    CM = General;
  }
  DCHM_CHECK(CM, "compile broker did not install code");
  return CM;
}

Value Interpreter::invoke(MethodId Mid, const std::vector<Value> &Args) {
  MethodInfo &M = P.method(Mid);
  DCHM_CHECK(Args.size() == M.numArgsWithReceiver(), "invoke arg count");
  CompiledMethod *CM;
  if (M.Flags.IsStatic) {
    CM = P.staticEntry(Mid);
    if (!CM)
      CM = CB.ensureCompiled(M);
  } else {
    Object *Recv = Args[0].R;
    DCHM_CHECK(Recv && Recv->Tib, "invoke on null/invalid receiver");
    if (P.cls(M.Owner).IsInterface) {
      CM = resolveInterface(Recv->Tib, M.Id);
    } else if (M.isVirtualDispatch()) {
      CM = resolveAndEnsure(Recv->Tib, M.VSlot);
    } else {
      TIB *DeclTib = P.cls(M.Owner).ClassTib;
      CM = DeclTib->Slots[M.VSlot];
      if (!CM) {
        CB.ensureCompiled(M);
        CM = DeclTib->Slots[M.VSlot];
      }
    }
  }
  Value Result = execute(CM, Args.data(), Args.size());
  if (M.Flags.IsCtor && !Args.empty())
    CB.onConstructorExit(Args[0].R, M);
  return Result;
}

Value Interpreter::execute(CompiledMethod *CM, const Value *Args,
                           size_t NumArgs) {
  if (UseThreaded)
    return executeLoopThreaded(CM, Args, NumArgs);
  return executeLoopSwitch(CM, Args, NumArgs);
}

// The shared inner-loop body, compiled once per dispatch strategy. Keeping
// the copies as separate functions (not a template over the flag) matters:
// see the header comment of InterpreterLoop.inc.
#define DCHM_LOOP_THREADED 0
#define DCHM_LOOP_NAME executeLoopSwitch
#include "exec/InterpreterLoop.inc"
#undef DCHM_LOOP_THREADED
#undef DCHM_LOOP_NAME

#if DCHM_HAVE_COMPUTED_GOTO
#define DCHM_LOOP_THREADED 1
#define DCHM_LOOP_NAME executeLoopThreaded
#include "exec/InterpreterLoop.inc"
#undef DCHM_LOOP_THREADED
#undef DCHM_LOOP_NAME
#else
// Without computed goto the constructor never selects threaded mode; keep
// the symbol defined for the header's sake.
Value Interpreter::executeLoopThreaded(CompiledMethod *CM, const Value *Args,
                                       size_t NumArgs) {
  return executeLoopSwitch(CM, Args, NumArgs);
}
#endif

} // namespace dchm
