//===-- exec/Interpreter.cpp - Costed IR interpreter --------------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
// The inner loop, executeLoop, dispatches with computed goto on the entry
// each instruction of a compiled body carries (runtime/DecodedBody.h): one
// indirect branch per handler, fused groups decided once per compiled body
// and charged on dispatch. Each entry names a handler for one instruction
// or for a fused group of two or three, and carries the group's
// instruction count and summed cycles. No member of a group can trap or
// return and only the last may branch, so a group that starts runs all of
// its members and charging it up front is exact by construction; every
// instruction has its own entry, so a branch into the middle of a group
// lands on that instruction's. Decoding checked once that the body ends in
// Br/Ret and that every branch target is in range, so the loop has no
// per-dispatch bound check. A guest call pushes a frame and jumps back to
// the loop's entry, and Ret pops it and resumes the caller, so one host
// activation of executeLoop runs a whole invoke(). See docs/dispatch.md.
//
//===----------------------------------------------------------------------===//

#include "exec/Interpreter.h"

#include "compiler/Eval.h"
#include "runtime/CostModel.h"
#include "runtime/DecodedBody.h"
#include "support/Debug.h"

#include <algorithm>
#include <cstdio>

namespace dchm {

Interpreter::Interpreter(Program &P, Heap &H, VMCallbacks &CB, unsigned Ctx)
    : P(P), H(H), CB(CB), Ctx(Ctx) {}

void Interpreter::setProfiling(bool On) {
  Profiling = On;
  if (On)
    MethodCycles.assign(P.numMethods(), 0);
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
  for (const Frame &F : Frames) {
    const auto &Types = F.CM->code().RegTypes;
    const Value *Regs = RegArena.data() + F.RegBase;
    for (size_t R = 0; R < Types.size(); ++R)
      if (Types[R] == Type::Ref && Regs[R].R)
        Roots.push_back(Regs[R].R);
  }
}

void Interpreter::collectActiveCtorReceivers(std::vector<Object *> &Out) const {
  for (const Frame &F : Frames) {
    if (!F.CM->method().Flags.IsCtor || F.CM->code().RegTypes.empty())
      continue;
    const Value *Regs = RegArena.data() + F.RegBase;
    if (Regs[0].R)
      Out.push_back(Regs[0].R);
  }
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
  CB.ensureCompiled(P.method(T->Cls->VTable[Slot]));
  CM = T->Slots[Slot];
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
    TIB *RecvTib = Recv ? Recv->tib() : nullptr;
    DCHM_CHECK(RecvTib, "invoke on null/invalid receiver");
    if (P.cls(M.Owner).IsInterface) {
      uint64_t Uncharged = 0; // a host call pays no dispatch cost
      CM = resolveInterfaceSite(RecvTib, Mid % NumImtSlots, Mid, Uncharged);
    } else if (M.isVirtualDispatch()) {
      CM = resolveAndEnsure(RecvTib, M.VSlot);
    } else {
      TIB *DeclTib = P.cls(M.Owner).ClassTib;
      CM = DeclTib->Slots[M.VSlot];
      if (!CM) {
        CB.ensureCompiled(M);
        CM = DeclTib->Slots[M.VSlot];
      }
    }
  }
  std::copy(Args.begin(), Args.end(),
            pushFrame(CM, Args.size(), nullptr, 0));
  return executeLoop();
}

// Forced inline: GCC's estimate puts the loop's call path among its cold
// blocks and would leave every guest call an out-of-line host call.
[[gnu::always_inline]] inline Value *
Interpreter::pushFrame(CompiledMethod *CM, size_t NumArgs,
                       const Instruction *RetIp, uint64_t RetC) {
  // Consistency-audit checkpoint at the invocation boundary: dispatch
  // structures are quiescent here. The hook is read-only
  // (runtime/AuditHook.h), so audited and unaudited runs stay bit-identical
  // in simulated state.
  if (Audit)
    Audit->onSafepoint();
  const IRFunction &Fn = CM->code();
  if (Frames.size() >= MaxFrames)
    reportFatalErrorf("VM stack overflow invoking '%s': frame depth %zu "
                      "reached the MaxFrames limit (%zu)",
                      Fn.Name.c_str(), Frames.size(), MaxFrames);
  DCHM_CHECK(NumArgs == Fn.NumArgs, "execute arg count mismatch");
  // Carve the frame's register window out of the contiguous arena, which
  // grows on demand and so may move: the loop takes its register pointer
  // from each push and re-derives it from RegBase on each return.
  const size_t NumRegs = Fn.RegTypes.size();
  if (ArenaTop + NumRegs > RegArena.size())
    RegArena.resize(std::max(RegArena.size() * 2, ArenaTop + NumRegs));
  Frames.push_back({CM, ArenaTop, RetIp, RetC});
  Value *R = RegArena.data() + ArenaTop;
  ArenaTop += NumRegs;
  std::fill_n(R + NumArgs, NumRegs - NumArgs, zeroValue());
  return R;
}

/// Charges the group at Ip and jumps to its handler.
#define VM_DISPATCH()                                                          \
  do {                                                                         \
    NInsts += Ip->Count;                                                       \
    C += Ip->Cycles;                                                           \
    goto *JumpTab[Ip->Handler];                                                \
  } while (0)

/// Advances past a group of K instructions and dispatches the next entry.
#define VM_SKIP(K)                                                             \
  do {                                                                         \
    Ip += (K);                                                                 \
    VM_DISPATCH();                                                             \
  } while (0)

#define VM_NEXT() VM_SKIP(1)

/// Takes the branch instruction BI: a target at or before BI is a back
/// edge. Decoding guaranteed the target is inside the body.
#define VM_BRANCH(BI)                                                          \
  do {                                                                         \
    const size_t Tgt_ = static_cast<size_t>((BI).Imm);                         \
    if (Insts + Tgt_ <= &(BI))                                                 \
      NoteBackedge();                                                          \
    Ip = Insts + Tgt_;                                                         \
    VM_DISPATCH();                                                             \
  } while (0)

// Crossjumping and global CSE would merge the replicated indirect branches
// back into one dispatch site, forfeiting the per-handler branch prediction
// that threaded dispatch exists to buy (the GCC manual makes the same
// recommendation for computed-goto interpreters).
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("no-crossjumping", "no-gcse")))
#endif
Value Interpreter::executeLoop() {
  // The running frame's method, body and registers, set on every call and
  // return. No lambda captures R: a by-reference capture would keep it, and
  // so every handler's register access, in memory.
  MethodInfo *M = nullptr;
  const Instruction *Insts = nullptr, *Ip = nullptr;
  Value *R = RegArena.data() + Frames.back().RegBase;
  uint64_t C = 0;      // the running frame's cycles, flushed on its return
  uint64_t NInsts = 0; // instructions of every frame, flushed on exit
  // The body being entered: the frame invoke() pushed, then each callee.
  CompiledMethod *Target = Frames.back().CM;

  /// A method at the top of the ladder takes no hotness sample when every
  /// event counts (see setSkipTopTierSamples()): nothing reads its count
  /// again, so skipping the shared counter is bit-identical. The level is
  /// re-read per event because a back edge may promote mid-invocation.
  auto TakesSample = [&] {
    return !SkipTopTierSamples ||
           M->CurOptLevel.load(std::memory_order_relaxed) < TopOptLevel;
  };

  /// Hotness sample on a loop back edge. A top-tier method takes none, which
  /// keeps both the callback chain and the shared counter off the
  /// interpreter's hottest edge.
  auto NoteBackedge = [&] {
    // Multi-mutator rendezvous poll: backedges are where a loop-bound
    // mutator reaches its safepoint. One relaxed load when a slot is set.
    if (Sp)
      Sp->poll();
    if (TakesSample())
      CB.onBackedge(*M);
  };

  // Label-address table in HandlerId order: first one handler per opcode,
  // expanded from the opcode table (every binop and compare has its own
  // handler; the unop family's four labels sit on one), then one per fused
  // group.
  static const void *const JumpTab[] = {
#define DCHM_X(Name, ...) &&L_##Name,
      DCHM_OPCODES(DCHM_X)
#undef DCHM_X
#define DCHM_X(OP) &&L_ConstI_##OP,
      DCHM_CONST_ARITH_OPS(DCHM_X)
#undef DCHM_X
#define DCHM_X(OP) &&L_##OP##_Move,
      DCHM_FUSED_BINOPS(DCHM_X)
#undef DCHM_X
#define DCHM_X(OP) &&L_##OP##_Move_Br,
      DCHM_FUSED_BINOPS(DCHM_X)
#undef DCHM_X
#define DCHM_X(OP) &&L_##OP##_Cbnz,
      DCHM_BRANCH_CMPS(DCHM_X)
#undef DCHM_X
#define DCHM_X(OP) &&L_##OP##_Cbz,
      DCHM_BRANCH_CMPS(DCHM_X)
#undef DCHM_X
  };
  static_assert(sizeof(JumpTab) / sizeof(JumpTab[0]) ==
                    static_cast<unsigned>(HandlerId::NumHandlers),
                "jump table out of sync with HandlerId");

  // Entry to Target, whose frame was just pushed with its arguments copied
  // into R.
enter:
  M = &Target->method();
  Ip = Insts = Target->code().Insts.data();
  C = 0;
  Stats.Invocations++;
  if (TakesSample())
    CB.onMethodEntry(*M);
  // Multi-mutator rendezvous poll at the invocation boundary. It sits
  // *after* the frame push and argument copy — a parked thread's arguments
  // are then rooted through its frame registers, so a leader's GC closure
  // cannot sweep them. Null slot (single-mutator mode) costs one
  // predictable branch.
  if (Sp)
    Sp->poll();
  VM_DISPATCH();

L_ConstI: {
  R[Ip->Dst] = valueI(Ip->Imm);
  VM_NEXT();
}
L_ConstF: {
  R[Ip->Dst] = valueF(Ip->FImm);
  VM_NEXT();
}
L_ConstNull: {
  R[Ip->Dst] = valueR(nullptr);
  VM_NEXT();
}
L_Move: {
  R[Ip->Dst] = R[Ip->A];
  VM_NEXT();
}
// One handler per binop and compare opcode, and one per fused group
// (runtime/DecodedBody.h). Each evaluates with a constant opcode, so
// evalBinop's switch folds to the one operation, and ends in its own
// dispatch branch. Handlers read the operands of the instructions of their
// group (Ip[1], Ip[2]) but never inspect them to choose a path: decoding
// chose the handler. The group was charged on dispatch, and no member of it
// can trap or return, so every member runs.

// ConstI + an integer binop, which need not read the constant.
#define DCHM_CONST_ARITH_HANDLERS(OP)                                          \
  L_ConstI_##OP : {                                                            \
    R[Ip->Dst] = valueI(Ip->Imm);                                              \
    R[Ip[1].Dst] = evalBinop(Opcode::OP, R[Ip[1].A], R[Ip[1].B]);              \
    VM_SKIP(2);                                                                \
  }

// A binop alone; + Move of its result (the FunctionBuilder loop-variable
// idiom `move(X, binop(...))`); + Move + Br (closing the loop).
#define DCHM_BINOP_HANDLERS(OP)                                                \
  L_##OP : {                                                                   \
    R[Ip->Dst] = evalBinop(Opcode::OP, R[Ip->A], R[Ip->B]);                    \
    VM_NEXT();                                                                 \
  }                                                                            \
  L_##OP##_Move : {                                                            \
    Value V = evalBinop(Opcode::OP, R[Ip->A], R[Ip->B]);                       \
    R[Ip->Dst] = V;                                                            \
    R[Ip[1].Dst] = V;                                                          \
    VM_SKIP(2);                                                                \
  }                                                                            \
  L_##OP##_Move_Br : {                                                         \
    Value V = evalBinop(Opcode::OP, R[Ip->A], R[Ip->B]);                       \
    R[Ip->Dst] = V;                                                            \
    R[Ip[1].Dst] = V;                                                          \
    VM_BRANCH(Ip[2]);                                                          \
  }

// An integer compare alone, or + a conditional branch on its result (the
// dominant pair of every counted loop). The register is still written, so
// later reads of the compare result stay correct.
#define DCHM_INTCMP_HANDLERS(OP)                                               \
  L_##OP : {                                                                   \
    R[Ip->Dst] = evalBinop(Opcode::OP, R[Ip->A], R[Ip->B]);                    \
    VM_NEXT();                                                                 \
  }                                                                            \
  L_##OP##_Cbnz : {                                                            \
    Value V = evalBinop(Opcode::OP, R[Ip->A], R[Ip->B]);                       \
    R[Ip->Dst] = V;                                                            \
    if (V.I != 0)                                                              \
      VM_BRANCH(Ip[1]);                                                        \
    VM_SKIP(2);                                                                \
  }                                                                            \
  L_##OP##_Cbz : {                                                             \
    Value V = evalBinop(Opcode::OP, R[Ip->A], R[Ip->B]);                       \
    R[Ip->Dst] = V;                                                            \
    if (V.I == 0)                                                              \
      VM_BRANCH(Ip[1]);                                                        \
    VM_SKIP(2);                                                                \
  }

DCHM_CONST_ARITH_OPS(DCHM_CONST_ARITH_HANDLERS)
DCHM_FUSED_BINOPS(DCHM_BINOP_HANDLERS)
DCHM_BRANCH_CMPS(DCHM_INTCMP_HANDLERS)
#undef DCHM_CONST_ARITH_HANDLERS
#undef DCHM_BINOP_HANDLERS
#undef DCHM_INTCMP_HANDLERS

// Div and Rem trap on a zero divisor, so they never join a group.
L_Div: {
  R[Ip->Dst] = evalBinop(Opcode::Div, R[Ip->A], R[Ip->B]);
  VM_NEXT();
}
L_Rem: {
  R[Ip->Dst] = evalBinop(Opcode::Rem, R[Ip->A], R[Ip->B]);
  VM_NEXT();
}
L_Neg:
L_FNeg:
L_I2F:
L_F2I: {
  R[Ip->Dst] = evalUnop(Ip->Op, R[Ip->A]);
  VM_NEXT();
}

L_Br: {
  VM_BRANCH(*Ip);
}
L_Cbnz: {
  if (R[Ip->A].I != 0)
    VM_BRANCH(*Ip);
  VM_NEXT();
}
L_Cbz: {
  if (R[Ip->A].I == 0)
    VM_BRANCH(*Ip);
  VM_NEXT();
}
L_Ret: {
  const Value RV = Ip->A != NoReg ? R[Ip->A] : zeroValue();
  Stats.Cycles += C;
  if (Profiling)
    MethodCycles[M->Id] += C;
  MethodInfo &Callee = *M;
  // Argument registers are never written, so R[0] is still the receiver.
  Object *Recv = Callee.Flags.IsCtor ? R[0].R : nullptr;
  const Frame F = Frames.back();
  Frames.pop_back();
  ArenaTop = F.RegBase;
  // "At the end of the constructors for a mutable class" (Figure 4): the
  // ctor-exit trigger of the distributed mutation algorithm.
  if (Callee.Flags.IsCtor)
    CB.onConstructorExit(Recv, Callee);
  if (!F.RetIp) { // the frame invoke() pushed
    Stats.Insts += NInsts;
    return RV;
  }
  const Frame &Top = Frames.back();
  M = &Top.CM->method();
  Insts = Top.CM->code().Insts.data();
  R = RegArena.data() + Top.RegBase;
  Ip = F.RetIp;
  C = F.RetC;
  if (Ip->Dst != NoReg)
    R[Ip->Dst] = RV;
  VM_NEXT();
}

L_New: {
  ClassInfo &Cls = P.cls(static_cast<ClassId>(Ip->Imm));
  R[Ip->Dst] = valueR(H.allocateInstance(Cls, Cls.ClassTib, Ctx));
  VM_NEXT();
}
L_NewArray: {
  R[Ip->Dst] = valueR(H.allocateArray(Ip->Ty, R[Ip->A].I, Ctx));
  VM_NEXT();
}
L_ALoad: {
  Object *Arr = R[Ip->A].R;
  DCHM_CHECK(Arr && Arr->isArray(), "aload on non-array");
  int64_t Idx = R[Ip->B].I;
  DCHM_CHECK(Idx >= 0 && Idx < Arr->length(), "array index out of bounds");
  R[Ip->Dst] = Arr->get(static_cast<uint32_t>(Idx));
  VM_NEXT();
}
L_AStore: {
  Object *Arr = R[Ip->A].R;
  DCHM_CHECK(Arr && Arr->isArray(), "astore on non-array");
  int64_t Idx = R[Ip->B].I;
  DCHM_CHECK(Idx >= 0 && Idx < Arr->length(), "array index out of bounds");
  Arr->set(static_cast<uint32_t>(Idx), R[Ip->C]);
  VM_NEXT();
}
L_ALen: {
  Object *Arr = R[Ip->A].R;
  DCHM_CHECK(Arr && Arr->isArray(), "alen on non-array");
  R[Ip->Dst] = valueI(Arr->length());
  VM_NEXT();
}

L_GetField: {
  Object *O = R[Ip->A].R;
  DCHM_CHECK(O, "null pointer in getfield");
  R[Ip->Dst] = O->get(Ip->Aux);
  VM_NEXT();
}
L_PutField: {
  Object *O = R[Ip->A].R;
  DCHM_CHECK(O, "null pointer in putfield");
  O->set(Ip->Aux, R[Ip->B]);
  FieldInfo &Fld = P.field(static_cast<FieldId>(Ip->Imm));
  if (Fld.IsStateField) {
    // Patch code inserted at state-field assignments (algorithm part I).
    // Stores a constructor makes to its own object are deferred to the
    // constructor-exit action (Figure 4 patches "assignments in a
    // non-constructor method" plus the end of constructors).
    bool DuringCtor = M->Flags.IsCtor && O == R[0].R;
    if (!DuringCtor) {
      C += DispatchCost::StateFieldPatchBase;
      Stats.StatePatchHits++;
    }
    CB.onInstanceStateStore(O, Fld, DuringCtor);
  } else if (Fld.IsObserved) {
    // Value profiling only: reported like a state store, charged nothing.
    CB.onInstanceStateStore(O, Fld, M->Flags.IsCtor && O == R[0].R);
  }
  VM_NEXT();
}
L_GetStatic: {
  R[Ip->Dst] = P.getStaticSlot(Ip->Aux);
  VM_NEXT();
}
L_PutStatic: {
  P.setStaticSlot(Ip->Aux, R[Ip->A]);
  FieldInfo &Fld = P.field(static_cast<FieldId>(Ip->Imm));
  if (Fld.IsStateField) {
    C += DispatchCost::StateFieldPatchBase;
    Stats.StatePatchHits++;
    CB.onStaticStateStore(Fld);
  } else if (Fld.IsObserved) {
    CB.onStaticStateStore(Fld);
  }
  VM_NEXT();
}

L_CallStatic: {
  C += DispatchCost::StaticCall;
  MethodInfo &Callee = P.method(static_cast<MethodId>(Ip->Imm));
  Target = P.staticEntry(Callee.Id);
  if (!Target)
    Target = CB.ensureCompiled(Callee);
  goto call;
}
L_CallVirtual: {
  C += DispatchCost::VirtualCall;
  Stats.VirtualCalls++;
  Object *Recv = R[Ip->Args[0]].R;
  TIB *RecvTib = Recv ? Recv->tib() : nullptr;
  DCHM_CHECK(RecvTib, "null receiver in callvirtual");
  Target = RecvTib->Slots[Ip->Aux];
  if (!Target)
    Target = resolveAndEnsure(RecvTib, Ip->Aux);
  goto call;
}
L_CallSpecial: {
  // Static binding through the *declaring class* TIB (invokespecial):
  // object state never affects this dispatch, but a static-only mutable
  // class may have specialized its class TIB entry itself.
  C += DispatchCost::SpecialCall;
  DCHM_CHECK(R[Ip->Args[0]].R, "null receiver in callspecial");
  MethodInfo &Callee = P.method(static_cast<MethodId>(Ip->Imm));
  TIB *DeclTib = P.cls(Callee.Owner).ClassTib;
  Target = DeclTib->Slots[Ip->Aux];
  if (!Target) {
    CB.ensureCompiled(Callee);
    Target = DeclTib->Slots[Ip->Aux];
    DCHM_CHECK(Target, "compile broker did not install code");
  }
  goto call;
}
L_CallInterface: {
  C += DispatchCost::InterfaceCall;
  Stats.InterfaceCalls++;
  Object *Recv = R[Ip->Args[0]].R;
  TIB *RecvTib = Recv ? Recv->tib() : nullptr;
  DCHM_CHECK(RecvTib, "null receiver in callinterface");
  uint64_t Extra = 0;
  Target = resolveInterfaceSite(
      RecvTib, Ip->Aux, static_cast<MethodId>(Ip->Imm), Extra);
  C += Extra;
  DCHM_CHECK(Target, "interface dispatch found no code");
  goto call;
}

L_InstanceOf: {
  // Type test via the TIB's type-information entry, never TIB identity
  // (special TIBs share the class's type info; paper section 3.2.3).
  Object *O = R[Ip->A].R;
  bool Is = O && !O->isArray() &&
            P.isSubtype(O->tib()->Cls->Id, static_cast<ClassId>(Ip->Imm));
  R[Ip->Dst] = valueI(Is);
  VM_NEXT();
}
L_CheckCast: {
  Object *O = R[Ip->A].R;
  if (O) {
    DCHM_CHECK(!O->isArray(), "checkcast on array");
    DCHM_CHECK(P.isSubtype(O->tib()->Cls->Id, static_cast<ClassId>(Ip->Imm)),
               "ClassCastException");
  }
  VM_NEXT();
}

L_Print: {
  printValue(*Ip, R[Ip->A]);
  VM_NEXT();
}

// Every call: arguments go straight from the caller's register window into
// the callee's. The push may grow (and so move) the arena, so the caller's
// window is found again by its offset.
call: {
  const size_t CallerBase = static_cast<size_t>(R - RegArena.data());
  const size_t NumArgs = Ip->Args.size();
  Value *Callee = pushFrame(Target, NumArgs, Ip, C);
  const Value *Caller = RegArena.data() + CallerBase;
  for (size_t A = 0; A < NumArgs; ++A)
    Callee[A] = Caller[Ip->Args[A]];
  R = Callee;
  goto enter;
}
}

#undef VM_DISPATCH
#undef VM_NEXT
#undef VM_BRANCH
#undef VM_SKIP

} // namespace dchm
