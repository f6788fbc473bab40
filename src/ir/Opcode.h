//===-- ir/Opcode.h - MiniVM IR opcodes -----------------------*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Opcode set of the MiniVM register IR, together with the static traits the
/// optimizer and interpreter need (purity, terminator-ness, call-ness).
/// The set mirrors the subset of Java bytecode the paper's mechanisms touch:
/// field access (the mutation hooks live on PutField/PutStatic), the four
/// invoke flavors (virtual/static/special/interface map to the TIB, JTOC,
/// direct-entry, and IMT dispatch paths of Jikes), allocation, type tests,
/// and plain arithmetic/control flow.
///
/// Every per-opcode fact lives in one row of DCHM_OPCODES: the enum, the
/// mnemonics, the cycle costs, the purity set, the typed families the
/// verifier, builder and assembler read, and the opcode section of the
/// interpreter's label table are all expanded from it.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_IR_OPCODE_H
#define DCHM_IR_OPCODE_H

#include "ir/Type.h"

#include <cstdint>
#include <optional>
#include <string_view>

namespace dchm {

/// Opcode families. Binop and Compare compute Dst = A op B, Unop computes
/// Dst = op A, all three with the table's result and operand types (both
/// operands of a binop or compare have the operand type). Every Other
/// opcode has hand-written operand rules.
enum class OpFamily : uint8_t { Binop, Compare, Unop, Other };

/// The opcode table, one row per opcode in enum order:
///   X(Name, Mnemonic, Cycles, Family, Result, Operand, RemovableWhenDead)
/// Cycles is the simulated execution cost, dispatch overheads excluded
/// (runtime/CostModel.h). Result and Operand are Void outside the typed
/// families. RemovableWhenDead: no side effect and no trap, so a dead
/// result may be deleted. Div, Rem, GetField, ALoad and ALen can trap
/// (division by zero, a null base, an index out of bounds), and a trap must
/// happen whether or not its value is used: otherwise a specialized body,
/// whose use of the value was folded away, would run past a fault the
/// general body stops at. DCE still deletes a dead GetField off the
/// receiver of an instance method, which the call has already null-checked
/// (IRFunction::HasReceiver).
// clang-format off
#define DCHM_OPCODES(X)                                                        \
  /* Constants and moves. ConstI: Dst = Imm (i64); ConstF: Dst = FImm (f64);*/ \
  /* ConstNull: Dst = null (ref); Move: Dst = A (type in Ty). */               \
  X(ConstI,        "consti",        1,  Other,   Void, Void, true)             \
  X(ConstF,        "constf",        1,  Other,   Void, Void, true)             \
  X(ConstNull,     "constnull",     1,  Other,   Void, Void, true)             \
  X(Move,          "move",          1,  Other,   Void, Void, true)             \
  /* Integer arithmetic. Div traps (VM error) on division by zero. */          \
  X(Add,           "add",           1,  Binop,   I64,  I64,  true)             \
  X(Sub,           "sub",           1,  Binop,   I64,  I64,  true)             \
  X(Mul,           "mul",           3,  Binop,   I64,  I64,  true)             \
  X(Div,           "div",           20, Binop,   I64,  I64,  false)            \
  X(Rem,           "rem",           20, Binop,   I64,  I64,  false)            \
  X(And,           "and",           1,  Binop,   I64,  I64,  true)             \
  X(Or,            "or",            1,  Binop,   I64,  I64,  true)             \
  X(Xor,           "xor",           1,  Binop,   I64,  I64,  true)             \
  X(Shl,           "shl",           1,  Binop,   I64,  I64,  true)             \
  X(Shr,           "shr",           1,  Binop,   I64,  I64,  true)             \
  X(Neg,           "neg",           1,  Unop,    I64,  I64,  true)             \
  /* Floating-point arithmetic. */                                             \
  X(FAdd,          "fadd",          2,  Binop,   F64,  F64,  true)             \
  X(FSub,          "fsub",          2,  Binop,   F64,  F64,  true)             \
  X(FMul,          "fmul",          4,  Binop,   F64,  F64,  true)             \
  X(FDiv,          "fdiv",          20, Binop,   F64,  F64,  true)             \
  X(FNeg,          "fneg",          2,  Unop,    F64,  F64,  true)             \
  /* Integer comparisons producing 0/1 in an i64 register. */                  \
  X(CmpEQ,         "cmpeq",         1,  Compare, I64,  I64,  true)             \
  X(CmpNE,         "cmpne",         1,  Compare, I64,  I64,  true)             \
  X(CmpLT,         "cmplt",         1,  Compare, I64,  I64,  true)             \
  X(CmpLE,         "cmple",         1,  Compare, I64,  I64,  true)             \
  X(CmpGT,         "cmpgt",         1,  Compare, I64,  I64,  true)             \
  X(CmpGE,         "cmpge",         1,  Compare, I64,  I64,  true)             \
  /* Floating-point comparisons producing 0/1. */                              \
  X(FCmpEQ,        "fcmpeq",        1,  Compare, I64,  F64,  true)             \
  X(FCmpLT,        "fcmplt",        1,  Compare, I64,  F64,  true)             \
  X(FCmpLE,        "fcmple",        1,  Compare, I64,  F64,  true)             \
  /* Conversions. I2F: Dst = (double)A. F2I: Dst = (int64)A, truncating; */    \
  /* saturates, NaN -> 0. */                                                   \
  X(I2F,           "i2f",           2,  Unop,    F64,  I64,  true)             \
  X(F2I,           "f2i",           2,  Unop,    I64,  F64,  true)             \
  /* Control flow. Branch targets are instruction indices in Imm. */           \
  /* Br: goto Imm; Cbnz/Cbz: if (A != 0) / (A == 0) goto Imm; */               \
  /* Ret: return A (A == NoReg for void). */                                   \
  X(Br,            "br",            1,  Other,   Void, Void, false)            \
  X(Cbnz,          "cbnz",          1,  Other,   Void, Void, false)            \
  X(Cbz,           "cbz",           1,  Other,   Void, Void, false)            \
  X(Ret,           "ret",           2,  Other,   Void, Void, false)            \
  /* Object and array operations. New: Dst = new instance of class Imm; */     \
  /* NewArray: Dst = new array of element type Ty, length A; */                \
  /* ALoad: Dst = A[B]; AStore: A[B] = C (element type in Ty); */              \
  /* ALen: Dst = A.length. */                                                  \
  /* allocation path: size lookup, bump, zeroing amortized */                  \
  X(New,           "new",           40, Other,   Void, Void, false)            \
  X(NewArray,      "newarray",      40, Other,   Void, Void, false)            \
  /* ALoad/AStore: includes bounds check */                                    \
  X(ALoad,         "aload",         2,  Other,   Void, Void, false)            \
  X(AStore,        "astore",        2,  Other,   Void, Void, false)            \
  X(ALen,          "alen",          1,  Other,   Void, Void, false)            \
  /* Field access. Imm = FieldId; Aux = resolved slot (filled by the */        \
  /* linker). GetField: Dst = A.field(Imm); PutField: A.field(Imm) = B; */     \
  /* GetStatic: Dst = static field Imm; PutStatic: static field Imm = A. */    \
  /* PutField/PutStatic are the mutation hooks (algorithm part I). */          \
  X(GetField,      "getfield",      2,  Other,   Void, Void, false)            \
  X(PutField,      "putfield",      2,  Other,   Void, Void, false)            \
  X(GetStatic,     "getstatic",     2,  Other,   Void, Void, true)             \
  X(PutStatic,     "putstatic",     2,  Other,   Void, Void, false)            \
  /* Calls. Imm = MethodId; Args holds the argument registers (receiver */     \
  /* first for instance calls). Aux = resolved vtable/IMT slot after */        \
  /* linking. CallStatic dispatches through the JTOC entry, CallVirtual */     \
  /* through the receiver's TIB (object TIB pointer), CallSpecial binds */     \
  /* statically via the declaring class (ctor/private/super), */               \
  /* CallInterface dispatches through the IMT. Cycles 0: charged via the */    \
  /* dispatch costs (DispatchCost). */                                         \
  X(CallStatic,    "callstatic",    0,  Other,   Void, Void, false)            \
  X(CallVirtual,   "callvirtual",   0,  Other,   Void, Void, false)            \
  X(CallSpecial,   "callspecial",   0,  Other,   Void, Void, false)            \
  X(CallInterface, "callinterface", 0,  Other,   Void, Void, false)            \
  /* Type tests against class Imm, via the TIB type-information entry. */      \
  /* InstanceOf: Dst = (A instanceof class Imm) ? 1 : 0. CheckCast traps */    \
  /* unless A is null or an instance of class Imm. ClassEq: Dst = (A's */      \
  /* exact class == class Imm) ? 1 : 0; emitted by the guarded inliner */      \
  /* (Jikes' class-test guard); `.mvm` spells it so such bodies print.  */     \
  X(InstanceOf,    "instanceof",    4,  Other,   Void, Void, true)             \
  X(CheckCast,     "checkcast",     4,  Other,   Void, Void, false)            \
  /* ClassEq: TIB load + id compare (the guard of a guarded inline) */         \
  X(ClassEq,       "classeq",       2,  Other,   Void, Void, true)             \
  /* Program output (models System.out): appends to the VM output stream. */   \
  /* Aux == 0 prints the number, Aux == 1 prints A as a character. */          \
  X(Print,         "print",         10, Other,   Void, Void, false)
// clang-format on

/// Opcodes of the MiniVM register IR.
enum class Opcode : uint8_t {
#define DCHM_X(Name, ...) Name,
  DCHM_OPCODES(DCHM_X)
#undef DCHM_X
};

/// One row of the opcode table.
struct OpcodeInfo {
  const char *Mnemonic;
  uint8_t Cycles;
  OpFamily Family;
  Type Result;
  Type Operand;
  bool RemovableWhenDead;
};

/// The opcode table, indexed by opcode.
inline constexpr OpcodeInfo OpcodeInfos[] = {
#define DCHM_X(Name, Mn, Cycles, Fam, Res, Opnd, Removable)                    \
  {Mn, Cycles, OpFamily::Fam, Type::Res, Type::Opnd, Removable},
    DCHM_OPCODES(DCHM_X)
#undef DCHM_X
};

/// Total number of opcodes (for cost tables).
constexpr unsigned NumOpcodes = sizeof(OpcodeInfos) / sizeof(OpcodeInfos[0]);

inline const OpcodeInfo &opcodeInfo(Opcode Op) {
  return OpcodeInfos[static_cast<unsigned>(Op)];
}

/// Mnemonic for an opcode.
inline const char *opcodeName(Opcode Op) { return opcodeInfo(Op).Mnemonic; }

/// The opcode spelled Mnemonic, if any.
std::optional<Opcode> opcodeFromMnemonic(std::string_view Mnemonic);

/// True for instructions that end or redirect control flow.
inline bool isTerminator(Opcode Op) {
  return Op == Opcode::Br || Op == Opcode::Ret;
}

/// True for conditional or unconditional branches (have a target in Imm).
inline bool isBranch(Opcode Op) {
  return Op == Opcode::Br || Op == Opcode::Cbnz || Op == Opcode::Cbz;
}

/// True for the four invoke flavors.
inline bool isCall(Opcode Op) {
  return Op == Opcode::CallStatic || Op == Opcode::CallVirtual ||
         Op == Opcode::CallSpecial || Op == Opcode::CallInterface;
}

/// True if the instruction has no side effect and its result may be removed
/// when dead (the table's purity column).
inline bool isRemovableWhenDead(Opcode Op) {
  return opcodeInfo(Op).RemovableWhenDead;
}

} // namespace dchm

#endif // DCHM_IR_OPCODE_H
