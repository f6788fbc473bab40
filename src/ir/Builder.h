//===-- ir/Builder.h - IR function builder --------------------*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// FunctionBuilder is the C++ API for authoring MiniVM "bytecode": the
/// assembler (asm/Assembler.h) and the tests express method bodies through
/// it. It is a linear emitter with forward-referencable labels; finalize()
/// patches branch targets and hands back an IRFunction.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_IR_BUILDER_H
#define DCHM_IR_BUILDER_H

#include "ir/Function.h"
#include "ir/Ids.h"

#include <initializer_list>
#include <string>
#include <vector>

namespace dchm {

/// Incremental builder for one IRFunction.
class FunctionBuilder {
public:
  /// Branch label handle; create with makeLabel(), place with bind().
  using Label = uint32_t;

  FunctionBuilder(std::string Name, Type RetTy);

  /// Declares the next argument register. All arguments must be declared
  /// before any instruction is emitted. Returns the argument's register.
  Reg addArg(Type Ty);

  /// Allocates a fresh (non-argument) register of the given type.
  Reg newReg(Type Ty);

  // --- Labels -------------------------------------------------------------
  Label makeLabel();
  /// Binds a label to the position of the next emitted instruction.
  void bind(Label L);

  // --- Constants and moves -------------------------------------------------
  Reg constI(int64_t V);
  Reg constF(double V);
  Reg constNull();
  void move(Reg Dst, Reg Src);

  // --- Arithmetic / logic ---------------------------------------------------
  /// Binop or compare by opcode; the result type is the opcode table's.
  Reg arith(Opcode Op, Reg A, Reg B);
  Reg add(Reg A, Reg B) { return arith(Opcode::Add, A, B); }
  Reg sub(Reg A, Reg B) { return arith(Opcode::Sub, A, B); }
  Reg mul(Reg A, Reg B) { return arith(Opcode::Mul, A, B); }
  Reg div(Reg A, Reg B) { return arith(Opcode::Div, A, B); }
  Reg rem(Reg A, Reg B) { return arith(Opcode::Rem, A, B); }
  Reg xorI(Reg A, Reg B) { return arith(Opcode::Xor, A, B); }
  Reg fmul(Reg A, Reg B) { return arith(Opcode::FMul, A, B); }
  /// Unop by opcode; the result type is the opcode table's.
  Reg unop(Opcode Op, Reg A);
  Reg neg(Reg A) { return unop(Opcode::Neg, A); }
  Reg i2f(Reg A) { return unop(Opcode::I2F, A); }
  Reg f2i(Reg A) { return unop(Opcode::F2I, A); }

  /// Comparison producing 0/1; Op must be one of the Cmp*/FCmp* opcodes.
  Reg cmp(Opcode Op, Reg A, Reg B) { return arith(Op, A, B); }

  // --- Control flow ---------------------------------------------------------
  void br(Label L);
  void cbnz(Reg Cond, Label L);
  void cbz(Reg Cond, Label L);
  void ret(Reg V);
  void retVoid();

  // --- Objects, arrays, fields ----------------------------------------------
  Reg newObject(ClassId Cls);
  Reg newArray(Type ElemTy, Reg Len);
  Reg aload(Type ElemTy, Reg Arr, Reg Idx);
  void astore(Type ElemTy, Reg Arr, Reg Idx, Reg Val);
  Reg alen(Reg Arr);
  Reg getField(Reg Obj, FieldId F, Type Ty);
  void putField(Reg Obj, FieldId F, Reg Val);
  Reg getStatic(FieldId F, Type Ty);
  void putStatic(FieldId F, Reg Val);
  Reg instanceOf(Reg Obj, ClassId Cls);
  void checkCast(Reg Obj, ClassId Cls);
  /// 1 when Obj's exact class is Cls, else 0 (the guarded inliner's guard).
  Reg classEq(Reg Obj, ClassId Cls);

  // --- Calls ------------------------------------------------------------
  /// Emit a call; RetTy types the destination register (NoReg result for
  /// void). For instance calls the receiver is Args[0].
  Reg call(Opcode Kind, MethodId M, std::initializer_list<Reg> Args,
           Type RetTy);
  Reg call(Opcode Kind, MethodId M, const std::vector<Reg> &Args, Type RetTy);
  Reg callStatic(MethodId M, std::initializer_list<Reg> Args, Type RetTy) {
    return call(Opcode::CallStatic, M, Args, RetTy);
  }
  Reg callVirtual(MethodId M, std::initializer_list<Reg> Args, Type RetTy) {
    return call(Opcode::CallVirtual, M, Args, RetTy);
  }
  Reg callSpecial(MethodId M, std::initializer_list<Reg> Args, Type RetTy) {
    return call(Opcode::CallSpecial, M, Args, RetTy);
  }
  Reg callInterface(MethodId M, std::initializer_list<Reg> Args, Type RetTy) {
    return call(Opcode::CallInterface, M, Args, RetTy);
  }

  /// Marks the call just emitted as never to be inlined (the guarded
  /// inliner's slow path).
  void setNoInline();

  // --- Output -----------------------------------------------------------
  void printNum(Reg V, Type Ty); ///< Append number to the VM output stream.
  void printChar(Reg V);         ///< Append (char)V to the VM output stream.

  /// Makes the instruction just emitted write Dst in place of the fresh
  /// register it allocated, and releases that register. Returns false,
  /// changing nothing, when the instruction allocated no register or its
  /// type differs from Dst's.
  bool writeInto(Reg Dst);

  /// Number of instructions emitted so far.
  size_t size() const { return F.Insts.size(); }

  /// Declared type of an allocated register.
  Type regType(Reg R) const { return F.RegTypes.at(R); }

  /// Declared return type of the function under construction.
  Type retTy() const { return F.RetTy; }

  /// Patches labels and returns the finished function. The builder must not
  /// be used afterwards. All labels must be bound and the last instruction
  /// must be a terminator.
  IRFunction finalize();

private:
  Instruction &emit(Opcode Op);
  void useLabel(Label L, size_t InstIdx);

  IRFunction F;
  bool SealedArgs = false;
  bool Finalized = false;
  static constexpr uint32_t UnboundLabel = 0xFFFFFFFF;
  std::vector<uint32_t> LabelPos;                    // label -> inst index
  std::vector<std::pair<size_t, Label>> PatchSites;  // inst -> label
};

} // namespace dchm

#endif // DCHM_IR_BUILDER_H
