//===-- ir/Builder.cpp - IR function builder -------------------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"

#include "support/Debug.h"

namespace dchm {

FunctionBuilder::FunctionBuilder(std::string Name, Type RetTy) {
  F.Name = std::move(Name);
  F.RetTy = RetTy;
}

Reg FunctionBuilder::addArg(Type Ty) {
  DCHM_CHECK(!SealedArgs, "arguments must be declared before instructions");
  DCHM_CHECK(Ty != Type::Void, "argument cannot be void");
  F.RegTypes.push_back(Ty);
  F.NumArgs++;
  return static_cast<Reg>(F.RegTypes.size() - 1);
}

Reg FunctionBuilder::newReg(Type Ty) {
  DCHM_CHECK(Ty != Type::Void, "register cannot be void");
  DCHM_CHECK(F.RegTypes.size() < NoReg, "too many registers");
  F.RegTypes.push_back(Ty);
  return static_cast<Reg>(F.RegTypes.size() - 1);
}

FunctionBuilder::Label FunctionBuilder::makeLabel() {
  LabelPos.push_back(UnboundLabel);
  return static_cast<Label>(LabelPos.size() - 1);
}

void FunctionBuilder::bind(Label L) {
  DCHM_CHECK(L < LabelPos.size(), "unknown label");
  DCHM_CHECK(LabelPos[L] == UnboundLabel, "label bound twice");
  LabelPos[L] = static_cast<uint32_t>(F.Insts.size());
}

Instruction &FunctionBuilder::emit(Opcode Op) {
  DCHM_CHECK(!Finalized, "builder already finalized");
  SealedArgs = true;
  F.Insts.push_back(Instruction{});
  F.Insts.back().Op = Op;
  return F.Insts.back();
}

void FunctionBuilder::useLabel(Label L, size_t InstIdx) {
  DCHM_CHECK(L < LabelPos.size(), "unknown label");
  PatchSites.emplace_back(InstIdx, L);
}

Reg FunctionBuilder::constI(int64_t V) {
  Reg Dst = newReg(Type::I64);
  Instruction &I = emit(Opcode::ConstI);
  I.Ty = Type::I64;
  I.Dst = Dst;
  I.Imm = V;
  return Dst;
}

Reg FunctionBuilder::constF(double V) {
  Reg Dst = newReg(Type::F64);
  Instruction &I = emit(Opcode::ConstF);
  I.Ty = Type::F64;
  I.Dst = Dst;
  I.FImm = V;
  return Dst;
}

Reg FunctionBuilder::constNull() {
  Reg Dst = newReg(Type::Ref);
  Instruction &I = emit(Opcode::ConstNull);
  I.Ty = Type::Ref;
  I.Dst = Dst;
  return Dst;
}

void FunctionBuilder::move(Reg Dst, Reg Src) {
  DCHM_CHECK(Dst < F.RegTypes.size() && Src < F.RegTypes.size(),
             "move operand out of range");
  Instruction &I = emit(Opcode::Move);
  I.Ty = F.RegTypes[Dst];
  I.Dst = Dst;
  I.A = Src;
}

Reg FunctionBuilder::arith(Opcode Op, Reg A, Reg B) {
  const OpcodeInfo &Info = opcodeInfo(Op);
  DCHM_CHECK(Info.Family == OpFamily::Binop || Info.Family == OpFamily::Compare,
             "arith needs a binop or compare opcode");
  Reg Dst = newReg(Info.Result);
  Instruction &I = emit(Op);
  I.Ty = Info.Result;
  I.Dst = Dst;
  I.A = A;
  I.B = B;
  return Dst;
}

Reg FunctionBuilder::unop(Opcode Op, Reg A) {
  const OpcodeInfo &Info = opcodeInfo(Op);
  DCHM_CHECK(Info.Family == OpFamily::Unop, "unop needs a unop opcode");
  Reg Dst = newReg(Info.Result);
  Instruction &I = emit(Op);
  I.Ty = Info.Result;
  I.Dst = Dst;
  I.A = A;
  return Dst;
}

void FunctionBuilder::br(Label L) {
  Instruction &I = emit(Opcode::Br);
  useLabel(L, F.Insts.size() - 1);
  (void)I;
}

void FunctionBuilder::cbnz(Reg Cond, Label L) {
  Instruction &I = emit(Opcode::Cbnz);
  I.A = Cond;
  useLabel(L, F.Insts.size() - 1);
}

void FunctionBuilder::cbz(Reg Cond, Label L) {
  Instruction &I = emit(Opcode::Cbz);
  I.A = Cond;
  useLabel(L, F.Insts.size() - 1);
}

void FunctionBuilder::ret(Reg V) {
  DCHM_CHECK(F.RetTy != Type::Void, "value return from void function");
  Instruction &I = emit(Opcode::Ret);
  I.Ty = F.RetTy;
  I.A = V;
}

void FunctionBuilder::retVoid() {
  DCHM_CHECK(F.RetTy == Type::Void, "void return from non-void function");
  emit(Opcode::Ret);
}

Reg FunctionBuilder::newObject(ClassId Cls) {
  Reg Dst = newReg(Type::Ref);
  Instruction &I = emit(Opcode::New);
  I.Ty = Type::Ref;
  I.Dst = Dst;
  I.Imm = Cls;
  return Dst;
}

Reg FunctionBuilder::newArray(Type ElemTy, Reg Len) {
  Reg Dst = newReg(Type::Ref);
  Instruction &I = emit(Opcode::NewArray);
  I.Ty = ElemTy;
  I.Dst = Dst;
  I.A = Len;
  return Dst;
}

Reg FunctionBuilder::aload(Type ElemTy, Reg Arr, Reg Idx) {
  Reg Dst = newReg(ElemTy);
  Instruction &I = emit(Opcode::ALoad);
  I.Ty = ElemTy;
  I.Dst = Dst;
  I.A = Arr;
  I.B = Idx;
  return Dst;
}

void FunctionBuilder::astore(Type ElemTy, Reg Arr, Reg Idx, Reg Val) {
  Instruction &I = emit(Opcode::AStore);
  I.Ty = ElemTy;
  I.A = Arr;
  I.B = Idx;
  I.C = Val;
}

Reg FunctionBuilder::alen(Reg Arr) {
  Reg Dst = newReg(Type::I64);
  Instruction &I = emit(Opcode::ALen);
  I.Dst = Dst;
  I.A = Arr;
  return Dst;
}

Reg FunctionBuilder::getField(Reg Obj, FieldId Fld, Type Ty) {
  Reg Dst = newReg(Ty);
  Instruction &I = emit(Opcode::GetField);
  I.Ty = Ty;
  I.Dst = Dst;
  I.A = Obj;
  I.Imm = Fld;
  return Dst;
}

void FunctionBuilder::putField(Reg Obj, FieldId Fld, Reg Val) {
  Instruction &I = emit(Opcode::PutField);
  I.A = Obj;
  I.B = Val;
  I.Imm = Fld;
}

Reg FunctionBuilder::getStatic(FieldId Fld, Type Ty) {
  Reg Dst = newReg(Ty);
  Instruction &I = emit(Opcode::GetStatic);
  I.Ty = Ty;
  I.Dst = Dst;
  I.Imm = Fld;
  return Dst;
}

void FunctionBuilder::putStatic(FieldId Fld, Reg Val) {
  Instruction &I = emit(Opcode::PutStatic);
  I.A = Val;
  I.Imm = Fld;
}

Reg FunctionBuilder::instanceOf(Reg Obj, ClassId Cls) {
  Reg Dst = newReg(Type::I64);
  Instruction &I = emit(Opcode::InstanceOf);
  I.Dst = Dst;
  I.A = Obj;
  I.Imm = Cls;
  return Dst;
}

void FunctionBuilder::checkCast(Reg Obj, ClassId Cls) {
  Instruction &I = emit(Opcode::CheckCast);
  I.A = Obj;
  I.Imm = Cls;
}

Reg FunctionBuilder::call(Opcode Kind, MethodId M,
                          const std::vector<Reg> &Args, Type RetTy) {
  DCHM_CHECK(isCall(Kind), "call() requires a call opcode");
  Reg Dst = RetTy == Type::Void ? NoReg : newReg(RetTy);
  Instruction &I = emit(Kind);
  I.Ty = RetTy;
  I.Dst = Dst;
  I.Imm = M;
  I.Args = Args;
  return Dst;
}

Reg FunctionBuilder::call(Opcode Kind, MethodId M,
                          std::initializer_list<Reg> Args, Type RetTy) {
  return call(Kind, M, std::vector<Reg>(Args), RetTy);
}

void FunctionBuilder::printNum(Reg V, Type Ty) {
  Instruction &I = emit(Opcode::Print);
  I.Ty = Ty;
  I.A = V;
  I.Aux = 0;
}

void FunctionBuilder::printChar(Reg V) {
  Instruction &I = emit(Opcode::Print);
  I.Ty = Type::I64;
  I.A = V;
  I.Aux = 1;
}

bool FunctionBuilder::writeInto(Reg Dst) {
  if (F.Insts.empty() || F.RegTypes.empty())
    return false;
  Instruction &I = F.Insts.back();
  Reg Fresh = static_cast<Reg>(F.RegTypes.size() - 1);
  if (I.Dst != Fresh || Fresh < F.NumArgs || Dst >= Fresh ||
      F.RegTypes[Dst] != F.RegTypes[Fresh])
    return false;
  I.Dst = Dst;
  F.RegTypes.pop_back();
  return true;
}

IRFunction FunctionBuilder::finalize() {
  DCHM_CHECK(!Finalized, "builder already finalized");
  DCHM_CHECK(!F.Insts.empty(), "empty function");
  DCHM_CHECK(isTerminator(F.Insts.back().Op),
             "function must end with a terminator");
  for (auto [InstIdx, L] : PatchSites) {
    DCHM_CHECK(LabelPos[L] != UnboundLabel, "branch to unbound label");
    DCHM_CHECK(LabelPos[L] <= F.Insts.size(), "label out of range");
    // A label bound after the last instruction is only legal if every branch
    // to it is dead; point it at the terminator to stay in range.
    F.Insts[InstIdx].Imm =
        LabelPos[L] == F.Insts.size() ? LabelPos[L] - 1 : LabelPos[L];
  }
  Finalized = true;
  return std::move(F);
}

} // namespace dchm
