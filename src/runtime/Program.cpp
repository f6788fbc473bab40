//===-- runtime/Program.cpp - Class registry and linker --------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "runtime/Program.h"

#include "ir/Verifier.h"
#include "runtime/CompiledMethod.h"
#include "support/Debug.h"

#include <algorithm>
#include <cstdio>

namespace dchm {

namespace {

/// Link failures are recoverable: phases return the first diagnostic up
/// through tryLink(); link() turns it into the traditional abort.
VMError linkError(const std::string &Msg) { return VMError::error(Msg); }

bool sameSignature(const MethodInfo &A, const MethodInfo &B) {
  return A.Name == B.Name && A.RetTy == B.RetTy && A.ParamTys == B.ParamTys;
}

} // namespace

Program::Program() = default;

ClassId Program::defineClass(const std::string &Name, ClassId Super,
                             uint32_t Package) {
  DCHM_CHECK(!Linked, "cannot define classes after link()");
  DCHM_CHECK(ClassByName.find(Name) == ClassByName.end(),
             "duplicate class name");
  DCHM_CHECK(Super == NoClassId || Super < Classes.size(),
             "superclass must be defined first");
  if (Super != NoClassId)
    DCHM_CHECK(!Classes[Super].IsInterface, "superclass cannot be interface");
  ClassInfo C;
  C.Id = static_cast<ClassId>(Classes.size());
  C.Name = Name;
  C.Super = Super;
  C.Package = Package;
  Classes.push_back(std::move(C));
  ClassById.push_back(&Classes.back());
  ClassByName.emplace(Name, Classes.back().Id);
  return Classes.back().Id;
}

ClassId Program::defineInterface(const std::string &Name, uint32_t Package) {
  ClassId Id = defineClass(Name, NoClassId, Package);
  Classes[Id].IsInterface = true;
  return Id;
}

void Program::addInterface(ClassId Cls, ClassId Iface) {
  DCHM_CHECK(!Linked, "cannot modify classes after link()");
  DCHM_CHECK(Cls < Classes.size() && Iface < Classes.size(), "bad class id");
  DCHM_CHECK(Classes[Iface].IsInterface, "addInterface target not interface");
  Classes[Cls].Interfaces.push_back(Iface);
}

FieldId Program::defineField(ClassId Owner, const std::string &Name, Type Ty,
                             bool IsStatic, Access Acc) {
  DCHM_CHECK(!Linked, "cannot define fields after link()");
  DCHM_CHECK(Owner < Classes.size(), "bad owner class");
  DCHM_CHECK(Ty != Type::Void, "field cannot be void");
  DCHM_CHECK(!Classes[Owner].IsInterface || IsStatic,
             "interfaces may only declare static fields");
  FieldInfo F;
  F.Id = static_cast<FieldId>(Fields.size());
  F.Owner = Owner;
  F.Name = Name;
  F.Ty = Ty;
  F.IsStatic = IsStatic;
  F.Acc = Acc;
  Fields.push_back(std::move(F));
  FieldById.push_back(&Fields.back());
  Classes[Owner].Fields.push_back(Fields.back().Id);
  return Fields.back().Id;
}

MethodId Program::defineMethod(ClassId Owner, const std::string &Name,
                               Type RetTy, std::vector<Type> ParamTys,
                               MethodFlags Flags) {
  DCHM_CHECK(!Linked, "cannot define methods after link()");
  DCHM_CHECK(Owner < Classes.size(), "bad owner class");
  if (Classes[Owner].IsInterface) {
    DCHM_CHECK(!Flags.IsStatic && !Flags.IsCtor && !Flags.IsPrivate,
               "interface methods are public abstract instance methods");
    Flags.IsAbstract = true;
  }
  // Built in place: MethodInfo carries atomic counters and cannot be moved.
  MethodInfo &M = Methods.emplace_back();
  MethodById.push_back(&M);
  M.Id = static_cast<MethodId>(Methods.size() - 1);
  M.Owner = Owner;
  M.Name = Name;
  M.RetTy = RetTy;
  M.ParamTys = std::move(ParamTys);
  M.Flags = Flags;
  Classes[Owner].Methods.push_back(M.Id);
  return M.Id;
}

void Program::setBody(MethodId Id, IRFunction F) {
  DCHM_CHECK(!Linked, "cannot set bodies after link()");
  MethodInfo &M = method(Id);
  DCHM_CHECK(!M.Flags.IsAbstract, "abstract method cannot have a body");
  M.Bytecode = std::move(F);
  M.Bytecode.HasReceiver = !M.Flags.IsStatic;
  M.HasBody = true;
}

ClassId Program::findClass(const std::string &Name) const {
  auto It = ClassByName.find(Name);
  return It == ClassByName.end() ? NoClassId : It->second;
}

MethodId Program::findMethod(ClassId Cls, const std::string &Name) const {
  for (MethodId M : Classes[Cls].Methods)
    if (Methods[M].Name == Name)
      return M;
  return NoMethodId;
}

FieldId Program::findField(ClassId Cls, const std::string &Name) const {
  for (FieldId F : Classes[Cls].Fields)
    if (Fields[F].Name == Name)
      return F;
  return NoFieldId;
}

bool Program::isSubtype(ClassId Sub, ClassId Sup) const {
  if (Sub == Sup)
    return true;
  const ClassInfo &C = cls(Sub);
  if (cls(Sup).IsInterface)
    return std::find(C.AllInterfaces.begin(), C.AllInterfaces.end(), Sup) !=
           C.AllInterfaces.end();
  return std::find(C.Ancestors.begin(), C.Ancestors.end(), Sup) !=
         C.Ancestors.end();
}

VMError Program::computeAncestry() {
  for (ClassInfo &C : Classes) {
    C.Ancestors.clear();
    ClassId Cur = C.Id;
    size_t Guard = 0;
    while (Cur != NoClassId) {
      C.Ancestors.push_back(Cur);
      Cur = Classes[Cur].Super;
      if (++Guard > Classes.size())
        return linkError("class hierarchy cycle involving " + C.Name);
    }
    // Transitive interface closure: own interfaces, their super-interfaces
    // (interfaces may list Interfaces too), and everything inherited.
    C.AllInterfaces.clear();
    std::vector<ClassId> Work;
    for (ClassId A : C.Ancestors)
      for (ClassId I : Classes[A].Interfaces)
        Work.push_back(I);
    while (!Work.empty()) {
      ClassId I = Work.back();
      Work.pop_back();
      if (std::find(C.AllInterfaces.begin(), C.AllInterfaces.end(), I) !=
          C.AllInterfaces.end())
        continue;
      C.AllInterfaces.push_back(I);
      for (ClassId Sup : Classes[I].Interfaces)
        Work.push_back(Sup);
    }
  }
  return VMError::success();
}

void Program::layoutFields() {
  StaticSlots.clear();
  StaticSlotTypes.clear();
  // Classes are defined supers-first (defineClass enforces it), so a single
  // in-order pass sees each superclass before its subclasses.
  for (ClassInfo &C : Classes) {
    C.SlotTypes =
        C.Super == NoClassId ? std::vector<Type>{} : Classes[C.Super].SlotTypes;
    for (FieldId FId : C.Fields) {
      FieldInfo &F = Fields[FId];
      if (F.IsStatic) {
        F.Slot = static_cast<uint32_t>(StaticSlots.size());
        StaticSlots.push_back(zeroValue());
        StaticSlotTypes.push_back(F.Ty);
      } else {
        F.Slot = static_cast<uint32_t>(C.SlotTypes.size());
        C.SlotTypes.push_back(F.Ty);
      }
    }
  }
}

const MethodInfo *Program::findVirtualBySignature(const ClassInfo &C,
                                                  const MethodInfo &Sig) const {
  for (MethodId MId : C.Methods) {
    const MethodInfo &M = Methods[MId];
    if (M.isVirtualDispatch() && sameSignature(M, Sig))
      return &M;
  }
  return nullptr;
}

void Program::buildVTables() {
  for (ClassInfo &C : Classes) {
    if (C.IsInterface)
      continue;
    C.VTable =
        C.Super == NoClassId ? std::vector<MethodId>{} : Classes[C.Super].VTable;
    for (MethodId MId : C.Methods) {
      MethodInfo &M = Methods[MId];
      if (M.Flags.IsStatic)
        continue;
      if (M.isVirtualDispatch()) {
        // Override resolution: reuse the slot of a matching virtual method
        // on the superclass chain, otherwise allocate a new slot.
        const MethodInfo *Overridden = nullptr;
        for (ClassId A : C.Ancestors) {
          if (A == C.Id)
            continue;
          if ((Overridden = findVirtualBySignature(Classes[A], M)))
            break;
        }
        if (Overridden) {
          M.VSlot = Overridden->VSlot;
          M.SlotRoot = Overridden->SlotRoot;
          C.VTable[M.VSlot] = M.Id;
          continue;
        }
      }
      // New virtual slot, or a per-class slot for private/ctor methods
      // (invokespecial binds through the declaring class TIB).
      M.VSlot = static_cast<uint32_t>(C.VTable.size());
      M.SlotRoot = M.Id;
      C.VTable.push_back(M.Id);
    }
  }
}

VMError Program::buildImts() {
  for (ClassInfo &C : Classes) {
    if (C.IsInterface || C.AllInterfaces.empty())
      continue;
    OwnedImts.push_back(std::make_unique<IMT>());
    C.Imt = OwnedImts.back().get();
    // Gather (interface method, implementation) pairs per hashed IMT slot.
    std::vector<std::vector<std::pair<MethodId, const MethodInfo *>>> PerSlot(
        NumImtSlots);
    for (ClassId IfId : C.AllInterfaces) {
      for (MethodId IMId : Classes[IfId].Methods) {
        const MethodInfo &IM = Methods[IMId];
        const MethodInfo *Impl = nullptr;
        for (ClassId A : C.Ancestors)
          if ((Impl = findVirtualBySignature(Classes[A], IM)))
            break;
        if (!Impl)
          return linkError("class " + C.Name + " does not implement " + IM.Name +
                    " of interface " + Classes[IfId].Name);
        PerSlot[IMId % NumImtSlots].emplace_back(IMId, Impl);
      }
    }
    for (uint32_t S = 0; S < NumImtSlots; ++S) {
      ImtEntry &E = C.Imt->Slots[S];
      if (PerSlot[S].empty())
        continue;
      if (PerSlot[S].size() == 1) {
        E.K = ImtEntry::Kind::Direct;
        E.DirectImpl = PerSlot[S][0].second->Id;
        E.VSlot = PerSlot[S][0].second->VSlot;
        continue;
      }
      E.K = ImtEntry::Kind::Conflict;
      for (auto &[IMId, Impl] : PerSlot[S])
        E.Table.emplace_back(IMId, Impl->VSlot);
    }
  }
  return VMError::success();
}

void Program::createTibs() {
  StaticEntries.assign(Methods.size(), nullptr);
  for (ClassInfo &C : Classes) {
    if (C.IsInterface)
      continue;
    OwnedTibs.push_back(std::make_unique<TIB>());
    TIB *T = OwnedTibs.back().get();
    T->Cls = &C;
    T->StateIndex = -1;
    // Lazy compilation: slots start null; the interpreter's dispatch path
    // asks the compile broker for opt0 code on first use.
    T->Slots.assign(C.VTable.size(), nullptr);
    T->Imt = C.Imt;
    C.ClassTib = T;
  }
}

VMError Program::resolveBodies() {
  // Diagnostics name methods as Class.method: bare names repeat across
  // classes.
  auto Q = [this](const MethodInfo &X) {
    return Classes[X.Owner].Name + "." + X.Name;
  };
  for (MethodInfo &M : Methods) {
    if (M.Flags.IsAbstract) {
      if (M.HasBody)
        return linkError("abstract method " + Q(M) + " has a body");
      continue;
    }
    if (!M.HasBody)
      return linkError("method " + Q(M) + " has no body");
    std::string Err = verifyFunction(M.Bytecode);
    if (!Err.empty())
      return linkError("verifier: " + Err);
    if (M.Bytecode.NumArgs != M.numArgsWithReceiver())
      return linkError("method " + Q(M) + ": body argument count mismatch");
    if (M.Bytecode.RetTy != M.RetTy)
      return linkError("method " + Q(M) + ": body return type mismatch");

    for (size_t Idx = 0; Idx < M.Bytecode.Insts.size(); ++Idx) {
      Instruction &I = M.Bytecode.Insts[Idx];
      switch (I.Op) {
      case Opcode::GetField:
      case Opcode::PutField: {
        if (static_cast<size_t>(I.Imm) >= Fields.size())
          return linkError(Q(M) + ": bad field id");
        const FieldInfo &F = Fields[static_cast<FieldId>(I.Imm)];
        if (F.IsStatic)
          return linkError(Q(M) + ": instance access to static field " + F.Name);
        if (I.Op == Opcode::GetField && I.Ty != F.Ty)
          return linkError(Q(M) + ": getfield type mismatch on " + F.Name);
        if (I.Op == Opcode::PutField &&
            M.Bytecode.RegTypes[I.B] != F.Ty)
          return linkError(Q(M) + ": putfield type mismatch on " + F.Name);
        I.Aux = F.Slot;
        break;
      }
      case Opcode::GetStatic:
      case Opcode::PutStatic: {
        if (static_cast<size_t>(I.Imm) >= Fields.size())
          return linkError(Q(M) + ": bad field id");
        const FieldInfo &F = Fields[static_cast<FieldId>(I.Imm)];
        if (!F.IsStatic)
          return linkError(Q(M) + ": static access to instance field " + F.Name);
        if (I.Op == Opcode::GetStatic && I.Ty != F.Ty)
          return linkError(Q(M) + ": getstatic type mismatch on " + F.Name);
        if (I.Op == Opcode::PutStatic && M.Bytecode.RegTypes[I.A] != F.Ty)
          return linkError(Q(M) + ": putstatic type mismatch on " + F.Name);
        I.Aux = F.Slot;
        break;
      }
      case Opcode::CallStatic:
      case Opcode::CallVirtual:
      case Opcode::CallSpecial:
      case Opcode::CallInterface: {
        if (static_cast<size_t>(I.Imm) >= Methods.size())
          return linkError(Q(M) + ": bad method id");
        const MethodInfo &Callee = Methods[static_cast<MethodId>(I.Imm)];
        if (I.Args.size() != Callee.numArgsWithReceiver())
          return linkError(Q(M) + ": wrong argument count calling " + Q(Callee));
        if (I.Args.size() > MaxCallArgs)
          return linkError(Q(M) + ": too many arguments calling " +
                           Q(Callee) + " (" + std::to_string(I.Args.size()) +
                           ", limit " + std::to_string(MaxCallArgs) + ")");
        if (I.Ty != Callee.RetTy)
          return linkError(Q(M) + ": return type mismatch calling " + Q(Callee));
        size_t ParamBase = Callee.Flags.IsStatic ? 0 : 1;
        for (size_t P = 0; P < Callee.ParamTys.size(); ++P)
          if (M.Bytecode.RegTypes[I.Args[ParamBase + P]] != Callee.ParamTys[P])
            return linkError(Q(M) + ": argument type mismatch calling " +
                      Q(Callee));
        switch (I.Op) {
        case Opcode::CallStatic:
          if (!Callee.Flags.IsStatic)
            return linkError(Q(M) + ": callstatic to instance method " +
                      Q(Callee));
          break;
        case Opcode::CallVirtual:
          if (!Callee.isVirtualDispatch())
            return linkError(Q(M) + ": callvirtual needs a virtual method, got " +
                      Q(Callee));
          if (Classes[Callee.Owner].IsInterface)
            return linkError(Q(M) + ": callvirtual to interface method " +
                      Q(Callee) + " (use callinterface)");
          I.Aux = Callee.VSlot;
          break;
        case Opcode::CallSpecial:
          if (Callee.Flags.IsStatic)
            return linkError(Q(M) + ": callspecial to static method " +
                      Q(Callee));
          if (Classes[Callee.Owner].IsInterface)
            return linkError(Q(M) + ": callspecial to interface method");
          I.Aux = Callee.VSlot;
          break;
        case Opcode::CallInterface:
          if (!Classes[Callee.Owner].IsInterface)
            return linkError(Q(M) + ": callinterface to class method " +
                      Q(Callee));
          I.Aux = static_cast<uint32_t>(Callee.Id % NumImtSlots);
          break;
        default:
          DCHM_UNREACHABLE("not a call");
        }
        break;
      }
      case Opcode::New: {
        if (static_cast<size_t>(I.Imm) >= Classes.size())
          return linkError(Q(M) + ": bad class id in new");
        if (Classes[static_cast<ClassId>(I.Imm)].IsInterface)
          return linkError(Q(M) + ": cannot instantiate interface");
        break;
      }
      case Opcode::InstanceOf:
      case Opcode::CheckCast:
        if (static_cast<size_t>(I.Imm) >= Classes.size())
          return linkError(Q(M) + ": bad class id in type test");
        break;
      default:
        break;
      }
    }
  }
  return VMError::success();
}

void Program::link() {
  if (VMError E = tryLink()) {
    std::fprintf(stderr, "dchm link error: %s\n", E.message().c_str());
    std::abort();
  }
}

VMError Program::tryLink() {
  DCHM_CHECK(!Linked, "link() called twice");
  if (VMError E = computeAncestry())
    return E;
  layoutFields();
  buildVTables();
  if (VMError E = buildImts())
    return E;
  createTibs();
  if (VMError E = resolveBodies())
    return E;
  Linked = true;
  return VMError::success();
}

void Program::installCode(MethodInfo &M, CompiledMethod *CM) {
  DCHM_CHECK(Linked, "installCode before link()");
  M.General = CM;
  if (M.Flags.IsStatic) {
    // "The replacement occurs in the JTOC if the method is static."
    StaticEntries[M.Id] = CM;
    return;
  }
  ClassInfo &D = Classes[M.Owner];
  auto InstallInto = [&](ClassInfo &C) {
    C.ClassTib->Slots[M.VSlot] = CM;
    for (TIB *ST : C.SpecialTibs)
      ST->Slots[M.VSlot] = CM;
    if (C.Imt) {
      for (ImtEntry &E : C.Imt->Slots)
        if (E.K == ImtEntry::Kind::Direct && E.DirectImpl == M.Id)
          E.DirectCode = CM;
    }
  };
  InstallInto(D);
  // "...or in the class TIB and the subclasses' class TIBs (if the method is
  // not private or overridden by the subclasses) if the method is
  // non-static." Constructor slots behave like private ones.
  if (!M.isVirtualDispatch())
    return;
  for (ClassInfo &C : Classes) {
    if (C.Id == M.Owner || C.IsInterface || C.VTable.size() <= M.VSlot)
      continue;
    if (C.VTable[M.VSlot] != M.Id) // overridden below D, or unrelated class
      continue;
    if (!isSubtype(C.Id, M.Owner))
      continue;
    InstallInto(C);
  }
}

TIB *Program::createSpecialTib(ClassId ClsId, int StateIndex) {
  DCHM_CHECK(Linked, "createSpecialTib before link()");
  ClassInfo &C = cls(ClsId);
  DCHM_CHECK(!C.IsInterface, "special TIB for interface");
  OwnedTibs.push_back(std::make_unique<TIB>());
  TIB *T = OwnedTibs.back().get();
  // "The special TIB is a replicant of the class TIB": same type-information
  // entry, same IMT, same code pointers until mutation redirects them.
  T->Cls = &C;
  T->StateIndex = StateIndex;
  T->Slots = C.ClassTib->Slots;
  T->Imt = C.Imt;
  C.SpecialTibs.push_back(T);
  return T;
}

size_t Program::classTibBytes() const {
  size_t Total = 0;
  for (const auto &T : OwnedTibs)
    if (!T->isSpecial())
      Total += T->sizeBytes();
  return Total;
}

size_t Program::specialTibBytes() const {
  size_t Total = 0;
  for (const ClassInfo &C : Classes)
    for (const TIB *T : C.SpecialTibs)
      Total += T->sizeBytes();
  return Total;
}

} // namespace dchm
