//===-- runtime/Program.h - Class registry and linker ----------*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Program is the MiniVM's class universe: users define classes, fields, and
/// methods (with IRFunction bodies) through it, then link() resolves field
/// slots, builds vtables with override resolution, lays out IMTs, creates
/// class TIBs and the JTOC, and resolves every symbolic reference in every
/// method body. After linking, the Program also provides the compiled-code
/// installation primitive (`installCode`) with the exact Jikes semantics the
/// paper builds on: a new compiled method replaces the old one in the JTOC
/// if static, or in the class TIB and the subclasses' TIBs if virtual.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_RUNTIME_PROGRAM_H
#define DCHM_RUNTIME_PROGRAM_H

#include "runtime/Entities.h"
#include "runtime/TIB.h"
#include "runtime/Value.h"
#include "support/Debug.h"
#include "support/Error.h"

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace dchm {

struct MutationPlan;

/// The class universe plus its linked runtime structures (TIBs, JTOC).
class Program {
public:
  Program();
  Program(const Program &) = delete;
  Program &operator=(const Program &) = delete;

  // --- Definition API (before link) ---------------------------------------
  /// Defines a class. Super == NoClassId makes it a root class.
  ClassId defineClass(const std::string &Name, ClassId Super = NoClassId,
                      uint32_t Package = 0);
  /// Defines an interface (methods added to it must be abstract).
  ClassId defineInterface(const std::string &Name, uint32_t Package = 0);
  /// Declares that Cls implements Iface.
  void addInterface(ClassId Cls, ClassId Iface);
  FieldId defineField(ClassId Owner, const std::string &Name, Type Ty,
                      bool IsStatic, Access Acc = Access::Public);
  MethodId defineMethod(ClassId Owner, const std::string &Name, Type RetTy,
                        std::vector<Type> ParamTys, MethodFlags Flags = {});
  /// Attaches the bytecode body built with FunctionBuilder.
  void setBody(MethodId M, IRFunction F);

  /// Resolves everything. Aborts with a diagnostic on ill-formed input
  /// (the library is exception-free; a bad program is a caller bug).
  void link();
  /// Recoverable variant of link(): returns a VMError diagnostic instead of
  /// aborting on ill-formed input. On failure the Program stays unlinked
  /// (and must be discarded). The assembler and tools use this so malformed
  /// .mvm input never kills the process.
  VMError tryLink();
  bool isLinked() const { return Linked; }

  // --- Accessors -----------------------------------------------------------
  // Inline, one load each: the interpreter looks up a field on every
  // putfield/putstatic and a method or class on every static, special call
  // and allocation.
  ClassInfo &cls(ClassId Id) {
    DCHM_CHECK(Id < ClassById.size(), "bad class id");
    return *ClassById[Id];
  }
  const ClassInfo &cls(ClassId Id) const {
    DCHM_CHECK(Id < ClassById.size(), "bad class id");
    return *ClassById[Id];
  }
  FieldInfo &field(FieldId Id) {
    DCHM_CHECK(Id < FieldById.size(), "bad field id");
    return *FieldById[Id];
  }
  const FieldInfo &field(FieldId Id) const {
    DCHM_CHECK(Id < FieldById.size(), "bad field id");
    return *FieldById[Id];
  }
  MethodInfo &method(MethodId Id) {
    DCHM_CHECK(Id < MethodById.size(), "bad method id");
    return *MethodById[Id];
  }
  const MethodInfo &method(MethodId Id) const {
    DCHM_CHECK(Id < MethodById.size(), "bad method id");
    return *MethodById[Id];
  }
  size_t numClasses() const { return Classes.size(); }
  size_t numFields() const { return Fields.size(); }
  size_t numMethods() const { return Methods.size(); }

  /// Name lookups (linear; intended for tests, tools, and workload setup).
  ClassId findClass(const std::string &Name) const;
  MethodId findMethod(ClassId Cls, const std::string &Name) const;
  FieldId findField(ClassId Cls, const std::string &Name) const;

  /// Subtype test used by InstanceOf/CheckCast. Goes through class metadata
  /// (the TIB type-information entry), never TIB identity.
  bool isSubtype(ClassId Sub, ClassId Sup) const;

  // --- JTOC ---------------------------------------------------------------
  Value getStaticSlot(uint32_t Slot) const { return StaticSlots[Slot]; }
  void setStaticSlot(uint32_t Slot, Value V) { StaticSlots[Slot] = V; }
  size_t numStaticSlots() const { return StaticSlots.size(); }
  Type staticSlotType(uint32_t Slot) const { return StaticSlotTypes[Slot]; }

  /// JTOC compiled-code entry for a static method (null = not yet compiled).
  CompiledMethod *staticEntry(MethodId M) const { return StaticEntries[M]; }
  /// The same entry as a writable slot, for the mutation engine's re-points.
  CompiledMethod *&staticEntrySlot(MethodId M) { return StaticEntries[M]; }

  /// The installed mutation plan (null when none), the one record of it
  /// that every layer reads; its per-entity marks live on the entities
  /// (IsStateField, IsMutable, MutableIndex, SpecialTibs). Written once,
  /// by MutationManager::installPlan.
  const MutationPlan *mutationPlan() const { return Plan; }
  void setMutationPlan(const MutationPlan *Pl) { Plan = Pl; }

  // --- Code installation (Jikes default semantics) -------------------------
  /// Installs CM as the current general compiled code of M: JTOC entry for
  /// statics; for non-statics the declaring class TIB slot, the declaring
  /// class's special TIBs, non-overriding subclasses' TIBs (class + special),
  /// and any Direct IMT entries that dispatch to M. The mutation engine
  /// overwrites special-TIB entries afterwards per algorithm part II.
  void installCode(MethodInfo &M, CompiledMethod *CM);

  // --- TIB management ------------------------------------------------------
  /// Clones the class TIB of Cls into a new special TIB for hot state
  /// StateIndex and registers it on the class. Used by the mutation engine.
  TIB *createSpecialTib(ClassId Cls, int StateIndex);

  /// Total bytes of all class TIBs / of the special TIBs the classes
  /// hold (Figure 12 metric).
  size_t classTibBytes() const;
  size_t specialTibBytes() const;

private:
  VMError computeAncestry();
  void layoutFields();
  void buildVTables();
  VMError buildImts();
  void createTibs();
  VMError resolveBodies();
  const MethodInfo *findVirtualBySignature(const ClassInfo &C,
                                           const MethodInfo &Sig) const;

  std::deque<ClassInfo> Classes;
  std::deque<FieldInfo> Fields;
  std::deque<MethodInfo> Methods;
  /// The same entities by id. The deques keep addresses stable as they
  /// grow; indexing a vector is one load where a deque divides into blocks.
  std::vector<ClassInfo *> ClassById;
  std::vector<FieldInfo *> FieldById;
  std::vector<MethodInfo *> MethodById;
  std::unordered_map<std::string, ClassId> ClassByName;

  std::vector<Value> StaticSlots;
  std::vector<Type> StaticSlotTypes;
  std::vector<CompiledMethod *> StaticEntries;
  const MutationPlan *Plan = nullptr;

  /// Every TIB created, class and special.
  std::vector<std::unique_ptr<TIB>> OwnedTibs;
  std::vector<std::unique_ptr<IMT>> OwnedImts;

  bool Linked = false;
};

} // namespace dchm

#endif // DCHM_RUNTIME_PROGRAM_H
