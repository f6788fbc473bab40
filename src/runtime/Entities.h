//===-- runtime/Entities.h - Classes, fields, methods ----------*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Metadata records for the program entities the VM manages. These mirror
/// the Jikes structures the paper manipulates: each class owns a class TIB
/// (plus special TIBs once mutated), each method owns its bytecode and the
/// set of compiled methods produced for it (one general version and, for
/// mutable methods, one specialized version per hot state, sharing a single
/// hotness sample count per paper section 3.2.3).
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_RUNTIME_ENTITIES_H
#define DCHM_RUNTIME_ENTITIES_H

#include "ir/Function.h"
#include "ir/Ids.h"
#include "runtime/CompiledMethod.h"

#include <atomic>
#include <memory>
#include <string>
#include <vector>

namespace dchm {

struct TIB;
struct IMT;

/// The top of the recompilation ladder (opt0 -> opt1 -> opt2): the level
/// where specialized versions are generated and mutation happens. A method
/// never leaves it, so its hotness is never consulted again.
constexpr int TopOptLevel = 2;

/// Java-style accessibility, consumed by the object-lifetime-constant
/// analysis (a field that is private or package-scoped cannot be modified by
/// classes outside its package; see paper section 4).
enum class Access : uint8_t { Private, Package, Public };

/// Metadata for one (static or instance) field.
struct FieldInfo {
  FieldId Id = NoFieldId;
  ClassId Owner = NoClassId;
  std::string Name;
  Type Ty = Type::I64;
  bool IsStatic = false;
  Access Acc = Access::Public;

  /// Set by the mutation engine when the installed MutationPlan names this
  /// field a state field; the interpreter's PutField/PutStatic fast path
  /// checks this flag to fire the distributed mutation algorithm (part I).
  bool IsStateField = false;

  /// Set by the offline pipeline on the fields its value profiler records
  /// (analysis/OfflinePipeline.cpp). The PutField/PutStatic fast path
  /// reports their stores like a state field's, but charges nothing: an
  /// observed run keeps the simulated cycles of an unobserved one.
  bool IsObserved = false;

  /// Instance fields: slot index in the object. Static fields: JTOC slot.
  uint32_t Slot = 0;
};

/// Behavioral flags for a method declaration.
struct MethodFlags {
  bool IsStatic = false;
  bool IsPrivate = false;
  bool IsCtor = false;
  /// Declared abstract (interface methods; no body).
  bool IsAbstract = false;
};

/// Metadata plus runtime compilation state for one method.
struct MethodInfo {
  MethodId Id = NoMethodId;
  ClassId Owner = NoClassId;
  std::string Name;
  Type RetTy = Type::Void;
  /// Parameter types excluding the receiver.
  std::vector<Type> ParamTys;
  MethodFlags Flags;

  /// The "bytecode": the source-of-truth body every compilation starts from.
  IRFunction Bytecode;
  bool HasBody = false;

  /// TIB slot for non-static methods (virtual slot, or the per-class slot
  /// used by invokespecial static binding for private/ctor methods).
  /// Unused (0) for statics.
  uint32_t VSlot = 0;
  /// For virtual (overridable) methods: the method id whose slot this shares
  /// (the root declaration). Used to propagate compiled code to subclasses.
  MethodId SlotRoot = NoMethodId;

  // --- Runtime compilation state -----------------------------------------
  /// All compiled versions ever produced, owned here. Replaced versions stay
  /// allocated (frames may still reference them), matching Jikes' behavior
  /// of invalidating but not freeing compiled methods.
  std::vector<std::unique_ptr<CompiledMethod>> CompiledVersions;
  /// Current general (unspecialized) compiled code, or the lazy stub.
  CompiledMethod *General = nullptr;
  /// Current specialized code per hot state of the owning mutable class
  /// (empty when the method is not mutable or not yet opt2-compiled).
  std::vector<CompiledMethod *> Specials;
  /// Highest optimization level compiled so far (-1: only the stub exists).
  /// Atomic: concurrent mutators read it in the sampling pre-check while a
  /// rendezvous leader promotes; stores happen with the world stopped.
  std::atomic<int> CurOptLevel{-1};

  /// Hotness samples, shared between the general and all special compiled
  /// methods so specialization does not dilute hotness (paper section 3.2.3).
  /// Relaxed increments from every mutator thread; exact totals are only
  /// meaningful single-threaded or at a safepoint. Read only to promote out
  /// of opt0 and opt1, so with SampleInterval == 1 the interpreter stops
  /// counting once CurOptLevel reaches TopOptLevel and the count freezes.
  std::atomic<uint64_t> SampleCount{0};
  /// Marked by the mutation engine: this method is a mutable method of a
  /// mutable class (candidate for per-state specialization).
  bool IsMutable = false;

  bool isVirtualDispatch() const {
    return !Flags.IsStatic && !Flags.IsPrivate && !Flags.IsCtor;
  }
  unsigned numArgsWithReceiver() const {
    return static_cast<unsigned>(ParamTys.size()) + (Flags.IsStatic ? 0 : 1);
  }
};

/// Metadata plus runtime dispatch structures for one class or interface.
struct ClassInfo {
  ClassId Id = NoClassId;
  std::string Name;
  ClassId Super = NoClassId;
  std::vector<ClassId> Interfaces; ///< Directly implemented interfaces.
  bool IsInterface = false;
  /// Package tag: two entities share a package iff tags match (models Java
  /// package-private accessibility for the OLC analysis).
  uint32_t Package = 0;

  std::vector<FieldId> Fields;   ///< Fields declared by this class.
  std::vector<MethodId> Methods; ///< Methods declared by this class.

  // --- Link products ------------------------------------------------------
  /// Types of all instance slots, superclass slots first (GC reference map).
  std::vector<Type> SlotTypes;
  /// Method occupying each TIB slot (inherited slots first).
  std::vector<MethodId> VTable;
  /// Superclass chain, self first, java.lang.Object-equivalent last.
  std::vector<ClassId> Ancestors;
  /// All interfaces implemented transitively (including super-interfaces).
  std::vector<ClassId> AllInterfaces;

  /// The class TIB (the "general VFT" of the paper). Owned by the Program.
  TIB *ClassTib = nullptr;
  /// Special TIBs, one per hot state, created by the mutation engine when
  /// the class has instance state fields. Owned by the Program.
  std::vector<TIB *> SpecialTibs;
  /// Interface method table shared by the class TIB and all special TIBs.
  IMT *Imt = nullptr;

  /// Set when the installed MutationPlan names this class mutable; index
  /// into the plan's mutable-class list.
  int MutableIndex = -1;
};

} // namespace dchm

#endif // DCHM_RUNTIME_ENTITIES_H
