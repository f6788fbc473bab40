//===-- runtime/Object.h - Heap object layout ------------------*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Heap object layout. Every instance carries its own TIB pointer (the Jikes
/// object model); mutation re-points it between the class TIB and special
/// TIBs as the object's state changes. Arrays reuse the same header with a
/// null TIB and an element type.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_RUNTIME_OBJECT_H
#define DCHM_RUNTIME_OBJECT_H

#include "ir/Type.h"
#include "runtime/Value.h"

#include <cstdint>

namespace dchm {

struct TIB;

/// Header + inline slots of a heap object or array.
struct Object {
  /// The object's current virtual function table. For a mutated object this
  /// is one of the class's special TIBs. Null for arrays.
  TIB *Tib = nullptr;
  /// Intrusive list of all allocations, used by the sweep phase.
  Object *NextAlloc = nullptr;
  /// Instance: number of field slots. Array: element count.
  uint32_t NumSlots = 0;
  uint8_t Mark : 1 = 0;
  /// Set when the heap gave this object its own anonymous mapping (large
  /// objects); clear when it came from ::operator new. Tells the sweep how
  /// to free it.
  uint8_t Mapped : 1 = 0;
  bool IsArray = false;
  /// Set by the VM when the outermost constructor for this object exits
  /// (the point where algorithm part I first classifies it). The
  /// consistency auditor uses it to tell "not yet classified" apart from
  /// "must match its state": before the ctor-exit action an object
  /// legitimately sits on its class TIB whatever its fields hold.
  bool CtorDone = false;
  /// Element type for arrays (drives GC reference scanning).
  Type ElemTy = Type::I64;

  /// Inline value slots (fields or elements).
  Value *slots() { return reinterpret_cast<Value *>(this + 1); }
  const Value *slots() const { return reinterpret_cast<const Value *>(this + 1); }

  Value get(uint32_t Slot) const { return slots()[Slot]; }
  void set(uint32_t Slot, Value V) { slots()[Slot] = V; }

  /// Allocation size in bytes for an object with N slots.
  static size_t allocBytes(uint32_t NSlots) {
    return sizeof(Object) + static_cast<size_t>(NSlots) * sizeof(Value);
  }
};

static_assert(sizeof(Object) == 24, "the simulated heap accounts 24-byte "
                                    "headers (Object::allocBytes)");

} // namespace dchm

#endif // DCHM_RUNTIME_OBJECT_H
