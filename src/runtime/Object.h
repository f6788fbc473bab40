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
/// Host layout versus simulated accounting: the host header is 16 bytes
/// (sizeof(Object)), and an object's host footprint is that plus 8 bytes a
/// slot, rounded up to its size class (runtime/Heap.h). The simulated heap
/// still charges the paper's 24-byte header (allocBytes), so the GC trigger
/// and every simulated cycle are independent of the host layout.
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
  union {
    /// The object's current virtual function table. For a mutated object
    /// this is one of the class's special TIBs. Null for arrays.
    TIB *Tib = nullptr;
    /// On a size-class slot the sweep freed (Free set): the next free slot
    /// of its block.
    Object *NextFree;
  };
  /// Instance: number of field slots. Array: element count.
  uint32_t NumSlots = 0;
  uint8_t Mark : 1 = 0;
  /// Set when the heap gave this object its own anonymous mapping (large
  /// objects); clear for a size-class slot, and for a large object whose
  /// mapping failed and came from ::operator new. Tells the sweep how to
  /// free a large object.
  uint8_t Mapped : 1 = 0;
  /// Set on a size-class slot the sweep freed: it holds no object, and
  /// NextFree links it into its block's free list (runtime/Heap.cpp).
  uint8_t Free : 1 = 0;
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

  /// The header size the simulated heap charges: the paper's Jikes header
  /// (TIB pointer, status word, length), not this struct's.
  static constexpr size_t SimHeaderBytes = 24;

  /// Simulated allocation size in bytes for an object with N slots: what
  /// the budget, the GC trigger and HeapStats count.
  static size_t allocBytes(uint32_t NSlots) {
    return SimHeaderBytes + static_cast<size_t>(NSlots) * sizeof(Value);
  }

  /// Host bytes an object with N slots occupies before size-class rounding.
  static size_t hostBytes(uint32_t NSlots) {
    return sizeof(Object) + static_cast<size_t>(NSlots) * sizeof(Value);
  }
};

static_assert(sizeof(Object) == 16, "the host header is 16 bytes; the "
                                    "simulated one is SimHeaderBytes");

} // namespace dchm

#endif // DCHM_RUNTIME_OBJECT_H
