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
/// TIBs as the object's state changes. Arrays have no TIB: their header
/// holds the element type and length instead.
///
/// The header is one 64-bit word, read and written only through the
/// accessors below:
///  - an instance's word is its TIB pointer, whose alignment (alignof(TIB)
///    = 64) leaves the low six bits for the flags; its slot count is its
///    class's (TIB::Cls->SlotTypes);
///  - an array's word is the flags, the element type at ElemTyShift and the
///    length at LengthShift;
///  - a size-class slot the sweep freed holds NextFree | FreeBit, the next
///    free slot of its block (runtime/Heap.cpp). Slots are 8-byte aligned,
///    so FreeBit and MarkBit sit in the low three bits, where the link
///    leaves them clear.
/// Outside a stop-the-world closure only the object's owning thread writes
/// the word (allocation, part I's TIB swing, the constructor-exit stamp);
/// mark, sweep and plan-install migration write it with the world stopped
/// (docs/threads.md), so it needs no atomics.
///
/// Host layout versus simulated accounting: the host header is 8 bytes
/// (sizeof(Object)), and an object's host footprint is that plus 8 bytes a
/// slot, rounded up to its size class (runtime/Heap.h). The simulated heap
/// still charges the paper's 24-byte header (allocBytes), so the GC trigger
/// and every simulated cycle are independent of the host layout.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_RUNTIME_OBJECT_H
#define DCHM_RUNTIME_OBJECT_H

#include "ir/Type.h"
#include "runtime/TIB.h"
#include "runtime/Value.h"

#include <cstdint>

namespace dchm {

/// Header + inline slots of a heap object or array.
struct Object {
  /// Flag bits of the header word.
  static constexpr uint64_t FreeBit = 1 << 0; ///< a freed size-class slot
  static constexpr uint64_t MarkBit = 1 << 1; ///< reached by the current GC
  /// Set when the heap gave this object its own anonymous mapping (large
  /// objects); clear for a size-class slot, and for a large object whose
  /// mapping failed and came from ::operator new. Tells the sweep how to
  /// free a large object.
  static constexpr uint64_t MappedBit = 1 << 2;
  static constexpr uint64_t ArrayBit = 1 << 3;
  /// Set by the VM when the outermost constructor for this object exits
  /// (the point where algorithm part I first classifies it). The
  /// consistency auditor uses it to tell "not yet classified" apart from
  /// "must match its state": before the ctor-exit action an object
  /// legitimately sits on its class TIB whatever its fields hold.
  static constexpr uint64_t CtorDoneBit = 1 << 4;
  /// The bits an instance's TIB pointer leaves free.
  static constexpr uint64_t FlagMask = alignof(TIB) - 1;
  static constexpr unsigned ElemTyShift = 8;
  static constexpr unsigned LengthShift = 32;

  explicit Object(uint64_t Header) : Header(Header) {}

  /// The header word of a new instance on Tib, or of a new array.
  static uint64_t instanceHeader(TIB *Tib) {
    return reinterpret_cast<uintptr_t>(Tib);
  }
  static uint64_t arrayHeader(Type ElemTy, uint32_t Len) {
    return ArrayBit | static_cast<uint64_t>(ElemTy) << ElemTyShift |
           static_cast<uint64_t>(Len) << LengthShift;
  }

  bool isArray() const { return Header & ArrayBit; }

  /// The object's current virtual function table. For a mutated object
  /// this is one of the class's special TIBs. Null for arrays.
  TIB *tib() const {
    return isArray() ? nullptr : reinterpret_cast<TIB *>(Header & ~FlagMask);
  }
  /// Re-points an instance's TIB, keeping its flags.
  void setTib(TIB *T) {
    Header = (Header & FlagMask) | reinterpret_cast<uintptr_t>(T);
  }

  /// Array: element count and element type (drives GC reference scanning).
  uint32_t length() const {
    return static_cast<uint32_t>(Header >> LengthShift);
  }
  Type elemTy() const {
    return static_cast<Type>((Header >> ElemTyShift) & 0xFF);
  }
  /// Instance: its class's field count (read through the TIB). Array: its
  /// length.
  uint32_t numSlots() const;

  bool isMarked() const { return Header & MarkBit; }
  void setMarked() { Header |= MarkBit; }
  void clearMarked() { Header &= ~MarkBit; }
  bool isMapped() const { return Header & MappedBit; }
  bool ctorDone() const { return Header & CtorDoneBit; }
  void setCtorDone() { Header |= CtorDoneBit; }

  /// Set on a size-class slot the sweep freed: it holds no object, and
  /// nextFree() links it into its block's free list.
  bool isFree() const { return Header & FreeBit; }
  Object *nextFree() const {
    return reinterpret_cast<Object *>(Header & ~FreeBit);
  }
  void setFree(Object *Next) {
    Header = reinterpret_cast<uintptr_t>(Next) | FreeBit;
  }

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

private:
  uint64_t Header;
};

static_assert(sizeof(Object) == 8, "the host header is one word; the "
                                   "simulated one is SimHeaderBytes");
static_assert(alignof(TIB) >= 64, "an instance header keeps its flags in "
                                  "the TIB pointer's low bits");
static_assert(Object::CtorDoneBit <= Object::FlagMask);

} // namespace dchm

#endif // DCHM_RUNTIME_OBJECT_H
