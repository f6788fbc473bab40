//===-- runtime/TIB.h - Type information blocks and the IMT ---*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The TIB (Type Information Block) is Jikes' virtual function table: per
/// class, an array of compiled-code pointers plus a type-information entry.
/// Dynamic class hierarchy mutation works by cloning a class TIB into one
/// "special TIB" per hot state and re-pointing object TIB pointers between
/// them. Type tests (`instanceof`/`checkcast`) must consult the TIB's
/// type-information entry (`Cls`), never TIB identity, because a mutated
/// object's TIB is not the class TIB (paper section 3.2.3).
///
/// The IMT (Interface Method Table) is the fixed-size hashed dispatch table
/// for interface calls. A single class TIB and all of its special TIBs share
/// one IMT; to make interface dispatch respect mutation, single-method slots
/// of mutable classes store a *TIB slot offset* (one extra load through the
/// object's current TIB) instead of a direct code pointer.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_RUNTIME_TIB_H
#define DCHM_RUNTIME_TIB_H

#include "ir/Ids.h"

#include <cstdint>
#include <vector>

namespace dchm {

class CompiledMethod;
struct ClassInfo;

/// Number of IMT slots; a fixed static compilation constant in Jikes.
constexpr uint32_t NumImtSlots = 8;

/// One IMT slot.
struct ImtEntry {
  enum class Kind : uint8_t {
    Empty,     ///< No interface method hashes here.
    Direct,    ///< One method; slot holds the compiled-code pointer.
    TibOffset, ///< One method of a *mutable* class; slot holds a TIB offset
               ///< so dispatch sees the object's current (special) TIB.
    Conflict,  ///< Multiple methods; a stub searches by interface method id.
  };
  Kind K = Kind::Empty;

  /// Direct: the implementing method (for code-pointer updates on
  /// recompilation) and its current compiled code.
  MethodId DirectImpl = NoMethodId;
  CompiledMethod *DirectCode = nullptr;

  /// TibOffset: virtual slot index to read through the receiver's TIB.
  uint32_t VSlot = 0;

  /// Conflict: (interface method id, TIB slot of the implementation) pairs,
  /// searched linearly by the conflict stub.
  std::vector<std::pair<MethodId, uint32_t>> Table;
};

/// Interface method table, shared by a class TIB and its special TIBs.
struct IMT {
  ImtEntry Slots[NumImtSlots];
};

/// A virtual function table: the class TIB (StateIndex == -1) or a special
/// TIB corresponding to one hot state of a mutable class. Aligned to 64
/// bytes so an object's header word keeps its flag bits below the TIB
/// pointer (runtime/Object.h).
struct alignas(64) TIB {
  /// Type-information entry: the class this TIB describes. Identical across
  /// a class TIB and all of its special TIBs.
  ClassInfo *Cls = nullptr;
  /// Which hot state this TIB matches, or -1 for the class TIB.
  int StateIndex = -1;
  /// Compiled-code pointer per method slot.
  std::vector<CompiledMethod *> Slots;
  /// Shared interface method table (null for classes implementing nothing).
  IMT *Imt = nullptr;

  bool isSpecial() const { return StateIndex >= 0; }

  /// Modeled memory footprint in bytes. The paper reports TIB space on a
  /// 32-bit VM: a handful of header words (type information, superclass ids,
  /// IMT pointer, GC metadata) plus one word per method slot.
  size_t sizeBytes() const { return (6 + Slots.size()) * 4; }
};

} // namespace dchm

#endif // DCHM_RUNTIME_TIB_H
