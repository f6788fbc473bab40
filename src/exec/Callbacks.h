//===-- exec/Callbacks.h - Runtime event callbacks ------------*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interpreter reports the events the paper's machinery hangs off of:
/// lazy/adaptive compilation requests, hotness samples, and the three
/// trigger points of the distributed dynamic class mutation algorithm
/// (instance state-field assignments, static state-field assignments, and
/// constructor exits — Figure 4). The VM facade implements this interface
/// and fans out to the adaptive system and the mutation engine.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_EXEC_CALLBACKS_H
#define DCHM_EXEC_CALLBACKS_H

#include "runtime/Entities.h"
#include "runtime/Object.h"

namespace dchm {

/// Event sink for the interpreter.
class VMCallbacks {
public:
  virtual ~VMCallbacks() = default;

  /// Lazy compilation: make sure M has current general compiled code
  /// installed in its dispatch structures and return it.
  virtual CompiledMethod *ensureCompiled(MethodInfo &M) = 0;

  /// Hotness sample on method entry (may recompile synchronously).
  virtual void onMethodEntry(MethodInfo &M) = 0;

  /// Hotness sample on a loop back edge.
  virtual void onBackedge(MethodInfo &M) = 0;

  /// An instance state field of O was just assigned (algorithm part I).
  /// DuringConstruction is true when the assignment happens inside a
  /// constructor running on O itself; Figure 4 defers those to the
  /// constructor-exit action instead of patching every ctor store.
  virtual void onInstanceStateStore(Object *O, FieldInfo &F,
                                    bool DuringConstruction) = 0;

  /// A static state field was just assigned (algorithm part I).
  virtual void onStaticStateStore(FieldInfo &F) = 0;

  /// A constructor of a mutable class just returned for object O.
  virtual void onConstructorExit(Object *O, MethodInfo &Ctor) = 0;
};

} // namespace dchm

#endif // DCHM_EXEC_CALLBACKS_H
