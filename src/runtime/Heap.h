//===-- runtime/Heap.h - Allocator and mark-sweep collector ---*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MiniVM heap: a bounded allocator with a stop-the-world, non-moving
/// mark-sweep collector. The paper's algorithm deliberately avoids keeping a
/// registry of mutable-class instances because the Jikes GC can move objects
/// (section 3.2.2); our collector is non-moving, but the mutation engine
/// still follows the paper's design and only touches objects at the field
/// assignments where a pointer is in hand. GC cost is charged to the run in
/// simulated cycles, which is what gives the SPECjbb2005 variant its extra
/// memory pressure relative to SPECjbb2000 (Figure 9's 1.9% vs 4.5%).
///
/// Host memory is separate from the simulated budget. Small objects come
/// from ::operator new and are zero-filled. An object of 16 KiB or more
/// lives in its own anonymous mapping, like Jikes' large-object space: it
/// is not zero-filled, and it is unmapped when swept. Its pages hold no
/// host memory until the guest writes them, so host RSS follows the pages
/// written, not the bytes the budget charges (Object::allocBytes either
/// way).
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_RUNTIME_HEAP_H
#define DCHM_RUNTIME_HEAP_H

#include "runtime/Entities.h"
#include "runtime/Object.h"
#include "runtime/TIB.h"
#include "support/Error.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace dchm {

/// Supplies the GC's root set. Implemented by the interpreter (frame
/// registers), the VM facade (JTOC static reference slots), and tests.
class RootProvider {
public:
  virtual ~RootProvider() = default;
  /// Appends every root object pointer to Roots (nulls are tolerated).
  virtual void enumerateRoots(std::vector<Object *> &Roots) = 0;
};

/// Heap statistics reported by the experiment harness.
struct HeapStats {
  uint64_t GcCount = 0;
  uint64_t GcCycles = 0; ///< Simulated cycles spent collecting.
  uint64_t BytesAllocated = 0;
  uint64_t ObjectsAllocated = 0;
  size_t UsedBytes = 0;
  size_t PeakBytes = 0;
};

/// Bounded mark-sweep heap with one allocation buffer per mutator context.
class Heap {
public:
  /// Contexts is the number of mutator contexts, one allocation buffer
  /// each; the VM passes its mutator thread count.
  explicit Heap(size_t BudgetBytes, unsigned Contexts = 1);
  ~Heap();
  Heap(const Heap &) = delete;
  Heap &operator=(const Heap &) = delete;

  /// Must be set before the first allocation that can exceed the budget.
  void setRootProvider(RootProvider *P) { Roots = P; }

  /// Registers an additional root provider consulted by every collection,
  /// on top of the primary one. This is the supported way for host code
  /// (tests, tools, embedders) to pin objects it holds in C++ storage the
  /// VM cannot see; see LocalRootScope for the RAII wrapper.
  void addRootProvider(RootProvider *P) { ExtraRoots.push_back(P); }
  void removeRootProvider(RootProvider *P) {
    for (size_t I = ExtraRoots.size(); I > 0; --I)
      if (ExtraRoots[I - 1] == P) {
        ExtraRoots.erase(ExtraRoots.begin() + static_cast<long>(I - 1));
        return;
      }
  }

  /// Allocates an instance of C with zeroed fields and the given TIB
  /// (normally C's class TIB; a constructor-exit mutation may re-point it).
  /// Ctx names the allocating mutator context: interpreter T passes T,
  /// host-side callers use context 0. Two threads must never allocate
  /// through one context at the same time.
  Object *allocateInstance(const ClassInfo &C, TIB *Tib, unsigned Ctx = 0);

  /// Allocates an array of Len elements of ElemTy, zero-initialized.
  Object *allocateArray(Type ElemTy, int64_t Len, unsigned Ctx = 0);

  /// Forces a collection (also triggered automatically by allocation),
  /// through the safepoint executor so it runs with every mutator stopped.
  void collect();

  /// Runs whole-heap work (GC) with the world stopped. The default is a
  /// plain call; the VM routes it through its safepoint rendezvous, which
  /// is itself a plain call with one mutator.
  using SafepointExecutor =
      std::function<void(const std::function<void()> &)>;
  void setSafepointExecutor(SafepointExecutor E) { SafeExec = std::move(E); }

  /// Visits every allocated object (live or not-yet-collected garbage),
  /// newest first within each buffer. Used by the online value profiler's
  /// heap census; a stop-the-world walk, like a collection without the
  /// sweep. With more than one mutator it is only safe at a safepoint (the
  /// buffers are walked unsynchronized).
  void forEachObject(const std::function<void(Object *)> &Fn) const {
    for (const AllocBuffer &B : Buffers)
      for (Object *O = B.Head; O; O = O->NextAlloc)
        Fn(O);
    for (Object *O = AllObjects; O; O = O->NextAlloc)
      Fn(O);
  }

  /// A snapshot of the counters. Any thread may call it; a collection
  /// changes GcCount and GcCycles only with the world stopped.
  HeapStats stats() const;
  size_t budgetBytes() const { return Budget; }

  /// Sticky recoverable error recorded the first time an allocation is
  /// still over budget after a collection (the allocator is soft: it
  /// proceeds so the run stays deterministic, but the overrun is no longer
  /// silent). Surfaced by VirtualMachine::run(); tools treat it as a
  /// recoverable failure rather than aborting.
  const VMError &budgetError() const { return BudgetErr; }
  void clearBudgetError() { BudgetErr = VMError(); }

private:
  /// One mutator context's allocation buffer: the objects it allocated
  /// since the last collection (newest first) and its lifetime allocation
  /// counts. Only its own context writes it; a collection splices the list
  /// into AllObjects with the world stopped. The counters are atomics so
  /// stats() can sum them from any thread; alignas keeps two contexts'
  /// counters off one cache line.
  struct alignas(64) AllocBuffer {
    Object *Head = nullptr;
    Object **TailLink = nullptr; ///< &oldest->NextAlloc, for O(1) splicing
    std::atomic<uint64_t> BytesAllocated{0};
    std::atomic<uint64_t> ObjectsAllocated{0};
  };

  Object *allocateRaw(uint32_t NumSlots, unsigned Ctx);
  /// The collection proper; the caller guarantees the world is stopped.
  void collectStopped();
  /// Splices every buffer's list into AllObjects (world stopped).
  void foldBuffers();
  void recordBudgetError(size_t Used, size_t Requested);
  void mark(Object *O, std::vector<Object *> &Work);

  size_t Budget;
  RootProvider *Roots = nullptr;
  std::vector<RootProvider *> ExtraRoots;
  std::vector<AllocBuffer> Buffers;
  Object *AllObjects = nullptr; ///< objects older than the last collection
  /// The live-bytes watermark the GC trigger reads: bumped by every
  /// allocation, lowered by each sweep. Exact at any mutator count.
  std::atomic<size_t> UsedBytes{0};
  std::atomic<size_t> PeakBytes{0};
  uint64_t GcCount = 0;  ///< written world-stopped
  uint64_t GcCycles = 0; ///< written world-stopped
  VMError BudgetErr;     ///< written world-stopped
  SafepointExecutor SafeExec = [](const std::function<void()> &Fn) { Fn(); };
};

/// RAII root registration for objects held in host (C++) storage: anything
/// add()ed stays alive across collections for the scope's lifetime. This
/// replaces the old test idiom of sizing the heap large enough that no GC
/// could run while a test-local vector held unrooted pointers.
class LocalRootScope : public RootProvider {
public:
  explicit LocalRootScope(Heap &H) : H(H) { H.addRootProvider(this); }
  ~LocalRootScope() override { H.removeRootProvider(this); }
  LocalRootScope(const LocalRootScope &) = delete;
  LocalRootScope &operator=(const LocalRootScope &) = delete;

  void add(Object *O) { Pinned.push_back(O); }
  Object *operator[](size_t I) const { return Pinned[I]; }
  size_t size() const { return Pinned.size(); }
  bool empty() const { return Pinned.empty(); }
  const std::vector<Object *> &objects() const { return Pinned; }

  void enumerateRoots(std::vector<Object *> &Roots) override {
    Roots.insert(Roots.end(), Pinned.begin(), Pinned.end());
  }

private:
  Heap &H;
  std::vector<Object *> Pinned;
};

} // namespace dchm

#endif // DCHM_RUNTIME_HEAP_H
