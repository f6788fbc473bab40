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
/// Host memory is separate from the simulated budget, which charges
/// Object::allocBytes (a 24-byte header plus 8 bytes a slot) whatever the
/// host layout. On the host an object is a one-word (8-byte) header plus its
/// slots (runtime/Object.h):
///  - Under 16 KiB, it takes a slot of the smallest size class that fits,
///    in a block: a 16 KiB run of a 1 MiB chunk mapping the Heap owns,
///    cut into equal slots of one class (a segregated free-list space,
///    like Jikes GenMS's mark-sweep space). Each mutator context has one
///    current block per class and allocates from it without a lock. The
///    sweep walks every block: an unmarked slot joins its block's free
///    list, threaded through the slots themselves, and a block left with
///    no live object returns to a pool any class can take. Slots are
///    zero-filled on allocation.
///  - At 16 KiB or more (2,047 slots or more) it gets its own anonymous
///    mapping, like Jikes' large-object space: not zero-filled, unmapped
///    when swept. Its pages hold no host memory until the guest writes
///    them.
/// Either way, untouched pages cost no host memory, so host RSS follows
/// the bytes written, not the bytes the budget charges. ~Heap unmaps
/// everything. An instance's slot count is read through its TIB, so the
/// Program that owns the TIBs must outlive the Heap.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_RUNTIME_HEAP_H
#define DCHM_RUNTIME_HEAP_H

#include "runtime/Entities.h"
#include "runtime/Object.h"
#include "runtime/TIB.h"
#include "support/Error.h"

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
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

/// Bounded mark-sweep heap with per-mutator-context allocation state.
class Heap {
public:
  /// The number of size classes; see Heap.cpp for their byte sizes.
  static constexpr unsigned NumSizeClasses = 39;

  /// Contexts is the number of mutator contexts, each with its own current
  /// blocks; the VM passes its mutator thread count.
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

  /// Visits every allocated object (live or not-yet-collected garbage):
  /// the blocks' occupied slots in block and address order, then the
  /// large objects. The order follows host addresses, not allocation, so
  /// a caller must not depend on it: each consumer (the value profiler's
  /// census, plan install's migration and the consistency auditor) does
  /// per-object work that reads only that object and sums or sets its
  /// results. Used as a stop-the-world walk, like a collection without the
  /// sweep; with more than one mutator it is only safe at a safepoint (the
  /// blocks are walked unsynchronized).
  void forEachObject(const std::function<void(Object *)> &Fn) const;

  /// A snapshot of the counters. Any thread may call it; a collection
  /// changes GcCount and GcCycles only with the world stopped.
  HeapStats stats() const;

  /// Sticky recoverable error recorded the first time an allocation is
  /// still over budget after a collection (the allocator is soft: it
  /// proceeds so the run stays deterministic, but the overrun is no longer
  /// silent). Surfaced by VirtualMachine::run(); tools treat it as a
  /// recoverable failure rather than aborting.
  const VMError &budgetError() const { return BudgetErr; }
  void clearBudgetError() { BudgetErr = VMError(); }

private:
  /// A 16 KiB run of a chunk mapping, cut into equal slots of one size
  /// class; Class is NoClass while it sits empty in the pool. Slots below
  /// Top have held an object; a freed one has Object::FreeBit set and links
  /// the next free slot through its header (Object::nextFree).
  struct Block {
    char *Base = nullptr;
    uint32_t Top = 0;
    uint8_t Class = NoClass;
    Object *FreeList = nullptr; ///< in address order after a sweep
  };
  static constexpr uint8_t NoClass = 0xFF;

  /// One mutator context's allocation state: its current block per size
  /// class, its large objects, and its lifetime allocation counts. Only
  /// its own context writes it, except a collection, which runs with the
  /// world stopped. The counters are atomics so stats() can sum them from
  /// any thread; alignas keeps two contexts' counters off one cache line.
  struct alignas(64) Context {
    std::array<Block *, NumSizeClasses> Current{};
    std::vector<Object *> Large;
    std::atomic<uint64_t> BytesAllocated{0};
    std::atomic<uint64_t> ObjectsAllocated{0};
  };

  /// Allocates NumSlots zeroed slots under the header word Header.
  Object *allocateRaw(uint32_t NumSlots, uint64_t Header, unsigned Ctx);
  /// A free slot of Class from Ctx's current block, refilling it if full.
  Object *allocateSmall(unsigned Class, Context &Ctx);
  /// A block of Class with a free slot for a context to make current: one
  /// the last sweep left partly free, an empty one, or a fresh one.
  Block *takeBlock(unsigned Class);
  /// Calls Fn on every occupied slot of B.
  template <typename F> static void forEachSlot(const Block &B, F &&Fn);
  /// The collection proper; the caller guarantees the world is stopped.
  void collectStopped();
  /// Frees every unmarked object and clears the survivors' marks (world
  /// stopped). Returns the simulated bytes freed and adds to Swept.
  size_t sweep(uint64_t &Swept);
  void recordBudgetError(size_t Used, size_t Requested);
  void mark(Object *O, std::vector<Object *> &Work);

  size_t Budget;
  RootProvider *Roots = nullptr;
  std::vector<RootProvider *> ExtraRoots;
  std::vector<Context> Contexts;
  /// Guards the block bookkeeping below against concurrent refills; a
  /// collection touches it with the world stopped.
  std::mutex BlockMu;
  std::deque<Block> Blocks; ///< every block, in carving order
  /// Per class, the blocks with room that no context holds as current.
  std::array<std::vector<Block *>, NumSizeClasses> Partial;
  std::vector<Block *> EmptyBlocks; ///< reusable by any class
  std::vector<char *> Chunks;       ///< the block mappings, for ~Heap
  char *ChunkCursor = nullptr;      ///< the next uncarved block
  char *ChunkEnd = nullptr;
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
