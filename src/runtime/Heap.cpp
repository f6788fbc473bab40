//===-- runtime/Heap.cpp - Allocator and mark-sweep collector --------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"

#include "support/Debug.h"

#include <cstdio>
#include <new>

#include <sys/mman.h>

namespace dchm {

namespace {
// Simulated-cycle cost model for collection: a pause constant plus per-object
// mark and sweep work. Chosen so GC is a visible but secondary cost for the
// 50 MB-heap applications and a first-order cost for the allocation-heavy
// SPECjbb-like workloads, matching the paper's observation that jbb2005 is
// much more memory-aggressive than jbb2000.
constexpr uint64_t GcPauseCycles = 20000;
constexpr uint64_t GcMarkCyclesPerObject = 24;
constexpr uint64_t GcSweepCyclesPerObject = 6;

/// Objects of at least this size (four 4 KiB pages) get their own private
/// anonymous mapping, whose pages read as zero without a fill (see Heap.h).
/// One whose mapping fails (ENOMEM, vm.max_map_count) takes the small-object
/// path: ::operator new and a zero fill.
constexpr size_t LargeObjectBytes = 16 << 10;

Object *newObject(size_t Bytes, uint32_t NumSlots) {
  if (Bytes >= LargeObjectBytes) {
    void *Mem = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (Mem != MAP_FAILED) {
      Object *O = new (Mem) Object();
      O->Mapped = 1;
      return O;
    }
  }
  Object *O = new (::operator new(Bytes)) Object();
  for (uint32_t I = 0; I < NumSlots; ++I)
    O->slots()[I] = zeroValue();
  return O;
}

void freeObject(Object *O) {
  if (!O->Mapped) {
    ::operator delete(static_cast<void *>(O));
    return;
  }
  size_t Bytes = Object::allocBytes(O->NumSlots);
  // Unmapping the middle of a merged mapping splits it, which fails at
  // vm.max_map_count; then at least hand the pages back.
  if (::munmap(O, Bytes) != 0)
    ::madvise(O, Bytes, MADV_DONTNEED);
}
} // namespace

Heap::Heap(size_t BudgetBytes, unsigned Contexts)
    : Budget(BudgetBytes), Buffers(Contexts) {
  DCHM_CHECK(Budget >= 4096, "heap budget too small");
  DCHM_CHECK(Contexts >= 1, "heap needs an allocation buffer");
}

Heap::~Heap() {
  foldBuffers();
  Object *O = AllObjects;
  while (O) {
    Object *Next = O->NextAlloc;
    freeObject(O);
    O = Next;
  }
}

void Heap::foldBuffers() {
  for (AllocBuffer &B : Buffers) {
    if (!B.Head)
      continue;
    *B.TailLink = AllObjects;
    AllObjects = B.Head;
    B.Head = nullptr;
    B.TailLink = nullptr;
  }
}

HeapStats Heap::stats() const {
  HeapStats S;
  S.GcCount = GcCount;
  S.GcCycles = GcCycles;
  for (const AllocBuffer &B : Buffers) {
    S.BytesAllocated += B.BytesAllocated.load(std::memory_order_relaxed);
    S.ObjectsAllocated += B.ObjectsAllocated.load(std::memory_order_relaxed);
  }
  S.UsedBytes = UsedBytes.load(std::memory_order_relaxed);
  S.PeakBytes = PeakBytes.load(std::memory_order_relaxed);
  return S;
}

void Heap::recordBudgetError(size_t Used, size_t Requested) {
  if (BudgetErr)
    return;
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "heap budget exhausted: %zu bytes live + %zu requested "
                "exceeds budget of %zu bytes%s",
                Used, Requested, Budget,
                Roots ? " after collection" : " (no GC roots registered)");
  BudgetErr = VMError::error(Buf);
}

Object *Heap::allocateRaw(uint32_t NumSlots, unsigned Ctx) {
  size_t Bytes = Object::allocBytes(NumSlots);
  auto OverBudget = [&] {
    return UsedBytes.load(std::memory_order_relaxed) + Bytes > Budget;
  };
  // Over budget: collect with the world stopped. The closure re-checks, so
  // a thread that lost the race to a just-finished collection does not run
  // another. Soft budget: allocation proceeds even when the collection did
  // not free enough (the run stays deterministic; cycles for the attempted
  // GC were charged), but the overrun is recorded as a sticky recoverable
  // error the embedder can surface instead of silently pretending the heap
  // fit.
  if (OverBudget())
    SafeExec([&] {
      if (OverBudget() && Roots)
        collectStopped();
      if (OverBudget())
        recordBudgetError(UsedBytes.load(std::memory_order_relaxed), Bytes);
    });
  Object *O = newObject(Bytes, NumSlots);
  O->NumSlots = NumSlots;
  // One thread at a time owns a buffer, so its counters need no atomic
  // read-modify-write; the shared watermark does.
  AllocBuffer &B = Buffers[Ctx];
  O->NextAlloc = B.Head;
  if (!B.Head)
    B.TailLink = &O->NextAlloc;
  B.Head = O;
  B.BytesAllocated.store(
      B.BytesAllocated.load(std::memory_order_relaxed) + Bytes,
      std::memory_order_relaxed);
  B.ObjectsAllocated.store(
      B.ObjectsAllocated.load(std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
  size_t Used = UsedBytes.fetch_add(Bytes, std::memory_order_relaxed) + Bytes;
  size_t Peak = PeakBytes.load(std::memory_order_relaxed);
  while (Used > Peak &&
         !PeakBytes.compare_exchange_weak(Peak, Used,
                                          std::memory_order_relaxed)) {
  }
  return O;
}

Object *Heap::allocateInstance(const ClassInfo &C, TIB *Tib, unsigned Ctx) {
  DCHM_CHECK(Tib != nullptr, "instance needs a TIB");
  Object *O = allocateRaw(static_cast<uint32_t>(C.SlotTypes.size()), Ctx);
  O->Tib = Tib;
  O->IsArray = false;
  return O;
}

Object *Heap::allocateArray(Type ElemTy, int64_t Len, unsigned Ctx) {
  DCHM_CHECK(Len >= 0, "negative array length");
  DCHM_CHECK(Len <= 0x7FFFFFFF, "array too large");
  Object *O = allocateRaw(static_cast<uint32_t>(Len), Ctx);
  O->Tib = nullptr;
  O->IsArray = true;
  O->ElemTy = ElemTy;
  return O;
}

void Heap::mark(Object *O, std::vector<Object *> &Work) {
  if (!O || O->Mark)
    return;
  O->Mark = 1;
  Work.push_back(O);
}

void Heap::collect() {
  SafeExec([this] { collectStopped(); });
}

void Heap::collectStopped() {
  DCHM_CHECK(Roots, "collect() without a root provider");
  foldBuffers();
  ++GcCount;
  uint64_t Marked = 0, Swept = 0;

  std::vector<Object *> Work;
  std::vector<Object *> RootSet;
  Roots->enumerateRoots(RootSet);
  for (RootProvider *Extra : ExtraRoots)
    Extra->enumerateRoots(RootSet);
  for (Object *O : RootSet)
    mark(O, Work);

  while (!Work.empty()) {
    Object *O = Work.back();
    Work.pop_back();
    ++Marked;
    if (O->IsArray) {
      if (O->ElemTy == Type::Ref)
        for (uint32_t I = 0; I < O->NumSlots; ++I)
          mark(O->slots()[I].R, Work);
      continue;
    }
    const std::vector<Type> &Layout = O->Tib->Cls->SlotTypes;
    for (uint32_t I = 0; I < O->NumSlots; ++I)
      if (Layout[I] == Type::Ref)
        mark(O->slots()[I].R, Work);
  }

  size_t Freed = 0;
  Object **Link = &AllObjects;
  while (*Link) {
    Object *O = *Link;
    if (O->Mark) {
      O->Mark = 0;
      Link = &O->NextAlloc;
      continue;
    }
    *Link = O->NextAlloc;
    Freed += Object::allocBytes(O->NumSlots);
    freeObject(O);
    ++Swept;
  }

  UsedBytes.fetch_sub(Freed, std::memory_order_relaxed);
  GcCycles += GcPauseCycles + GcMarkCyclesPerObject * Marked +
              GcSweepCyclesPerObject * Swept;
}

} // namespace dchm
