//===-- runtime/Heap.cpp - Allocator and mark-sweep collector --------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"

#include "support/Debug.h"

#include <cstdio>
#include <iterator>
#include <new>

#include <sys/mman.h>

// Without AddressSanitizer these macros evaluate their arguments and do
// nothing.
#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(Addr, Size) ((void)(Addr), (void)(Size))
#define ASAN_UNPOISON_MEMORY_REGION(Addr, Size) ((void)(Addr), (void)(Size))
#endif

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

/// Objects of at least this many host bytes (four 4 KiB pages) get their
/// own private anonymous mapping, whose pages read as zero without a fill
/// (see Heap.h). One whose mapping fails (ENOMEM, vm.max_map_count) comes
/// from ::operator new with a zero fill instead.
constexpr size_t LargeObjectBytes = 16 << 10;

/// Small-object blocks: BlockBytes each, carved in order from ChunkBytes
/// mappings. A block is page-aligned and holds at least one slot of the
/// largest class.
constexpr uint32_t BlockBytes = 16 << 10;
constexpr size_t ChunkBytes = 1 << 20;

/// Slot bytes per size class. Up to 1 KiB: 8-byte steps to 64, which fit
/// the common instances exactly (the 8-byte header plus 0-7 slots), then
/// four classes per doubling. Above 1 KiB a class is the largest multiple
/// of 8 that packs k slots into a block, for k = 15 down to 1: any size
/// between two of them fits the same number of slots per block, so these
/// waste the least block space.
constexpr uint32_t ClassBytes[] = {
    8,    16,   24,   32,   40,   48,   56,   64,   80,   96,
    112,  128,  160,  192,  224,  256,  320,  384,  448,  512,
    640,  768,  896,  1024, 1088, 1168, 1256, 1360, 1488, 1632,
    1816, 2048, 2336, 2728, 3272, 4096, 5456, 8192, 16384};
static_assert(std::size(ClassBytes) == Heap::NumSizeClasses);
static_assert(ClassBytes[0] == sizeof(Object));
static_assert(ClassBytes[Heap::NumSizeClasses - 1] >= LargeObjectBytes - 8 &&
              ClassBytes[Heap::NumSizeClasses - 1] <= BlockBytes);

/// The size class of every host size under LargeObjectBytes, indexed by
/// bytes / 8 (host sizes are multiples of 8).
constexpr auto ClassOf = [] {
  std::array<uint8_t, LargeObjectBytes / 8> T{};
  unsigned C = 0;
  for (size_t I = 0; I < T.size(); ++I) {
    while (ClassBytes[C] < I * 8)
      ++C;
    T[I] = static_cast<uint8_t>(C);
  }
  return T;
}();

Object *newLargeObject(size_t Bytes, uint32_t NumSlots, uint64_t Header) {
  void *Mem = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Mem != MAP_FAILED)
    return new (Mem) Object(Header | Object::MappedBit);
  Object *O = new (::operator new(Bytes)) Object(Header);
  for (uint32_t I = 0; I < NumSlots; ++I)
    O->slots()[I] = zeroValue();
  return O;
}

void freeLargeObject(Object *O) {
  if (!O->isMapped()) {
    ::operator delete(static_cast<void *>(O));
    return;
  }
  size_t Bytes = Object::hostBytes(O->numSlots());
  // Unmapping the middle of a merged mapping splits it, which fails at
  // vm.max_map_count; then at least hand the pages back.
  if (::munmap(O, Bytes) != 0)
    ::madvise(O, Bytes, MADV_DONTNEED);
}
} // namespace

uint32_t Object::numSlots() const {
  return isArray() ? length()
                   : static_cast<uint32_t>(tib()->Cls->SlotTypes.size());
}

Heap::Heap(size_t BudgetBytes, unsigned Contexts)
    : Budget(BudgetBytes), Contexts(Contexts) {
  DCHM_CHECK(Budget >= 4096, "heap budget too small");
  DCHM_CHECK(Contexts >= 1, "heap needs a mutator context");
}

Heap::~Heap() {
  for (const Context &C : Contexts)
    for (Object *O : C.Large)
      freeLargeObject(O);
  for (char *Chunk : Chunks) {
    ASAN_UNPOISON_MEMORY_REGION(Chunk, ChunkBytes);
    ::munmap(Chunk, ChunkBytes);
  }
}

template <typename F> void Heap::forEachSlot(const Block &B, F &&Fn) {
  if (B.Class == NoClass)
    return;
  const uint32_t Size = ClassBytes[B.Class];
  for (uint32_t Off = 0; Off < B.Top; Off += Size)
    Fn(reinterpret_cast<Object *>(B.Base + Off));
}

void Heap::forEachObject(const std::function<void(Object *)> &Fn) const {
  for (const Block &B : Blocks)
    forEachSlot(B, [&](Object *O) {
      if (!O->isFree())
        Fn(O);
    });
  for (const Context &C : Contexts)
    for (Object *O : C.Large)
      Fn(O);
}

HeapStats Heap::stats() const {
  HeapStats S;
  S.GcCount = GcCount;
  S.GcCycles = GcCycles;
  for (const Context &C : Contexts) {
    S.BytesAllocated += C.BytesAllocated.load(std::memory_order_relaxed);
    S.ObjectsAllocated += C.ObjectsAllocated.load(std::memory_order_relaxed);
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

Object *Heap::allocateRaw(uint32_t NumSlots, uint64_t Header, unsigned Ctx) {
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
  Context &C = Contexts[Ctx];
  const size_t Host = Object::hostBytes(NumSlots);
  Object *O;
  if (Host < LargeObjectBytes) {
    // Under AddressSanitizer only the object's own bytes are addressable:
    // the slot's tail stays poisoned, and a swept slot is poisoned past its
    // header (sweep), so a stale pointer faults where it is used.
    const unsigned Class = ClassOf[Host / 8];
    char *Slot = reinterpret_cast<char *>(allocateSmall(Class, C));
    ASAN_UNPOISON_MEMORY_REGION(Slot, Host);
    ASAN_POISON_MEMORY_REGION(Slot + Host, ClassBytes[Class] - Host);
    O = new (Slot) Object(Header);
    for (uint32_t I = 0; I < NumSlots; ++I)
      O->slots()[I] = zeroValue();
  } else {
    O = newLargeObject(Host, NumSlots, Header);
    C.Large.push_back(O);
  }
  // One thread at a time owns a context, so its counters need no atomic
  // read-modify-write; the shared watermark does.
  C.BytesAllocated.store(
      C.BytesAllocated.load(std::memory_order_relaxed) + Bytes,
      std::memory_order_relaxed);
  C.ObjectsAllocated.store(
      C.ObjectsAllocated.load(std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
  size_t Used = UsedBytes.fetch_add(Bytes, std::memory_order_relaxed) + Bytes;
  size_t Peak = PeakBytes.load(std::memory_order_relaxed);
  while (Used > Peak &&
         !PeakBytes.compare_exchange_weak(Peak, Used,
                                          std::memory_order_relaxed)) {
  }
  return O;
}

Object *Heap::allocateSmall(unsigned Class, Context &C) {
  for (;;) {
    if (Block *B = C.Current[Class]) {
      if (Object *O = B->FreeList) {
        B->FreeList = O->nextFree();
        return O;
      }
      if (B->Top + ClassBytes[Class] <= BlockBytes) {
        Object *O = reinterpret_cast<Object *>(B->Base + B->Top);
        B->Top += ClassBytes[Class];
        return O;
      }
    }
    // Full: it stays in Blocks for the sweep; take another.
    C.Current[Class] = takeBlock(Class);
  }
}

Heap::Block *Heap::takeBlock(unsigned Class) {
  std::lock_guard<std::mutex> Lock(BlockMu);
  if (!Partial[Class].empty()) {
    Block *B = Partial[Class].back();
    Partial[Class].pop_back();
    return B;
  }
  Block *B;
  if (!EmptyBlocks.empty()) {
    B = EmptyBlocks.back();
    EmptyBlocks.pop_back();
  } else {
    if (ChunkCursor == ChunkEnd) {
      void *Mem = ::mmap(nullptr, ChunkBytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      DCHM_CHECK(Mem != MAP_FAILED, "out of host memory for heap blocks");
      ChunkCursor = static_cast<char *>(Mem);
      ChunkEnd = ChunkCursor + ChunkBytes;
      Chunks.push_back(ChunkCursor);
    }
    B = &Blocks.emplace_back();
    B->Base = ChunkCursor;
    ChunkCursor += BlockBytes;
  }
  B->Class = static_cast<uint8_t>(Class);
  return B;
}

Object *Heap::allocateInstance(const ClassInfo &C, TIB *Tib, unsigned Ctx) {
  DCHM_CHECK(Tib != nullptr && Tib->Cls == &C,
             "instance needs a TIB of its class");
  return allocateRaw(static_cast<uint32_t>(C.SlotTypes.size()),
                     Object::instanceHeader(Tib), Ctx);
}

Object *Heap::allocateArray(Type ElemTy, int64_t Len, unsigned Ctx) {
  DCHM_CHECK(Len >= 0, "negative array length");
  DCHM_CHECK(Len <= 0x7FFFFFFF, "array too large");
  const auto N = static_cast<uint32_t>(Len);
  return allocateRaw(N, Object::arrayHeader(ElemTy, N), Ctx);
}

void Heap::mark(Object *O, std::vector<Object *> &Work) {
  if (!O || O->isMarked())
    return;
  O->setMarked();
  Work.push_back(O);
}

void Heap::collect() {
  SafeExec([this] { collectStopped(); });
}

void Heap::collectStopped() {
  DCHM_CHECK(Roots, "collect() without a root provider");
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
    if (O->isArray()) {
      if (O->elemTy() == Type::Ref)
        for (uint32_t I = 0; I < O->length(); ++I)
          mark(O->slots()[I].R, Work);
      continue;
    }
    const std::vector<Type> &Layout = O->tib()->Cls->SlotTypes;
    for (size_t I = 0; I < Layout.size(); ++I)
      if (Layout[I] == Type::Ref)
        mark(O->slots()[I].R, Work);
  }

  size_t Freed = sweep(Swept);
  UsedBytes.fetch_sub(Freed, std::memory_order_relaxed);
  GcCycles += GcPauseCycles + GcMarkCyclesPerObject * Marked +
              GcSweepCyclesPerObject * Swept;
}

size_t Heap::sweep(uint64_t &Swept) {
  size_t Freed = 0;
  // Every block goes back to the shared lists; each context takes a
  // current block again on its next allocation of each class.
  for (Context &C : Contexts)
    C.Current.fill(nullptr);
  for (std::vector<Block *> &P : Partial)
    P.clear();
  EmptyBlocks.clear();
  for (Block &B : Blocks) {
    // Rebuild the free list in address order, old free slots included:
    // each free slot's header links the next, the last one null.
    B.FreeList = nullptr;
    Object *Last = nullptr;
    bool Live = false;
    forEachSlot(B, [&](Object *O) {
      if (O->isMarked()) {
        O->clearMarked();
        Live = true;
        return;
      }
      if (!O->isFree()) {
        Freed += Object::allocBytes(O->numSlots());
        ++Swept;
        ASAN_POISON_MEMORY_REGION(O + 1, ClassBytes[B.Class] - sizeof(Object));
      }
      if (Last)
        Last->setFree(O);
      else
        B.FreeList = O;
      Last = O;
    });
    if (Last)
      Last->setFree(nullptr);
    if (!Live)
      B = Block{B.Base};
    if (B.Class == NoClass)
      EmptyBlocks.push_back(&B);
    else if (B.FreeList || B.Top + ClassBytes[B.Class] <= BlockBytes)
      Partial[B.Class].push_back(&B);
  }
  for (Context &C : Contexts) {
    auto Kept = C.Large.begin();
    for (Object *O : C.Large) {
      if (O->isMarked()) {
        O->clearMarked();
        *Kept++ = O;
        continue;
      }
      Freed += Object::allocBytes(O->numSlots());
      ++Swept;
      freeLargeObject(O);
    }
    C.Large.erase(Kept, C.Large.end());
  }
  return Freed;
}

} // namespace dchm
