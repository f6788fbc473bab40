//===-- tests/HeapGcTest.cpp - Heap and mark-sweep GC tests -------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/VM.h"
#include "runtime/Heap.h"

#include <gtest/gtest.h>

#include <map>

#include <sys/mman.h>
#include <unistd.h>

#if defined(__SANITIZE_ADDRESS__)
#define DCHM_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DCHM_TEST_ASAN 1
#endif
#endif

using namespace dchm;

namespace {

/// Root provider backed by an explicit vector.
class VectorRoots : public RootProvider {
public:
  std::vector<Object *> Objects;
  void enumerateRoots(std::vector<Object *> &Roots) override {
    for (Object *O : Objects)
      Roots.push_back(O);
  }
};

struct HeapFixture : ::testing::Test {
  test::CounterFixture Fx;
  Heap H{1 << 20};
  VectorRoots Roots;

  HeapFixture() { H.setRootProvider(&Roots); }

  Object *makeCounter() {
    ClassInfo &C = Fx.P->cls(Fx.Counter);
    return H.allocateInstance(C, C.ClassTib);
  }
};

/// 4096 elements: 32 KiB of slots plus the header, nine pages.
constexpr uint32_t LargeLen = 4096;

TEST_F(HeapFixture, InstanceFieldsZeroInitialized) {
  Object *O = makeCounter();
  EXPECT_EQ(O->get(0).I, 0);
  EXPECT_EQ(O->get(1).I, 0);
  EXPECT_FALSE(O->isArray());
  EXPECT_EQ(O->tib(), Fx.P->cls(Fx.Counter).ClassTib);
}

TEST_F(HeapFixture, ArrayAllocationAndLength) {
  Object *A = H.allocateArray(Type::I64, 17);
  EXPECT_TRUE(A->isArray());
  EXPECT_EQ(A->numSlots(), 17u);
  for (uint32_t I = 0; I < 17; ++I)
    EXPECT_EQ(A->get(I).I, 0);
}

TEST_F(HeapFixture, CollectFreesUnreachable) {
  size_t Before = H.stats().UsedBytes;
  for (int I = 0; I < 100; ++I)
    makeCounter(); // all garbage
  EXPECT_GT(H.stats().UsedBytes, Before);
  H.collect();
  EXPECT_EQ(H.stats().UsedBytes, Before);
  EXPECT_EQ(H.stats().GcCount, 1u);
  EXPECT_GT(H.stats().GcCycles, 0u);
}

TEST_F(HeapFixture, CollectKeepsRoots) {
  Object *Live = makeCounter();
  Live->set(1, valueI(77));
  Roots.Objects.push_back(Live);
  for (int I = 0; I < 50; ++I)
    makeCounter();
  H.collect();
  EXPECT_EQ(Live->get(1).I, 77); // still intact
}

TEST_F(HeapFixture, CollectTracesInstanceReferences) {
  // Build a linked structure via a Ref-typed array so the trace must go
  // through array elements and then instance slots.
  Object *Arr = H.allocateArray(Type::Ref, 4);
  Roots.Objects.push_back(Arr);
  Object *C = makeCounter();
  C->set(1, valueI(123));
  Arr->set(2, valueR(C));
  for (int I = 0; I < 50; ++I)
    makeCounter();
  size_t LiveBytes = H.stats().UsedBytes;
  (void)LiveBytes;
  H.collect();
  EXPECT_EQ(Arr->get(2).R, C);
  EXPECT_EQ(C->get(1).I, 123);
}

TEST_F(HeapFixture, MarkBitsAreResetBetweenCollections) {
  Object *Live = makeCounter();
  Roots.Objects.push_back(Live);
  H.collect();
  H.collect();
  // Surviving two collections proves the mark bit was cleared (otherwise
  // the second sweep would free a marked-looking-but-unmarked object or
  // keep garbage alive).
  EXPECT_EQ(H.stats().GcCount, 2u);
  EXPECT_FALSE(Live->isMarked());
}

TEST_F(HeapFixture, AllocationTriggersCollection) {
  // Fill past the 1 MB budget with garbage arrays; the heap must collect
  // by itself rather than grow unboundedly.
  for (int I = 0; I < 200; ++I)
    H.allocateArray(Type::I64, 4096); // ~32 KB each
  EXPECT_GE(H.stats().GcCount, 1u);
  EXPECT_LE(H.stats().UsedBytes, (1u << 20) + 64 * 1024);
}

TEST_F(HeapFixture, SpecialTibPointerSurvivesCollection) {
  // An object re-pointed at a special TIB must keep that TIB across GC
  // (mutation state is not lost to collection).
  TIB *Special = Fx.P->createSpecialTib(Fx.Counter, 0);
  Object *O = makeCounter();
  O->setTib(Special);
  Roots.Objects.push_back(O);
  for (int I = 0; I < 20; ++I)
    makeCounter();
  H.collect();
  EXPECT_EQ(O->tib(), Special);
  EXPECT_EQ(O->tib()->Cls->Id, Fx.Counter);
}

TEST_F(HeapFixture, StatsAccumulate) {
  uint64_t N0 = H.stats().ObjectsAllocated;
  makeCounter();
  H.allocateArray(Type::F64, 8);
  EXPECT_EQ(H.stats().ObjectsAllocated, N0 + 2);
  EXPECT_GT(H.stats().BytesAllocated, 0u);
  EXPECT_GE(H.stats().PeakBytes, H.stats().UsedBytes);
}

//===----------------------------------------------------------------------===//
// Small objects: size-class slots in heap-owned blocks
//===----------------------------------------------------------------------===//

TEST_F(HeapFixture, HostHeaderIs8BytesWhileTheBudgetCharges24) {
  static_assert(sizeof(Object) == 8);
  for (uint32_t N : {0u, 1u, 2u, 7u, 2045u, 4096u})
    EXPECT_EQ(Object::allocBytes(N), 24u + 8u * N) << N << " slots";
  HeapStats S0 = H.stats();
  makeCounter();
  H.allocateArray(Type::Ref, 5);
  HeapStats S1 = H.stats();
  EXPECT_EQ(S1.UsedBytes - S0.UsedBytes,
            Object::allocBytes(2) + Object::allocBytes(5));
  EXPECT_EQ(S1.BytesAllocated - S0.BytesAllocated,
            S1.UsedBytes - S0.UsedBytes);
}

/// Re-points O's TIB to To with its Mark and CtorDone bits set, and checks
/// that the swing keeps them and its Mapped bit.
void expectSwingKeepsFlags(Object *O, TIB *To) {
  const bool Mapped = O->isMapped();
  O->setMarked();
  O->setCtorDone();
  O->setTib(To);
  EXPECT_EQ(O->tib(), To);
  EXPECT_TRUE(O->isMarked());
  EXPECT_TRUE(O->ctorDone());
  EXPECT_EQ(O->isMapped(), Mapped);
  EXPECT_FALSE(O->isArray());
  EXPECT_FALSE(O->isFree());
  O->clearMarked();
  EXPECT_EQ(O->tib(), To);
  EXPECT_TRUE(O->ctorDone());
}

TEST_F(HeapFixture, TibSwingKeepsTheSmallInstancesFlags) {
  TIB *Special = Fx.P->createSpecialTib(Fx.Counter, 0);
  Object *O = makeCounter();
  ASSERT_FALSE(O->isMapped());
  expectSwingKeepsFlags(O, Special);
  EXPECT_EQ(O->numSlots(), 2u);
  expectSwingKeepsFlags(O, Fx.P->cls(Fx.Counter).ClassTib);
}

TEST_F(HeapFixture, TibSwingKeepsTheMappedInstancesFlags) {
  // A class of 2,047 fields: 16 KiB of host bytes, a large object. Its
  // Program outlives the heap that holds its instance.
  Program P;
  ClassId Wide = P.defineClass("Wide");
  for (int I = 0; I < 2047; ++I)
    P.defineField(Wide, "f" + std::to_string(I), Type::I64, false);
  P.link();
  TIB *Special = P.createSpecialTib(Wide, 0);
  Heap WideHeap(1 << 20);
  ClassInfo &C = P.cls(Wide);
  Object *O = WideHeap.allocateInstance(C, C.ClassTib);
  ASSERT_TRUE(O->isMapped());
  expectSwingKeepsFlags(O, Special);
  EXPECT_EQ(O->numSlots(), 2047u);
  expectSwingKeepsFlags(O, C.ClassTib);
}

TEST_F(HeapFixture, ArrayHeaderRoundTripsEveryElementTypeAndTheLargestLength) {
  for (Type Ty : {Type::Void, Type::I64, Type::F64, Type::Ref})
    for (uint32_t Len : {0u, 1u, 0x7FFFFFFFu}) {
      Object A(Object::arrayHeader(Ty, Len)); // a header only, no slots
      EXPECT_TRUE(A.isArray());
      EXPECT_EQ(A.elemTy(), Ty);
      EXPECT_EQ(A.length(), Len);
      EXPECT_EQ(A.numSlots(), Len);
      EXPECT_EQ(A.tib(), nullptr);
      EXPECT_FALSE(A.isMarked() || A.isMapped() || A.isFree() || A.ctorDone());
      A.setMarked();
      EXPECT_TRUE(A.isMarked());
      EXPECT_EQ(A.elemTy(), Ty);
      EXPECT_EQ(A.length(), Len);
      A.clearMarked();
      EXPECT_FALSE(A.isMarked());
      EXPECT_EQ(A.length(), Len);
    }
}

TEST_F(HeapFixture, LargeObjectBoundaryIsBetween2046And2047Slots) {
  EXPECT_EQ(Object::hostBytes(2046), (16u << 10) - 8);
  EXPECT_EQ(Object::hostBytes(2047), 16u << 10);
  HeapStats S0 = H.stats();
  Object *Small = H.allocateArray(Type::I64, 2046);
  Object *Large = H.allocateArray(Type::I64, 2047);
  EXPECT_FALSE(Small->isMapped());
  EXPECT_TRUE(Large->isMapped());
  EXPECT_EQ(Small->length(), 2046u);
  EXPECT_EQ(Large->length(), 2047u);
  EXPECT_EQ(H.stats().UsedBytes - S0.UsedBytes,
            Object::allocBytes(2046) + Object::allocBytes(2047));
}

/// Writes a non-zero pattern over every slot of O.
void scribble(Object *O) {
  for (uint32_t I = 0; I < O->numSlots(); ++I)
    O->set(I, valueI(0x5A5A5A5A + I));
}

TEST_F(HeapFixture, SweptSlotIsReusedByItsClassAndReadsZero) {
  // The live neighbour keeps the block in use, so the swept slot goes on
  // the block's free list and the next allocation of its class takes it.
  Object *Garbage = H.allocateArray(Type::I64, 5);
  Object *Live = H.allocateArray(Type::I64, 5);
  scribble(Garbage);
  scribble(Live);
  Roots.Objects.push_back(Live);
  H.collect();
  Object *Reused = H.allocateArray(Type::I64, 5);
  EXPECT_EQ(Reused, Garbage);
  EXPECT_FALSE(Reused->isFree());
  for (uint32_t I = 0; I < 5; ++I)
    EXPECT_EQ(Reused->get(I).I, 0) << "slot " << I;
  EXPECT_EQ(Live->get(4).I, 0x5A5A5A5A + 4);
}

TEST_F(HeapFixture, EmptiedBlockIsReusedByAnotherClassAndReadsZero) {
  // The only block empties in the sweep; a larger class takes it, dirty.
  Object *Garbage = H.allocateArray(Type::I64, 5);
  scribble(Garbage);
  H.collect();
  Object *Reused = H.allocateArray(Type::Ref, 9);
  EXPECT_EQ(Reused, Garbage);
  for (uint32_t I = 0; I < 9; ++I)
    EXPECT_EQ(Reused->get(I).R, nullptr) << "slot " << I;
}

TEST_F(HeapFixture, SweptSlotIsPoisonedUnderAddressSanitizer) {
#ifdef DCHM_TEST_ASAN
  // A stale pointer to a swept object faults at its first field read.
  Object *Garbage = H.allocateArray(Type::I64, 5);
  Object *Live = H.allocateArray(Type::I64, 5);
  Roots.Objects.push_back(Live);
  H.collect();
  volatile int64_t *Field = &Garbage->slots()[0].I;
  EXPECT_DEATH((void)*Field, "use-after-poison");
  EXPECT_EQ(Live->get(4).I, 0); // the live neighbour stays addressable
#else
  GTEST_SKIP() << "checks AddressSanitizer poisoning";
#endif
}

/// How many times forEachObject visits each object.
std::map<Object *, int> visits(const Heap &H) {
  std::map<Object *, int> Seen;
  H.forEachObject([&](Object *O) { ++Seen[O]; });
  return Seen;
}

TEST_F(HeapFixture, WalkVisitsExactlyTheUnsweptObjects) {
  // Every shape: instances of three classes, I64 and Ref arrays from empty
  // to the largest small size (host bytes just under 16 KiB) and one large
  // array. Every third object is rooted.
  std::vector<Object *> All;
  for (int Round = 0; Round < 40; ++Round) {
    for (ClassId Id : {Fx.Counter, Fx.SubCounter, Fx.Driver}) {
      ClassInfo &C = Fx.P->cls(Id);
      All.push_back(H.allocateInstance(C, C.ClassTib));
    }
    for (int64_t Len : {0, 1, 3, 17, 200})
      All.push_back(H.allocateArray(Type::I64, Len + Round % 3));
    All.push_back(H.allocateArray(Type::Ref, 6 + Round));
  }
  All.push_back(H.allocateArray(Type::I64, 2046));
  All.push_back(H.allocateArray(Type::Ref, 2046));
  All.push_back(H.allocateArray(Type::I64, LargeLen));
  ASSERT_LT(Object::hostBytes(2046), 16u << 10);
  ASSERT_FALSE(All[All.size() - 2]->isMapped());
  ASSERT_TRUE(All.back()->isMapped());

  std::map<Object *, int> Expected;
  for (Object *O : All)
    Expected[O] = 1;
  EXPECT_EQ(visits(H), Expected);

  size_t Kept = 0;
  Expected.clear();
  for (size_t I = 0; I < All.size(); I += 3) {
    Roots.Objects.push_back(All[I]);
    Expected[All[I]] = 1;
    Kept += Object::allocBytes(All[I]->numSlots());
  }
  // The last two are rooted too, whichever way the stride falls.
  for (size_t I = All.size() - 2; I < All.size(); ++I)
    if (!Expected.count(All[I])) {
      Roots.Objects.push_back(All[I]);
      Expected[All[I]] = 1;
      Kept += Object::allocBytes(All[I]->numSlots());
    }
  H.collect();
  EXPECT_EQ(visits(H), Expected);
  EXPECT_EQ(H.stats().UsedBytes, Kept);
  // A second collection frees nothing more and keeps the same set.
  H.collect();
  EXPECT_EQ(visits(H), Expected);
  EXPECT_EQ(H.stats().UsedBytes, Kept);
}

/// Root provider over one vector per mutator context; each context's
/// thread writes only its own.
class PerContextRoots : public RootProvider {
public:
  explicit PerContextRoots(unsigned N) : Objects(N) {}
  std::vector<std::vector<Object *>> Objects;
  void enumerateRoots(std::vector<Object *> &Roots) override {
    for (const std::vector<Object *> &V : Objects)
      Roots.insert(Roots.end(), V.begin(), V.end());
  }
};

TEST(Heap, FourMutatorsAllocateThenACollectionKeepsExactlyTheRooted) {
  // Four contexts allocate at once, each from its own current blocks, in
  // a budget no allocation reaches; then one world-stopped collection
  // must keep exactly the rooted objects, with their contents.
  test::CounterFixture Fx;
  constexpr unsigned N = 4;
  constexpr int PerThread = 3000;
  VMOptions Opts;
  Opts.MutatorThreads = N;
  Opts.HeapBytes = 64u << 20;
  VirtualMachine VM(*Fx.P, Opts);
  PerContextRoots Rooted(N);
  VM.heap().addRootProvider(&Rooted);
  ClassInfo &C = Fx.P->cls(Fx.Counter);
  VM.runMutators([&](unsigned T) {
    for (int I = 0; I < PerThread; ++I) {
      Object *O = I % 2 ? VM.heap().allocateArray(Type::I64, I % 40, T)
                        : VM.heap().allocateInstance(C, C.ClassTib, T);
      if (O->numSlots() > 1)
        O->set(1, valueI(int64_t(T) << 32 | I));
      if (I % 5 == 0)
        Rooted.Objects[T].push_back(O);
    }
  });
  EXPECT_EQ(VM.heap().stats().ObjectsAllocated, uint64_t(N) * PerThread);
  EXPECT_EQ(VM.heap().stats().GcCount, 0u);

  VM.heap().collect();
  std::map<Object *, int> Expected;
  size_t Kept = 0;
  for (unsigned T = 0; T < N; ++T)
    for (Object *O : Rooted.Objects[T]) {
      Expected[O] = 1;
      Kept += Object::allocBytes(O->numSlots());
    }
  EXPECT_EQ(Expected.size(), size_t(N) * (PerThread / 5));
  EXPECT_EQ(visits(VM.heap()), Expected);
  EXPECT_EQ(VM.heap().stats().UsedBytes, Kept);
  for (unsigned T = 0; T < N; ++T)
    for (size_t K = 0; K < Rooted.Objects[T].size(); ++K) {
      Object *O = Rooted.Objects[T][K];
      if (O->numSlots() > 1) {
        ASSERT_EQ(O->get(1).I, int64_t(T) << 32 | int64_t(K * 5))
            << "mutator " << T << " object " << K;
      }
    }
  VM.heap().removeRootProvider(&Rooted);
}

//===----------------------------------------------------------------------===//
// Large objects: 16 KiB or more, each in its own anonymous mapping
//===----------------------------------------------------------------------===//

TEST_F(HeapFixture, LargeArrayReadsZeroInEverySlot) {
  Object *Small = H.allocateArray(Type::F64, 8);
  Object *A = H.allocateArray(Type::F64, LargeLen);
  EXPECT_FALSE(Small->isMapped());
  EXPECT_TRUE(A->isMapped());
  EXPECT_TRUE(A->isArray());
  EXPECT_EQ(A->numSlots(), LargeLen);
  for (uint32_t I = 0; I < LargeLen; ++I)
    ASSERT_EQ(A->get(I).I, 0) << "slot " << I;
}

TEST_F(HeapFixture, LargeArrayReadsZeroAfterCollectionFreedAWrittenOne) {
  size_t Before = H.stats().UsedBytes;
  Object *Old = H.allocateArray(Type::F64, LargeLen);
  for (uint32_t I = 0; I < LargeLen; ++I)
    Old->set(I, valueF(1.5 + I));
  H.collect(); // Old is unreachable
  EXPECT_EQ(H.stats().UsedBytes, Before);
  Object *A = H.allocateArray(Type::F64, LargeLen);
  for (uint32_t I = 0; I < LargeLen; ++I)
    ASSERT_EQ(A->get(I).I, 0) << "slot " << I;
}

TEST_F(HeapFixture, LargeArrayPagesAreNotResidentUntilWritten) {
  const size_t Page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  Object *A = H.allocateArray(Type::F64, LargeLen);
  ASSERT_TRUE(A->isMapped());
  ASSERT_EQ(reinterpret_cast<uintptr_t>(A) % Page, 0u);
  const size_t Pages = (Object::hostBytes(LargeLen) + Page - 1) / Page;
  ASSERT_GE(Pages, 4u);
  std::vector<unsigned char> Resident(Pages);
  ASSERT_EQ(::mincore(A, Pages * Page, Resident.data()), 0);
  // The first page holds the header the heap wrote; no other page has been
  // touched.
  for (size_t I = 1; I < Pages; ++I)
    EXPECT_EQ(Resident[I] & 1, 0) << "page " << I;
  A->set(LargeLen - 1, valueF(2.0));
  ASSERT_EQ(::mincore(A, Pages * Page, Resident.data()), 0);
  EXPECT_EQ(Resident[Pages - 1] & 1, 1);
  EXPECT_EQ(Resident[Pages / 2] & 1, 0);
}

TEST_F(HeapFixture, LargeRefArrayIsTracedAndFreedWhenUnreachable) {
  size_t Before = H.stats().UsedBytes;
  Object *Arr = H.allocateArray(Type::Ref, LargeLen);
  ASSERT_TRUE(Arr->isMapped());
  Roots.Objects.push_back(Arr);
  Object *First = makeCounter();
  Object *Last = makeCounter();
  First->set(1, valueI(11));
  Last->set(1, valueI(22));
  Arr->set(0, valueR(First));
  Arr->set(LargeLen - 1, valueR(Last));
  size_t Live = H.stats().UsedBytes;
  for (int I = 0; I < 50; ++I)
    makeCounter();
  H.collect();
  // Only the garbage went: the array and both referents were marked.
  EXPECT_EQ(H.stats().UsedBytes, Live);
  EXPECT_EQ(Arr->get(0).R, First);
  EXPECT_EQ(Arr->get(LargeLen - 1).R, Last);
  EXPECT_EQ(First->get(1).I, 11);
  EXPECT_EQ(Last->get(1).I, 22);

  Roots.Objects.clear();
  H.collect();
  EXPECT_EQ(H.stats().UsedBytes, Before);
}

TEST_F(HeapFixture, LargeArrayIsChargedItsAllocBytes) {
  HeapStats S0 = H.stats();
  ASSERT_EQ(S0.PeakBytes, 0u);
  H.allocateArray(Type::I64, LargeLen);
  HeapStats S1 = H.stats();
  const size_t Bytes = Object::allocBytes(LargeLen);
  EXPECT_EQ(S1.BytesAllocated - S0.BytesAllocated, Bytes);
  EXPECT_EQ(S1.ObjectsAllocated - S0.ObjectsAllocated, 1u);
  EXPECT_EQ(S1.UsedBytes - S0.UsedBytes, Bytes);
  EXPECT_EQ(S1.PeakBytes, Bytes);
}

TEST(Heap, CyclicGarbageIsCollected) {
  test::CounterFixture Fx;
  Heap H(1 << 20);
  VectorRoots Roots;
  H.setRootProvider(&Roots);
  // Two ref arrays pointing at each other, unreachable from roots.
  Object *A = H.allocateArray(Type::Ref, 1);
  Object *B = H.allocateArray(Type::Ref, 1);
  A->set(0, valueR(B));
  B->set(0, valueR(A));
  size_t Used = H.stats().UsedBytes;
  H.collect();
  EXPECT_LT(H.stats().UsedBytes, Used); // the cycle was freed
}

} // namespace
