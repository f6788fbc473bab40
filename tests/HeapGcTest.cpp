//===-- tests/HeapGcTest.cpp - Heap and mark-sweep GC tests -------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "runtime/Heap.h"

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

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

TEST_F(HeapFixture, InstanceFieldsZeroInitialized) {
  Object *O = makeCounter();
  EXPECT_EQ(O->get(0).I, 0);
  EXPECT_EQ(O->get(1).I, 0);
  EXPECT_FALSE(O->IsArray);
  EXPECT_EQ(O->Tib, Fx.P->cls(Fx.Counter).ClassTib);
}

TEST_F(HeapFixture, ArrayAllocationAndLength) {
  Object *A = H.allocateArray(Type::I64, 17);
  EXPECT_TRUE(A->IsArray);
  EXPECT_EQ(A->NumSlots, 17u);
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
  EXPECT_EQ(Live->Mark, 0);
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
  O->Tib = Special;
  Roots.Objects.push_back(O);
  for (int I = 0; I < 20; ++I)
    makeCounter();
  H.collect();
  EXPECT_EQ(O->Tib, Special);
  EXPECT_EQ(O->Tib->Cls->Id, Fx.Counter);
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
// Large objects: 16 KiB or more, each in its own anonymous mapping
//===----------------------------------------------------------------------===//

/// 4096 elements: 32 KiB of slots plus the header, nine pages.
constexpr uint32_t LargeLen = 4096;

TEST_F(HeapFixture, LargeArrayReadsZeroInEverySlot) {
  Object *Small = H.allocateArray(Type::F64, 8);
  Object *A = H.allocateArray(Type::F64, LargeLen);
  EXPECT_FALSE(Small->Mapped);
  EXPECT_TRUE(A->Mapped);
  EXPECT_TRUE(A->IsArray);
  EXPECT_EQ(A->NumSlots, LargeLen);
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
  ASSERT_TRUE(A->Mapped);
  ASSERT_EQ(reinterpret_cast<uintptr_t>(A) % Page, 0u);
  const size_t Pages = (Object::allocBytes(LargeLen) + Page - 1) / Page;
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
  ASSERT_TRUE(Arr->Mapped);
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
