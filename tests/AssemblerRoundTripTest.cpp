//===-- tests/AssemblerRoundTripTest.cpp - Printer/assembler round trip -------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// Print, then assemble, gives back an equal Program: the same classes,
/// fields and methods with the same ids, flags, access and packages, and the
/// same instructions (opcodes, types, immediates, branch and call targets)
/// with registers equal up to one consistent renaming. Checked on the seven
/// workload programs, on 1,000 generated programs, and on every body the
/// optimizer compiles while the workloads run with mutation on.
///
//===----------------------------------------------------------------------===//

#include "analysis/OfflinePipeline.h"
#include "asm/Assembler.h"
#include "asm/Printer.h"
#include "online/Deployment.h"
#include "testing/ProgramGen.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <bit>

using namespace dchm;

namespace {

/// "" when B is A with its registers consistently renamed, else where the
/// two bodies first differ. Arguments keep their registers.
std::string bodyDifference(const IRFunction &A, const IRFunction &B) {
  if (A.NumArgs != B.NumArgs || A.RetTy != B.RetTy ||
      A.HasReceiver != B.HasReceiver)
    return "signature";
  if (A.Insts.size() != B.Insts.size())
    return "length " + std::to_string(A.Insts.size()) + " vs " +
           std::to_string(B.Insts.size());
  std::vector<Reg> AtoB(A.RegTypes.size(), NoReg);
  std::vector<Reg> BtoA(B.RegTypes.size(), NoReg);
  for (Reg R = 0; R < A.NumArgs; ++R)
    AtoB[R] = BtoA[R] = R;
  auto Same = [&](Reg X, Reg Y) {
    if (X == NoReg || Y == NoReg)
      return X == Y;
    if (A.RegTypes[X] != B.RegTypes[Y])
      return false;
    if (AtoB[X] == NoReg && BtoA[Y] == NoReg) {
      AtoB[X] = Y;
      BtoA[Y] = X;
    }
    return AtoB[X] == Y && BtoA[Y] == X;
  };
  for (size_t I = 0; I < A.Insts.size(); ++I) {
    const Instruction &X = A.Insts[I], &Y = B.Insts[I];
    bool Ok = X.Op == Y.Op && X.Ty == Y.Ty && X.Imm == Y.Imm &&
              std::bit_cast<int64_t>(X.FImm) ==
                  std::bit_cast<int64_t>(Y.FImm) &&
              X.Aux == Y.Aux && X.Args.size() == Y.Args.size() &&
              Same(X.Dst, Y.Dst) && Same(X.A, Y.A) && Same(X.B, Y.B) &&
              Same(X.C, Y.C);
    for (size_t J = 0; Ok && J < X.Args.size(); ++J)
      Ok = Same(X.Args[J], Y.Args[J]);
    if (!Ok)
      return "instruction " + std::to_string(I) + " (" + opcodeName(X.Op) +
             ")";
  }
  return "";
}

/// "" when A and B are equal in the sense of the file comment, else the
/// first difference.
std::string programDifference(const Program &A, const Program &B) {
  if (A.numClasses() != B.numClasses() || A.numFields() != B.numFields() ||
      A.numMethods() != B.numMethods())
    return "entity counts";
  for (ClassId Id = 0; Id < A.numClasses(); ++Id) {
    const ClassInfo &X = A.cls(Id), &Y = B.cls(Id);
    if (X.Name != Y.Name || X.Super != Y.Super ||
        X.Interfaces != Y.Interfaces || X.IsInterface != Y.IsInterface ||
        X.Package != Y.Package || X.Fields != Y.Fields ||
        X.Methods != Y.Methods)
      return "class " + X.Name;
  }
  for (FieldId Id = 0; Id < A.numFields(); ++Id) {
    const FieldInfo &X = A.field(Id), &Y = B.field(Id);
    if (X.Owner != Y.Owner || X.Name != Y.Name || X.Ty != Y.Ty ||
        X.IsStatic != Y.IsStatic || X.Acc != Y.Acc)
      return "field " + X.Name;
  }
  for (MethodId Id = 0; Id < A.numMethods(); ++Id) {
    const MethodInfo &X = A.method(Id), &Y = B.method(Id);
    std::string Name = A.cls(X.Owner).Name + "." + X.Name;
    if (X.Owner != Y.Owner || X.Name != Y.Name || X.RetTy != Y.RetTy ||
        X.ParamTys != Y.ParamTys || X.Flags.IsStatic != Y.Flags.IsStatic ||
        X.Flags.IsPrivate != Y.Flags.IsPrivate ||
        X.Flags.IsCtor != Y.Flags.IsCtor ||
        X.Flags.IsAbstract != Y.Flags.IsAbstract || X.HasBody != Y.HasBody)
      return "method " + Name;
    std::string Diff = bodyDifference(X.Bytecode, Y.Bytecode);
    if (!Diff.empty())
      return "method " + Name + ": " + Diff;
  }
  return "";
}

/// Prints P, assembles the text and compares; the second print must also
/// reproduce the first.
void expectRoundTrip(const Program &P, const std::string &What) {
  std::string Text = printProgram(P);
  AssemblyResult R = assembleProgram(Text);
  ASSERT_TRUE(R.ok()) << What << ": " << R.Error;
  EXPECT_EQ(programDifference(P, *R.P), "") << What;
  EXPECT_EQ(printProgram(*R.P), Text) << What;
}

TEST(AssemblerRoundTrip, AllSevenWorkloads) {
  for (auto &W : makeAllWorkloads())
    expectRoundTrip(*W->buildProgram(), W->name());
}

TEST(AssemblerRoundTrip, ThousandGeneratedPrograms) {
  for (uint64_t Seed = 1; Seed <= 1000; ++Seed) {
    ProgramGen Gen(Seed);
    AssemblyResult R = assembleProgram(Gen.generate());
    ASSERT_TRUE(R.ok()) << "seed " << Seed << ": " << R.Error;
    expectRoundTrip(*R.P, "seed " + std::to_string(Seed));
    if (HasFatalFailure() || HasFailure())
      return;
  }
}

/// The text of P with method M's body replaced by Body, in M's class.
std::string withBody(const Program &P, MethodId M, const IRFunction &Body) {
  std::string Text = printProgram(P);
  size_t Class = Text.find("class " + P.cls(P.method(M).Owner).Name + " ");
  std::string Old = printMethod(P, M, P.method(M).Bytecode);
  size_t At = Text.find(Old, Class);
  return Text.replace(At, Old.size(), printMethod(P, M, Body));
}

TEST(AssemblerRoundTrip, EveryCompiledBodyReassemblesInItsClass) {
  // Optimized, inlined and specialized bodies, as a short mutated run of
  // each workload compiles them.
  size_t Bodies = 0;
  for (auto &W : makeAllWorkloads()) {
    OfflineResult Off = runOfflinePipeline(*W, OfflineConfig{});
    VMOptions Opts = W->vmOptions();
    Opts.EnableMutation = true;
    Deployment Run(W->assemble(), Opts, Off.Plan);
    Run.drive(0.05);
    const Program &P = Run.program();
    for (MethodId M = 0; M < P.numMethods(); ++M) {
      for (const auto &CM : P.method(M).CompiledVersions) {
        const IRFunction &Body = CM->code();
        AssemblyResult R = assembleProgram(withBody(P, M, Body));
        ASSERT_TRUE(R.ok()) << W->name() << " " << Body.Name << ": "
                            << R.Error;
        EXPECT_EQ(bodyDifference(Body, R.P->method(M).Bytecode), "")
            << W->name() << " " << Body.Name;
        ++Bodies;
      }
    }
  }
  EXPECT_GT(Bodies, 100u);
}

} // namespace
