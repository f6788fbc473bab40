//===-- bench/bench_micro_dispatch.cpp - Interpreter fast-path benchmark ------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
// Host-side throughput benchmark of the interpreter's dispatch loops
// (docs/dispatch.md): the portable central switch and computed-goto threaded
// dispatch with fused handler pairs. Runs one dispatch-heavy kernel under
// both and reports cold/warm wall time per loop. The seed interpreter this
// overhaul started from is git revision 90e55ec, not an in-tree config.
//
// Unlike the figure benchmarks this one measures *real* time: the simulated
// cycle counts and the output hash must be bit-identical in every
// configuration, and that invariant is checked here on every run. Results
// go to stdout and, machine-readable, to BENCH_dispatch.json.
//
// Flags: --iters=N (outer loop iterations, a positive integer; default
//                   300000)
//        --check   (equivalence gate only, no BENCH_dispatch.json; used by
//                   ctest)
//
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include "core/VM.h"
#include "ir/Builder.h"
#include "support/Parse.h"
#include "support/Timer.h"

#include <climits>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

using namespace dchm;

namespace {

/// A dispatch-heavy kernel: an interface, a two-class hierarchy, a static
/// helper, and a static driver whose outer loop exercises every invoke
/// flavor plus a tight arithmetic inner loop (the fused-pair fast paths).
struct DispatchKernel {
  std::unique_ptr<Program> P;
  MethodId Run = NoMethodId;

  DispatchKernel() {
    P = std::make_unique<Program>();
    ClassId Work = P->defineInterface("Work");
    MethodId WorkStep = P->defineMethod(Work, "step", Type::Void, {});

    ClassId A = P->defineClass("A");
    P->addInterface(A, Work);
    FieldId X = P->defineField(A, "x", Type::I64, false);

    MethodId ACtor =
        P->defineMethod(A, "<init>", Type::Void, {}, {.IsCtor = true});
    {
      FunctionBuilder B("A.<init>", Type::Void);
      Reg This = B.addArg(Type::Ref);
      B.putField(This, X, B.constI(0));
      B.retVoid();
      P->setBody(ACtor, B.finalize());
    }
    MethodId AStep = P->defineMethod(A, "step", Type::Void, {});
    {
      FunctionBuilder B("A.step", Type::Void);
      Reg This = B.addArg(Type::Ref);
      Reg V = B.getField(This, X, Type::I64);
      B.putField(This, X, B.add(V, B.constI(1)));
      B.retVoid();
      P->setBody(AStep, B.finalize());
    }
    MethodId AGet = P->defineMethod(A, "get", Type::I64, {});
    {
      FunctionBuilder B("A.get", Type::I64);
      Reg This = B.addArg(Type::Ref);
      B.ret(B.getField(This, X, Type::I64));
      P->setBody(AGet, B.finalize());
    }

    ClassId BCls = P->defineClass("B", A);
    MethodId BCtor =
        P->defineMethod(BCls, "<init>", Type::Void, {}, {.IsCtor = true});
    {
      FunctionBuilder B("B.<init>", Type::Void);
      Reg This = B.addArg(Type::Ref);
      B.callSpecial(ACtor, {This}, Type::Void);
      B.retVoid();
      P->setBody(BCtor, B.finalize());
    }
    MethodId BStep = P->defineMethod(BCls, "step", Type::Void, {});
    {
      FunctionBuilder B("B.step", Type::Void);
      Reg This = B.addArg(Type::Ref);
      Reg V = B.getField(This, X, Type::I64);
      B.putField(This, X, B.add(V, B.constI(2)));
      B.retVoid();
      P->setBody(BStep, B.finalize());
    }

    ClassId Helper = P->defineClass("Helper");
    MethodId Scale = P->defineMethod(Helper, "scale", Type::I64, {Type::I64},
                                     {.IsStatic = true});
    {
      FunctionBuilder B("Helper.scale", Type::I64);
      Reg N = B.addArg(Type::I64);
      Reg T = B.mul(N, B.constI(3));
      B.ret(B.add(T, B.constI(1)));
      P->setBody(Scale, B.finalize());
    }

    ClassId Kernel = P->defineClass("Kernel");
    Run = P->defineMethod(Kernel, "run", Type::I64, {Type::I64},
                          {.IsStatic = true});
    {
      FunctionBuilder B("Kernel.run", Type::I64);
      Reg Iters = B.addArg(Type::I64);
      Reg AObj = B.newObject(A);
      B.callSpecial(ACtor, {AObj}, Type::Void);
      Reg BObj = B.newObject(BCls);
      B.callSpecial(BCtor, {BObj}, Type::Void);
      Reg One = B.constI(1);
      Reg InnerN = B.constI(64);
      Reg I = B.newReg(Type::I64);
      B.move(I, B.constI(0));
      Reg Acc = B.newReg(Type::I64);
      B.move(Acc, B.constI(0));
      Reg K = B.newReg(Type::I64);
      auto Head = B.makeLabel();
      auto Exit = B.makeLabel();
      auto Inner = B.makeLabel();
      auto InnerExit = B.makeLabel();
      B.bind(Head);
      B.cbz(B.cmp(Opcode::CmpLT, I, Iters), Exit); // fused CmpLT+Cbz
      // Every invoke flavor, monomorphic per site.
      B.callVirtual(AStep, {AObj}, Type::Void);
      B.callVirtual(AStep, {BObj}, Type::Void);
      B.callInterface(WorkStep, {AObj}, Type::Void);
      B.move(Acc, B.add(Acc, B.callStatic(Scale, {I}, Type::I64)));
      // Tight arithmetic inner loop: compare+branch and const+add pairs.
      B.move(K, B.constI(0));
      B.bind(Inner);
      B.cbz(B.cmp(Opcode::CmpLT, K, InnerN), InnerExit);
      B.move(Acc, B.add(Acc, B.constI(3))); // fused ConstI+Add
      B.move(Acc, B.xorI(Acc, K));
      B.move(K, B.add(K, One));
      B.br(Inner);
      B.bind(InnerExit);
      B.move(I, B.add(I, One));
      B.br(Head);
      B.bind(Exit);
      Reg GA = B.callVirtual(AGet, {AObj}, Type::I64);
      Reg GB = B.callVirtual(AGet, {BObj}, Type::I64);
      B.move(Acc, B.add(Acc, B.add(GA, GB)));
      B.printNum(Acc, Type::I64);
      B.ret(Acc);
      P->setBody(Run, B.finalize());
    }
    P->link();
  }
};

struct Config {
  const char *Name;
  DispatchMode Mode;
};

struct RunResult {
  double WallCold = 0.0; ///< first call: cold code
  double WallWarm = 0.0; ///< second call on the same VM
  uint64_t Insts = 0;    ///< interpreted instructions in the warm call
  uint64_t Cycles = 0;   ///< simulated cycles in the warm call
  uint64_t Hash = 0;     ///< output hash of the warm call
  bool Threaded = false;
};

RunResult runConfig(const Config &Cfg, int64_t Iters) {
  DispatchKernel K; // fresh Program: cold compiled code
  VMOptions Opts;
  Opts.EnableMutation = false;
  Opts.Dispatch = Cfg.Mode;
  VirtualMachine VM(*K.P, Opts);

  RunResult R;
  R.Threaded = VM.interp().threadedDispatch();
  Timer Cold;
  VM.call(K.Run, {valueI(Iters)});
  R.WallCold = Cold.seconds();
  // One settling call so adaptive recompilation has fully converged, then
  // the warm time is the minimum over several identical calls (the
  // standard microbenchmark defense against scheduler noise).
  VM.call(K.Run, {valueI(Iters)});
  constexpr int WarmReps = 5;
  R.WallWarm = 1e30;
  const ExecStats &S = VM.interp().stats();
  for (int Rep = 0; Rep < WarmReps; ++Rep) {
    VM.interp().clearOutput();
    uint64_t Insts0 = S.Insts, Cycles0 = S.Cycles;
    Timer Warm;
    VM.call(K.Run, {valueI(Iters)});
    double Wall = Warm.seconds();
    if (Wall < R.WallWarm)
      R.WallWarm = Wall;
    R.Insts = S.Insts - Insts0;
    R.Cycles = S.Cycles - Cycles0;
    R.Hash = VM.interp().outputHash();
  }
  return R;
}

} // namespace

int main(int argc, char **argv) {
  int64_t Iters = 300000;
  bool CheckOnly = false;
  for (int I = 1; I < argc; ++I) {
    if (std::strncmp(argv[I], "--iters=", 8) == 0) {
      Iters = intFlag("--iters", argv[I] + 8, 1, LLONG_MAX);
    } else if (std::strcmp(argv[I], "--check") == 0) {
      CheckOnly = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[I]);
      return 1;
    }
  }

  const Config Configs[] = {
      {"switch", DispatchMode::Switch},
      {"threaded", DispatchMode::Threaded},
  };
  constexpr size_t NumConfigs = sizeof(Configs) / sizeof(Configs[0]);

  bench::printHeader(
      "dispatch microbenchmark",
      "Interpreter dispatch loops: central switch vs threaded.\nWall time "
      "is the metric here; simulated cycles and output must not move.");

  RunResult Results[NumConfigs];
  for (size_t I = 0; I < NumConfigs; ++I)
    Results[I] = runConfig(Configs[I], Iters);

  // Equivalence gate: both loops are semantically the same interpreter.
  // Identical output hash AND identical simulated cycle and instruction
  // counts, cold-path compilation included.
  bool SameHash = true, SameCycles = true;
  for (size_t I = 1; I < NumConfigs; ++I) {
    SameHash &= Results[I].Hash == Results[0].Hash;
    SameCycles &= Results[I].Cycles == Results[0].Cycles &&
                  Results[I].Insts == Results[0].Insts;
  }

  std::printf("%-20s %10s %10s %14s %10s\n", "config", "cold(ms)",
              "warm(ms)", "insts/s(warm)", "speedup");
  double SwitchWarm = Results[0].WallWarm;
  for (size_t I = 0; I < NumConfigs; ++I) {
    const RunResult &R = Results[I];
    std::printf("%-20s %10.2f %10.2f %14.3g %9.2fx\n", Configs[I].Name,
                R.WallCold * 1e3, R.WallWarm * 1e3,
                static_cast<double>(R.Insts) / (R.WallWarm > 0 ? R.WallWarm : 1),
                SwitchWarm / (R.WallWarm > 0 ? R.WallWarm : 1));
  }

  const RunResult &Full = Results[NumConfigs - 1];
  double Speedup = SwitchWarm / (Full.WallWarm > 0 ? Full.WallWarm : 1);
  std::printf("\nthreaded vs switch: %.2fx\n", Speedup);
  std::printf("output hashes identical: %s; simulated accounting identical: "
              "%s\n",
              SameHash ? "yes" : "NO", SameCycles ? "yes" : "NO");
  if (!Full.Threaded)
    std::printf("note: threaded dispatch unavailable on this compiler; "
                "threaded configs ran on the switch loop\n");

  bench::JsonWriter J;
  J.beginObject()
      .field("bench", "dispatch")
      .field("iters", Iters)
      .field("threaded_available", Full.Threaded)
      .field("identical_output_hashes", SameHash)
      .field("identical_sim_accounting", SameCycles)
      .field("speedup_threaded_vs_switch_warm", Speedup);
  J.beginArray("configs");
  for (size_t I = 0; I < NumConfigs; ++I) {
    const RunResult &R = Results[I];
    char HashBuf[24];
    std::snprintf(HashBuf, sizeof(HashBuf), "0x%016llx",
                  static_cast<unsigned long long>(R.Hash));
    J.beginArrayObject()
        .field("name", Configs[I].Name)
        .field("threaded", R.Threaded)
        .field("wall_cold_s", R.WallCold)
        .field("wall_warm_s", R.WallWarm)
        .field("warm_insts", R.Insts)
        .field("warm_sim_cycles", R.Cycles)
        .field("output_hash", HashBuf)
        .endObject();
  }
  J.endArray().endObject();
  if (!CheckOnly && !J.writeFile("BENCH_dispatch.json"))
    std::fprintf(stderr, "warning: could not write BENCH_dispatch.json\n");

  if (!SameHash || !SameCycles) {
    std::fprintf(stderr, "FAIL: configurations disagree semantically\n");
    return 1;
  }
  return 0;
}
