//===-- testing/ProgramGen.cpp - Random MVM program generator -----------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "testing/ProgramGen.h"

#include <limits>

namespace dchm {

namespace {
std::string itos(int64_t V) { return std::to_string(V); }

/// Variables live in fixed per-family slots so ops stay valid (or become
/// render-time no-ops) as the shrinker deletes things around them.
constexpr int VarsPerFamily = 3;
} // namespace

ProgramGen::ProgramGen(uint64_t Seed) : R(Seed) { Model.Seed = Seed; }

void ProgramGen::generateFamily(GenFamily &F) {
  F.HasMode2 = R.nextBool(0.35);
  F.HasStaticState = R.nextBool(0.5);
  F.StaticOnlyPlan = F.HasStaticState && R.nextBool(0.25);
  F.HasLim = R.nextBool(0.4);
  F.HasSub = R.nextBool(0.6);
  F.SubOverridesTick = F.HasSub && R.nextBool(0.7);
  F.SubOverridesGet = F.HasSub && R.nextBool(0.5);
  F.ImplementsWork = R.nextBool(0.7);
  F.ImplementsWide = R.nextBool(0.3);
  F.GetMutable = R.nextBool(0.5);
  F.ScaleMutable = F.HasStaticState && R.nextBool(0.7);
  F.Mode2Init = R.nextInRange(0, 2);
  F.LimVal = R.nextInRange(1, 9);
  F.K2 = R.nextInRange(1, 5);
  F.K3 = R.nextInRange(1, 5);
  F.TickAdd.clear();
  F.SubTickAdd.clear();
  for (int I = 0; I < 4; ++I) {
    F.TickAdd.push_back(R.nextInRange(1, 50));
    F.SubTickAdd.push_back(R.nextInRange(1, 50));
  }
  F.SubGetBias = R.nextInRange(1, 20);

  F.HotInstance.clear();
  F.HotStatic.clear();
  size_t NumHot = static_cast<size_t>(R.nextInRange(1, 3));
  for (size_t S = 0; S < NumHot; ++S) {
    std::vector<int64_t> Tuple;
    if (!F.StaticOnlyPlan) {
      Tuple.push_back(R.nextInRange(0, 3));
      if (F.HasMode2)
        Tuple.push_back(R.nextBool(0.6) ? F.Mode2Init : R.nextInRange(0, 2));
    }
    int64_t SV = F.HasStaticState ? R.nextInRange(0, 2) : 0;
    bool Dup = false;
    for (size_t T = 0; T < F.HotInstance.size(); ++T)
      if (F.HotInstance[T] == Tuple &&
          (!F.HasStaticState || F.HotStatic[T] == SV))
        Dup = true;
    if (Dup)
      continue;
    F.HotInstance.push_back(std::move(Tuple));
    F.HotStatic.push_back(SV);
  }
}

void ProgramGen::generateArith(GenFamily &F) {
  F.HasArith = R.nextBool(0.6);
  uint64_t Roll = R.nextBelow(10);
  F.ArithDividend = Roll < 4   ? std::numeric_limits<int64_t>::min()
                    : Roll < 5 ? std::numeric_limits<int64_t>::max()
                               : R.nextInRange(-1000, 1000);
  F.ArithShift = R.nextInRange(0, 2);
  F.ArithBias = R.nextInRange(0, 3);
  F.ArithInf = R.nextBool(0.5);
}

void ProgramGen::generateOps() {
  Model.Ops.clear();
  auto Push = [&](GenOp O) { Model.Ops.push_back(O); };
  const GenFamily &F0 = Model.Families[0];
  int64_t Hot0 =
      F0.HotInstance.empty() || F0.HotInstance[0].empty()
          ? 0
          : F0.HotInstance[0][0];

  // Guaranteed prelude: construct cold, get hot past the opt2 threshold,
  // swing into the first hot state, keep calling, observe. This ensures
  // every seed reaches specialized code even if the random tail is timid.
  Push({GenOp::New, 0, 0, false, 3, 1});
  Push({GenOp::CallTick, 0, 0, false, 0, 130});
  Push({GenOp::SetMode, 0, 0, false, Hot0, 1});
  if (F0.HasMode2 && !F0.StaticOnlyPlan && F0.HotInstance[0].size() > 1)
    Push({GenOp::SetMode2, 0, 0, false, F0.HotInstance[0][1], 1});
  Push({GenOp::CallTick, 0, 0, false, 0, 40});
  Push({GenOp::CallGet, 0, 0, false, 0, 1});
  if (F0.HasStaticState) {
    Push({GenOp::SetStatic, 0, 0, false, F0.HotStatic[0], 1});
    Push({GenOp::CallStatic, 0, 0, false, 0, 25});
  }
  Push({GenOp::PrintAcc, 0, 0, false, 0, 1});

  size_t NumRandom = static_cast<size_t>(R.nextInRange(10, 30));
  for (size_t I = 0; I < NumRandom; ++I)
    Push(sampleOp(/*AllowStatic=*/true));
  Push({GenOp::PrintAcc, 0, 0, false, 0, 1});
}

void ProgramGen::generateThreadOps() {
  // The tmain driver: thread-confined objects only, no static stores. Every
  // op kind except SetStatic is fair game — SetStatic would race other
  // mutators under the guest threading contract (docs/threads.md).
  Model.TOps.clear();
  auto Push = [&](GenOp O) { Model.TOps.push_back(O); };
  for (size_t FI = 0; FI < Model.Families.size(); ++FI) {
    const GenFamily &F = Model.Families[FI];
    int64_t Hot = F.HotInstance.empty() || F.HotInstance[0].empty()
                      ? 0
                      : F.HotInstance[0][0];
    int Fam = static_cast<int>(FI);
    int Base = Fam * VarsPerFamily;
    // Prelude per family: reach specialized code from inside the thread —
    // construct cold, run hot, swing to a hot state, keep running.
    Push({GenOp::New, Fam, Base, false, 3, 1});
    Push({GenOp::CallTick, Fam, Base, false, 0, 60});
    Push({GenOp::SetMode, Fam, Base, false, Hot, 1});
    Push({GenOp::CallTick, Fam, Base, false, 0, 30});
    Push({GenOp::CallGet, Fam, Base, false, 0, 1});
  }
  size_t NumRandom = static_cast<size_t>(R.nextInRange(8, 20));
  for (size_t I = 0; I < NumRandom; ++I)
    Push(sampleOp(/*AllowStatic=*/false));
  Push({GenOp::PrintAcc, 0, 0, false, 0, 1});
}

GenOp ProgramGen::sampleOp(bool AllowStatic) {
  GenOp O;
  int Fam = static_cast<int>(R.nextBelow(Model.Families.size()));
  const GenFamily &F = Model.Families[static_cast<size_t>(Fam)];
  O.Fam = Fam;
  O.Var = Fam * VarsPerFamily + static_cast<int>(R.nextBelow(VarsPerFamily));
  // Bias mode values toward hot tuples so swings actually hit them.
  auto ModeVal = [&]() -> int64_t {
    if (!F.HotInstance.empty() && !F.HotInstance[0].empty() &&
        R.nextBool(0.5)) {
      const auto &T = F.HotInstance[R.nextBelow(F.HotInstance.size())];
      if (!T.empty())
        return T[0];
    }
    return R.nextInRange(0, 3);
  };
  uint64_t Roll = R.nextBelow(100);
  if (Roll < 10) {
    O.K = GenOp::New;
    O.Sub = F.HasSub && R.nextBool(0.5);
    O.Val = ModeVal();
  } else if (Roll < 25) {
    O.K = GenOp::SetMode;
    O.Val = ModeVal();
  } else if (Roll < 30) {
    O.K = GenOp::SetMode2;
    O.Val = R.nextInRange(0, 2);
  } else if (Roll < 40 && AllowStatic) {
    O.K = GenOp::SetStatic;
    O.Val = R.nextBool(0.6) && !F.HotStatic.empty()
                ? F.HotStatic[R.nextBelow(F.HotStatic.size())]
                : R.nextInRange(0, 2);
  } else if (Roll < 60) { // without statics, absorbs the SetStatic band
    O.K = GenOp::CallTick;
    O.Count = R.nextInRange(1, 50);
  } else if (Roll < 68) {
    O.K = GenOp::CallIface;
    O.Count = R.nextInRange(1, 40);
  } else if (Roll < 73) {
    O.K = GenOp::CallWide;
    O.Val = R.nextInRange(0, 8);
    O.Count = R.nextInRange(1, 20);
  } else if (Roll < 80) {
    O.K = GenOp::CallStatic; // reads statics only: race-free
    O.Count = R.nextInRange(1, 40);
  } else if (Roll < 88) {
    O.K = GenOp::CallGet;
  } else if (Roll < 94) {
    O.K = GenOp::TypeTest;
  } else {
    O.K = GenOp::PrintAcc;
  }
  return O;
}

std::string ProgramGen::generate() {
  Model.Families.clear();
  Model.Opt1 = 30;
  Model.Opt2 = 120;
  Model.Segments = 1;
  size_t NumFam = R.nextBool(0.6) ? 2 : 1;
  Model.Families.resize(NumFam);
  for (GenFamily &F : Model.Families)
    generateFamily(F);
  generateOps();
  // Drawn last so the family/op stream for a given seed is unchanged from
  // pre-segment corpora. Three segments: seg0 runs without the plan, which
  // is installed before seg1 and seg2.
  if (R.nextBool(0.35))
    Model.Segments = 3;
  // Likewise drawn after everything else: a seed's main() is byte-identical
  // to pre-tmain corpora.
  generateThreadOps();
  // And the edge arithmetic last of all, so every other draw is unchanged.
  for (GenFamily &F : Model.Families)
    generateArith(F);
  return render();
}

std::string ProgramGen::renderDirectives() const {
  std::string S;
  S += "#!adaptive " + itos(static_cast<int64_t>(Model.Opt1)) + " " +
       itos(static_cast<int64_t>(Model.Opt2)) + "\n";
  if (Model.Segments > 1)
    S += "#!segments " + itos(Model.Segments) + "\n";
  for (size_t FI = 0; FI < Model.Families.size(); ++FI) {
    const GenFamily &F = Model.Families[FI];
    std::string CN = "C" + itos(static_cast<int64_t>(FI));
    std::string Inst = F.StaticOnlyPlan
                           ? "-"
                           : (F.HasMode2 ? "mode,mode2" : "mode");
    std::string Stat = F.HasStaticState ? "gmode" : "-";
    std::string Methods = "tick";
    if (F.GetMutable)
      Methods += ",get";
    if (F.HasStaticState && F.ScaleMutable)
      Methods += ",scale";
    S += "#!mutable " + CN + " instance=" + Inst + " static=" + Stat +
         " methods=" + Methods + "\n";
    for (size_t HS = 0; HS < F.HotInstance.size(); ++HS) {
      const std::vector<int64_t> &IV = F.HotInstance[HS];
      S += "#!hot ";
      S += CN;
      S += ' ';
      if (IV.empty())
        S += '-';
      for (size_t I = 0; I < IV.size(); ++I) {
        if (I)
          S += ',';
        S += itos(IV[I]);
      }
      S += " : ";
      S += F.HasStaticState ? itos(F.HotStatic[HS]) : "-";
      S += '\n';
    }
  }
  return S;
}

void ProgramGen::renderFamily(std::string &S, size_t FamIdx) const {
  const GenFamily &F = Model.Families[FamIdx];
  std::string CN = "C" + itos(static_cast<int64_t>(FamIdx));

  std::string Ifaces;
  if (F.ImplementsWork)
    Ifaces += "Work";
  if (F.ImplementsWide)
    Ifaces += std::string(Ifaces.empty() ? "" : ", ") + "Wide";
  S += "class " + CN + (Ifaces.empty() ? "" : " implements " + Ifaces) +
       " {\n";
  S += "  field mode: i64\n";
  if (F.HasMode2)
    S += "  field mode2: i64\n";
  S += "  field acc: i64\n";
  if (F.HasLim)
    S += "  field lim: i64 private\n";
  if (F.HasStaticState)
    S += "  field gmode: i64 static\n";

  // Constructor: assigns the state fields (hot or cold per the ctor
  // argument) so part I's constructor-exit action classifies the object.
  S += "  ctor <init>(%m: i64) {\n";
  S += "    putfield %this, " + CN + ".mode, %m\n";
  if (F.HasMode2) {
    S += "    %m2 = consti " + itos(F.Mode2Init) + "\n";
    S += "    putfield %this, " + CN + ".mode2, %m2\n";
  }
  S += "    %z = consti 0\n";
  S += "    putfield %this, " + CN + ".acc, %z\n";
  if (F.HasLim) {
    S += "    %lv = consti " + itos(F.LimVal) + "\n";
    S += "    putfield %this, " + CN + ".lim, %lv\n";
  }
  S += "    ret\n  }\n";

  // tick: branch on mode, accumulate a per-arm constant plus contributions
  // from every other kind of field, so specialization has stores to fold.
  auto RenderTick = [&](const std::vector<int64_t> &Adds) {
    S += "  method tick() -> void {\n";
    S += "    %m = getfield %this, " + CN + ".mode\n";
    S += "    %a = getfield %this, " + CN + ".acc\n";
    S += "    %x = consti 0\n";
    if (F.HasMode2) {
      S += "    %q = getfield %this, " + CN + ".mode2\n";
      S += "    %k2 = consti " + itos(F.K2) + "\n";
      S += "    %p2 = mul %q, %k2\n";
      S += "    %x = add %x, %p2\n";
    }
    if (F.HasStaticState) {
      S += "    %g = getstatic " + CN + ".gmode\n";
      S += "    %k3 = consti " + itos(F.K3) + "\n";
      S += "    %p3 = mul %g, %k3\n";
      S += "    %x = add %x, %p3\n";
    }
    if (F.HasLim) {
      S += "    %l = getfield %this, " + CN + ".lim\n";
      S += "    %x = add %x, %l\n";
    }
    if (F.HasArith) {
      S += "    %ao = consti 1\n";
      S += "    %dv = or %m, %ao\n";
      S += "    %dk = consti " + itos(2 * F.ArithShift) + "\n";
      S += "    %dv = sub %dv, %dk\n";
      S += "    %dd = consti " + itos(F.ArithDividend) + "\n";
      S += "    %dq = div %dd, %dv\n";
      S += "    %x = add %x, %dq\n";
      S += "    %dr = rem %dd, %dv\n";
      S += "    %x = add %x, %dr\n";
      S += "    %fm = i2f %m\n";
      S += "    %fb = constf " + itos(F.ArithBias) + "\n";
      S += "    %fn = fsub %fm, %fb\n";
      S += F.ArithInf ? "    %fs = constf 0.0\n    %fq = fdiv %fn, %fs\n"
                      : "    %fs = constf 4e18\n    %fq = fmul %fn, %fs\n";
      S += "    %fi = f2i %fq\n";
      S += "    %x = add %x, %fi\n";
    }
    for (int Arm = 0; Arm < 3; ++Arm) {
      S += "    %c" + itos(Arm) + " = consti " + itos(Arm) + "\n";
      S += "    %e" + itos(Arm) + " = cmpeq %m, %c" + itos(Arm) + "\n";
      S += "    cbnz %e" + itos(Arm) + ", @arm" + itos(Arm) + "\n";
    }
    auto Arm = [&](const std::string &Tag, int64_t Add) {
      S += "    %k" + Tag + " = consti " + itos(Add) + "\n";
      S += "    %s" + Tag + " = add %a, %k" + Tag + "\n";
      S += "    %s" + Tag + " = add %s" + Tag + ", %x\n";
      S += "    putfield %this, " + CN + ".acc, %s" + Tag + "\n";
      S += "    ret\n";
    };
    Arm("d", Adds[3]);
    for (int A = 0; A < 3; ++A) {
      S += "  @arm" + itos(A) + ":\n";
      Arm(itos(A), Adds[static_cast<size_t>(A)]);
    }
    S += "  }\n";
  };
  RenderTick(F.TickAdd);

  S += "  method get() -> i64 {\n";
  S += "    %a = getfield %this, " + CN + ".acc\n";
  S += "    ret %a\n  }\n";

  S += "  method setMode(%v: i64) -> void {\n";
  S += "    putfield %this, " + CN + ".mode, %v\n";
  S += "    ret\n  }\n";
  if (F.HasMode2) {
    S += "  method setMode2(%v: i64) -> void {\n";
    S += "    putfield %this, " + CN + ".mode2, %v\n";
    S += "    ret\n  }\n";
  }
  if (F.HasStaticState) {
    S += "  method scale() -> i64 static {\n";
    S += "    %g = getstatic " + CN + ".gmode\n";
    S += "    %k = consti " + itos(F.K3) + "\n";
    S += "    %r = mul %g, %k\n";
    S += "    ret %r\n  }\n";
  }
  if (F.ImplementsWide) {
    for (int W = 0; W < 9; ++W) {
      S += "  method w" + itos(W) + "() -> i64 {\n";
      S += "    %a = getfield %this, " + CN + ".acc\n";
      S += "    %k = consti " + itos(W + 1) + "\n";
      S += "    %r = add %a, %k\n";
      S += "    ret %r\n  }\n";
    }
  }
  S += "}\n\n";

  if (!F.HasSub)
    return;
  S += "class " + CN + "S extends " + CN + " {\n";
  S += "  ctor <init>(%m: i64) {\n";
  S += "    callspecial " + CN + ".<init>(%this, %m)\n";
  S += "    ret\n  }\n";
  if (F.SubOverridesTick)
    RenderTick(F.SubTickAdd);
  if (F.SubOverridesGet) {
    S += "  method get() -> i64 {\n";
    S += "    %a = getfield %this, " + CN + ".acc\n";
    S += "    %b = consti " + itos(F.SubGetBias) + "\n";
    S += "    %r = add %a, %b\n";
    S += "    ret %r\n  }\n";
  }
  S += "}\n\n";
}

void ProgramGen::renderDriver(std::string &S) const {
  const size_t NumVars = Model.Families.size() * VarsPerFamily;
  const int Segs = Model.Segments < 1 ? 1 : Model.Segments;

  S += "class Main {\n";
  if (Segs > 1) {
    // Segments communicate through statics: the accumulator and every
    // object variable slot round-trip the JTOC between seg<k>() calls, so
    // invoking the segments back-to-back is identical to main()'s inlined
    // sequence.
    S += "  field acc: i64 static\n";
    for (size_t V = 0; V < NumVars; ++V)
      S += "  field o" + itos(static_cast<int64_t>(V)) + ": ref static\n";
  }

  struct VarState {
    bool Init = false;
  };
  std::vector<VarState> Vars(NumVars);

  int N = 0; // unique suffix for temporaries and labels
  auto Loop = [&](int64_t Count, const std::string &Body) {
    std::string T = itos(N);
    S += "    %i" + T + " = consti 0\n";
    S += "    %n" + T + " = consti " + itos(Count) + "\n";
    S += "  @h" + T + ":\n";
    S += "    %c" + T + " = cmplt %i" + T + ", %n" + T + "\n";
    S += "    cbz %c" + T + ", @d" + T + "\n";
    S += Body;
    S += "    %i" + T + " = add %i" + T + ", %one\n";
    S += "    br @h" + T + "\n";
    S += "  @d" + T + ":\n";
  };

  auto RenderOp = [&](const GenOp &O) {
    if (O.Fam >= static_cast<int>(Model.Families.size()))
      return; // family shrunk away
    const GenFamily &F = Model.Families[static_cast<size_t>(O.Fam)];
    std::string CN = "C" + itos(O.Fam);
    std::string OV = "%o" + itos(O.Var);
    std::string T = itos(N);
    bool VarOk = Vars[static_cast<size_t>(O.Var)].Init;
    switch (O.K) {
    case GenOp::New: {
      std::string Cls = (O.Sub && F.HasSub) ? CN + "S" : CN;
      S += "    %t" + T + " = consti " + itos(O.Val) + "\n";
      S += "    " + OV + " = new " + Cls + "\n";
      S += "    callspecial " + Cls + ".<init>(" + OV + ", %t" + T + ")\n";
      Vars[static_cast<size_t>(O.Var)].Init = true;
      break;
    }
    case GenOp::SetMode:
      if (!VarOk)
        return;
      S += "    %t" + T + " = consti " + itos(O.Val) + "\n";
      S += "    callvirtual " + CN + ".setMode(" + OV + ", %t" + T + ")\n";
      break;
    case GenOp::SetMode2:
      if (!VarOk || !F.HasMode2)
        return;
      S += "    %t" + T + " = consti " + itos(O.Val) + "\n";
      S += "    callvirtual " + CN + ".setMode2(" + OV + ", %t" + T + ")\n";
      break;
    case GenOp::SetStatic:
      if (!F.HasStaticState)
        return;
      S += "    %t" + T + " = consti " + itos(O.Val) + "\n";
      S += "    putstatic " + CN + ".gmode, %t" + T + "\n";
      break;
    case GenOp::CallTick:
      if (!VarOk)
        return;
      Loop(O.Count, "    callvirtual " + CN + ".tick(" + OV + ")\n");
      break;
    case GenOp::CallIface:
      if (!VarOk || !F.ImplementsWork)
        return;
      Loop(O.Count, "    callinterface Work.tick(" + OV + ")\n");
      break;
    case GenOp::CallWide:
      if (!VarOk || !F.ImplementsWide)
        return;
      Loop(O.Count, "    %r" + T + " = callinterface Wide.w" + itos(O.Val) +
                        "(" + OV + ")\n    %acc = add %acc, %r" + T + "\n");
      break;
    case GenOp::CallStatic:
      if (!F.HasStaticState)
        return;
      Loop(O.Count, "    %r" + T + " = callstatic " + CN +
                        ".scale()\n    %acc = add %acc, %r" + T + "\n");
      break;
    case GenOp::CallGet:
      if (!VarOk)
        return;
      S += "    %r" + T + " = callvirtual " + CN + ".get(" + OV + ")\n";
      S += "    %acc = add %acc, %r" + T + "\n";
      S += "    print %r" + T + "\n";
      S += "    %nl" + T + " = consti 10\n";
      S += "    printchar %nl" + T + "\n";
      break;
    case GenOp::TypeTest:
      if (!VarOk || !F.HasSub)
        return;
      S += "    %t" + T + " = instanceof " + OV + ", " + CN + "S\n";
      S += "    print %t" + T + "\n";
      S += "    cbz %t" + T + ", @sk" + T + "\n";
      S += "    checkcast " + OV + ", " + CN + "S\n";
      S += "    %r" + T + " = callvirtual " + CN + ".get(" + OV + ")\n";
      S += "    %acc = add %acc, %r" + T + "\n";
      S += "  @sk" + T + ":\n";
      break;
    case GenOp::PrintAcc:
      S += "    print %acc\n";
      S += "    %nl" + T + " = consti 10\n";
      S += "    printchar %nl" + T + "\n";
      break;
    }
    ++N;
  };

  // The thread-safe driver: fresh variables (thread-confined objects), no
  // static stores, a local accumulator. N mutators run this concurrently in
  // the fuzzer's --threads mode; Vars resets so ops only see objects tmain
  // itself allocated.
  auto RenderTmain = [&] {
    for (VarState &V : Vars)
      V.Init = false;
    S += "  method tmain() -> i64 static {\n";
    S += "    %acc = consti 0\n";
    S += "    %one = consti 1\n";
    for (const GenOp &O : Model.TOps)
      RenderOp(O);
    S += "    print %acc\n";
    S += "    ret %acc\n";
    S += "  }\n";
  };

  if (Segs == 1) {
    S += "  method main() -> i64 static {\n";
    S += "    %acc = consti 0\n";
    S += "    %one = consti 1\n";
    for (const GenOp &O : Model.Ops)
      RenderOp(O);
    S += "    print %acc\n";
    S += "    ret %acc\n";
    S += "  }\n";
    RenderTmain();
    S += "}\n";
    return;
  }

  // Segmented driver: contiguous op chunks per segment, state carried in
  // the Main statics. VarOk tracking spans segments (Vars is shared), so an
  // op may use an object allocated two segments earlier.
  const size_t PerSeg = (Model.Ops.size() + static_cast<size_t>(Segs) - 1) /
                        static_cast<size_t>(Segs);
  for (int K = 0; K < Segs; ++K) {
    S += "  method seg" + itos(K) + "() -> i64 static {\n";
    S += "    %acc = getstatic Main.acc\n";
    S += "    %one = consti 1\n";
    for (size_t V = 0; V < NumVars; ++V)
      S += "    %o" + itos(static_cast<int64_t>(V)) + " = getstatic Main.o" +
           itos(static_cast<int64_t>(V)) + "\n";
    for (size_t I = static_cast<size_t>(K) * PerSeg;
         I < (static_cast<size_t>(K) + 1) * PerSeg && I < Model.Ops.size();
         ++I)
      RenderOp(Model.Ops[I]);
    if (K == Segs - 1)
      S += "    print %acc\n";
    S += "    putstatic Main.acc, %acc\n";
    for (size_t V = 0; V < NumVars; ++V)
      S += "    putstatic Main.o" + itos(static_cast<int64_t>(V)) + ", %o" +
           itos(static_cast<int64_t>(V)) + "\n";
    S += "    ret %acc\n  }\n";
  }
  // main() calls every segment in order, so a plain `dchm_run exec` of the
  // rendered file reproduces the harness's segment-by-segment output.
  S += "  method main() -> i64 static {\n";
  std::string Last;
  for (int K = 0; K < Segs; ++K) {
    Last = "%r" + itos(K);
    S += "    " + Last + " = callstatic Main.seg" + itos(K) + "()\n";
  }
  S += "    ret " + Last + "\n  }\n";
  RenderTmain();
  S += "}\n";
}

std::string ProgramGen::render() const {
  std::string S;
  S += "# generated by ProgramGen seed=" +
       itos(static_cast<int64_t>(Model.Seed)) + "\n";
  S += "# replay: dchm_run exec <this-file> --entry=Main.main --mutate "
       "--audit\n";
  S += renderDirectives();
  S += "\n";

  bool AnyWork = false, AnyWide = false;
  for (const GenFamily &F : Model.Families) {
    AnyWork |= F.ImplementsWork;
    AnyWide |= F.ImplementsWide;
  }
  if (AnyWork)
    S += "interface Work {\n  method tick() -> void\n}\n\n";
  if (AnyWide) {
    S += "interface Wide {\n";
    for (int W = 0; W < 9; ++W)
      S += "  method w" + itos(W) + "() -> i64\n";
    S += "}\n\n";
  }
  for (size_t FI = 0; FI < Model.Families.size(); ++FI)
    renderFamily(S, FI);
  renderDriver(S);
  return S;
}

std::string ProgramGen::minimize(
    const std::function<bool(const std::string &)> &StillFails) {
  // Greedy delta-minimization to a fixpoint: an edit is kept only when the
  // re-rendered program still fails. Ops first (cheapest wins), then whole
  // families, then hot states, then feature flags.
  bool Changed = true;
  int Rounds = 0;
  while (Changed && Rounds++ < 24) {
    Changed = false;
    // Collapse a segmented driver first: one method is far easier to read,
    // and most failures do not need the mid-run install.
    if (Model.Segments > 1) {
      int Saved = Model.Segments;
      Model.Segments = 1;
      if (StillFails(render()))
        Changed = true;
      else
        Model.Segments = Saved;
    }
    // Drop driver ops, largest index first so loops vanish before the News
    // they depend on. Same treatment for both drivers.
    for (std::vector<GenOp> *Ops : {&Model.Ops, &Model.TOps}) {
      for (size_t I = Ops->size(); I > 0; --I) {
        GenOp Saved = (*Ops)[I - 1];
        Ops->erase(Ops->begin() + static_cast<long>(I - 1));
        if (StillFails(render()))
          Changed = true;
        else
          Ops->insert(Ops->begin() + static_cast<long>(I - 1), Saved);
      }
    }
    // Drop whole families (ops referencing them become render no-ops).
    for (size_t FI = Model.Families.size(); FI > 1; --FI) {
      GenModel Saved = Model;
      Model.Families.erase(Model.Families.begin() + static_cast<long>(FI - 1));
      if (StillFails(render()))
        Changed = true;
      else
        Model = std::move(Saved);
    }
    // Drop hot states and feature flags.
    for (GenFamily &F : Model.Families) {
      for (size_t HS = F.HotInstance.size(); HS > 1; --HS) {
        GenFamily Saved = F;
        F.HotInstance.erase(F.HotInstance.begin() + static_cast<long>(HS - 1));
        F.HotStatic.erase(F.HotStatic.begin() + static_cast<long>(HS - 1));
        if (StillFails(render()))
          Changed = true;
        else
          F = std::move(Saved);
      }
      bool *Flags[] = {&F.HasSub,         &F.ImplementsWide,
                       &F.ImplementsWork, &F.HasLim,
                       &F.GetMutable,     &F.ScaleMutable,
                       &F.HasMode2,       &F.HasArith};
      for (bool *Flag : Flags) {
        if (!*Flag)
          continue;
        GenFamily Saved = F;
        *Flag = false;
        if (Flag == &F.HasMode2 && !F.StaticOnlyPlan)
          for (auto &T : F.HotInstance)
            if (T.size() > 1)
              T.erase(T.begin() + 1, T.end());
        if (Flag == &F.HasSub) {
          F.SubOverridesTick = F.SubOverridesGet = false;
        }
        if (StillFails(render()))
          Changed = true;
        else
          F = std::move(Saved);
      }
    }
  }
  return render();
}


} // namespace dchm
