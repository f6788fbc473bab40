//===-- testing/ProgramGen.h - Random MVM program generator ---*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded random generator of MVM programs exercising everything the
/// mutation engine touches: class families with mutable base classes
/// (instance and static state fields, constructors assigning hot and cold
/// states, an optional object-lifetime-constant field), subclasses
/// overriding a subset of the mutable methods through invokespecial super
/// constructors, interfaces dispatched through the IMT (including a wide
/// interface that forces conflict stubs), instanceof/checkcast, and a
/// random driver method that creates objects, swings their states, and
/// calls through every dispatch kind while accumulating a printed checksum.
///
/// Programs render to `.mvm` text (docs/mvm-format.md) with `#!` plan
/// directives in comments, so any failure replays byte-for-byte under
/// tools/dchm_run and shrinks with the greedy delta-minimizer here. See
/// docs/fuzzing.md.
///
/// Besides `Main.main`, every program renders a `Main.tmain` driver obeying
/// the guest thread-safety contract (docs/threads.md): it allocates its own
/// objects and never stores to a static field, so N mutator threads can run
/// it concurrently against one Program/Heap and each thread's output stream
/// must equal a single-mutator run of the same method (the fuzzer's
/// --threads dimension).
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_TESTING_PROGRAMGEN_H
#define DCHM_TESTING_PROGRAMGEN_H

#include "support/Random.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace dchm {

/// One generated class family: a mutable base class `C<i>` (fields mode
/// [, mode2], acc, optionally lim and static gmode) and optionally a
/// subclass `C<i>S` overriding a subset of the mutable methods.
struct GenFamily {
  bool HasMode2 = false;       ///< second instance state field
  bool HasStaticState = false; ///< static state field gmode + scale() method
  /// Plan lists no instance state fields: the class TIB itself is
  /// specialized (the paper's static-only mutable class flavor).
  bool StaticOnlyPlan = false;
  bool HasLim = false;         ///< private ctor-assigned OLC candidate field
  bool HasSub = false;
  bool SubOverridesTick = false;
  bool SubOverridesGet = false;
  bool ImplementsWork = false; ///< single-method interface (Direct IMT entry)
  bool ImplementsWide = false; ///< 9-method interface (Conflict IMT entries)
  bool GetMutable = false;     ///< get() joins tick() in the mutable set
  bool ScaleMutable = false;   ///< scale() mutable (static method in JTOC)
  int64_t Mode2Init = 0;
  int64_t LimVal = 0;
  int64_t K2 = 0, K3 = 0;          ///< mode2 / gmode contribution factors
  std::vector<int64_t> TickAdd;    ///< per-arm constants (arms 0..2 + default)
  std::vector<int64_t> SubTickAdd; ///< override's per-arm constants
  int64_t SubGetBias = 0;
  /// tick() also adds Java-edge arithmetic on mode to its contribution:
  /// ArithDividend div and rem (mode | 1) - 2 * ArithShift, an odd and so
  /// non-zero divisor (-1 for some modes when ArithShift is 1 or 2), and
  /// f2i of (mode - ArithBias) divided by 0.0 when ArithInf (±inf, or NaN
  /// at mode == ArithBias) or else scaled by 4e18 (past INT64_MAX from
  /// |mode - ArithBias| = 3). Specialized bodies see mode as a constant, so
  /// mutation off vs on compares the interpreter with the constant folder.
  bool HasArith = false;
  int64_t ArithDividend = 0;
  int64_t ArithShift = 0;
  int64_t ArithBias = 0;
  bool ArithInf = false;
  /// Hot-state tuples: [mode (, mode2)] instance part, [gmode] static part.
  std::vector<std::vector<int64_t>> HotInstance;
  std::vector<int64_t> HotStatic; ///< aligned with HotInstance when static
};

/// One driver operation. Ops referencing a never-initialized variable are
/// silently skipped at render time, which keeps delta-minimization trivial.
struct GenOp {
  enum Kind {
    New,        ///< allocate + invokespecial ctor into variable Var
    SetMode,    ///< virtual setMode(Val) — part I instance trigger
    SetMode2,   ///< virtual setMode2(Val)
    SetStatic,  ///< putstatic gmode = Val — part I static trigger
    CallTick,   ///< Count virtual tick() calls
    CallIface,  ///< Count interface Work.tick() calls (IMT)
    CallWide,   ///< Count interface Wide.w<Val>() calls (conflict stub)
    CallStatic, ///< Count static scale() calls (JTOC)
    CallGet,    ///< one virtual get(), accumulated + printed
    TypeTest,   ///< instanceof + guarded checkcast to the subclass
    PrintAcc    ///< print the running accumulator
  } K = PrintAcc;
  int Fam = 0;
  int Var = 0;       ///< variable index within the family's slot range
  bool Sub = false;  ///< New: allocate the subclass
  int64_t Val = 0;   ///< mode value / static value / wide method index
  int64_t Count = 1; ///< loop trip count for Call* ops
};

/// The generator's model of one program: everything needed to render the
/// `.mvm` text, and the unit the shrinker edits.
struct GenModel {
  uint64_t Seed = 0;
  uint64_t Opt1 = 30, Opt2 = 120; ///< adaptive promotion thresholds
  /// With Segments > 1 the driver ops are split across `Main.seg<k>()`
  /// static methods communicating through static fields, and `Main.main()`
  /// calls them in order. A harness can instead invoke the segments one by
  /// one (the `#!segments` directive) and install the mutation plan after
  /// the first — a mid-run install into a heap that already holds objects,
  /// as online activation does. Output is identical either way.
  int Segments = 1;
  std::vector<GenFamily> Families;
  std::vector<GenOp> Ops;
  /// Ops of the thread-safe `Main.tmain` driver: same op language minus
  /// SetStatic (statics must be read-only once mutators run), over variables
  /// the method allocates itself (thread-confined objects).
  std::vector<GenOp> TOps;
};

/// Seeded random MVM program generator with greedy shrinking.
class ProgramGen {
public:
  explicit ProgramGen(uint64_t Seed);

  /// Generates a fresh random model (replacing any previous one) and
  /// returns the rendered `.mvm` source.
  std::string generate();

  /// Renders the current model (generate() must have run).
  std::string render() const;
  const GenModel &model() const { return Model; }
  GenModel &model() { return Model; }

  /// Greedy delta-minimization: repeatedly drops driver ops, whole
  /// families, hot states, and feature flags while StillFails(render())
  /// holds, until a fixpoint. Returns the minimized source and leaves the
  /// model in the minimized state.
  std::string
  minimize(const std::function<bool(const std::string &)> &StillFails);

  /// Renders just the `#!` plan directives for the current model.
  std::string renderDirectives() const;

private:
  void generateFamily(GenFamily &F);
  void generateArith(GenFamily &F);
  void generateOps();
  void generateThreadOps();
  /// One op of a driver's random tail; without AllowStatic the SetStatic
  /// band draws a CallTick instead.
  GenOp sampleOp(bool AllowStatic);
  void renderFamily(std::string &S, size_t FamIdx) const;
  void renderDriver(std::string &S) const;

  Rng R;
  GenModel Model;
};

} // namespace dchm

#endif // DCHM_TESTING_PROGRAMGEN_H
