//===-- workloads/Jbb.cpp - SPECjbb-like transaction processing ---------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// A warehouse transaction-processing workload modeled on SPECjbb2000 and
/// SPECjbb2005 (ported versions per the paper's methodology):
///
///  - DisplayScreen reproduces the paper's Figure 7: rows/cols assigned the
///    constants 24/80 in the constructor, reachable through *private*
///    reference fields of the Delivery and Payment transactions — object
///    lifetime constants enabling specialization inlining.
///  - Terminal is a mutable class with three hot states (terse / normal /
///    verbose logging mode), exercising multi-state special TIBs.
///  - TxLogger is a mutable class depending only on a *static* state field
///    (logLevel), exercising JTOC/class-TIB mutation for static methods.
///  - The 2005 variant adds the heavyweight CustomerReport transaction and
///    larger order sizes: less relative time in mutable methods and much
///    more allocation (GC pressure), which is why its mutation speedup is
///    smaller (paper: 1.9% vs 4.5%).
///
/// Measurement: runWarehouseWindows() executes back-to-back "warehouses"
/// (fixed simulated-cycle windows) and reports each window's throughput in
/// transactions per simulated second, the paper's Figures 13-15 metric.
///
//===----------------------------------------------------------------------===//

#include "workloads/Workload.h"

#include "ir/Builder.h"
#include "runtime/CostModel.h"

#include <algorithm>

namespace dchm {

namespace {

class JbbImpl final : public JbbWorkload {
public:
  explicit JbbImpl(JbbVariant V) : Variant(V) {
    HeapBytes = V == JbbVariant::Jbb2000 ? 8u << 20 : 24u << 20;
  }

  std::string name() const override {
    return Variant == JbbVariant::Jbb2000 ? "SPECjbb2000" : "SPECjbb2005";
  }
  std::string description() const override {
    return "SPEC transaction processing benchmark (warehouse model)";
  }

  void build(Program &P) override;
  void driveScaled(VirtualMachine &VM, double Scale) override;

  void initVm(VirtualMachine &VM) override;
  uint64_t runTransactions(VirtualMachine &VM, uint64_t Count) override;
  std::vector<JbbWindow>
  runWarehouseWindows(VirtualMachine &VM, int NumWindows,
                      uint64_t WindowCycles, uint64_t WarmupCycles) override;

private:
  JbbVariant Variant;
};

void JbbImpl::build(Program &P) {
  const bool Is2005 = Variant == JbbVariant::Jbb2005;

  // --- class TxLogger (mutable on a static state field) ---------------------
  ClassId Logger = P.defineClass("TxLogger");
  FieldId LogLevel =
      P.defineField(Logger, "logLevel", Type::I64, true, Access::Private);
  FieldId LogCount = P.defineField(Logger, "logCount", Type::I64, true);
  MethodId LogSet = P.defineMethod(Logger, "setLevel", Type::Void, {Type::I64},
                                   {.IsStatic = true});
  {
    FunctionBuilder B("TxLogger.setLevel", Type::Void);
    Reg L = B.addArg(Type::I64);
    B.putStatic(LogLevel, L);
    B.retVoid();
    P.setBody(LogSet, B.finalize());
  }
  MethodId Log = P.defineMethod(Logger, "log", Type::Void, {Type::I64},
                                {.IsStatic = true});
  {
    FunctionBuilder B("TxLogger.log", Type::Void);
    B.addArg(Type::I64); // logged value: consumed only at higher log levels
    Reg L = B.getStatic(LogLevel, Type::I64);
    auto LSkip = B.makeLabel();
    auto LFull = B.makeLabel();
    B.cbz(L, LSkip);
    // level >= 2: detailed accounting (cold in the hot state).
    Reg Two = B.constI(2);
    B.cbz(B.cmp(Opcode::CmpGE, L, Two), LFull);
    Reg C = B.getStatic(LogCount, Type::I64);
    Reg Three = B.constI(3);
    B.putStatic(LogCount, B.add(C, Three));
    B.retVoid();
    B.bind(LFull);
    Reg C2 = B.getStatic(LogCount, Type::I64);
    Reg One = B.constI(1);
    B.putStatic(LogCount, B.add(C2, One));
    B.retVoid();
    B.bind(LSkip);
    B.retVoid();
    P.setBody(Log, B.finalize());
  }

  // --- class DisplayScreen (paper Figure 7) -----------------------------------
  ClassId Screen = P.defineClass("DisplayScreen");
  FieldId Rows =
      P.defineField(Screen, "rows", Type::I64, false, Access::Package);
  FieldId Cols =
      P.defineField(Screen, "cols", Type::I64, false, Access::Package);
  FieldId SBuf =
      P.defineField(Screen, "buf", Type::Ref, false, Access::Private);
  MethodId ScrCtor =
      P.defineMethod(Screen, "<init>", Type::Void, {}, {.IsCtor = true});
  {
    FunctionBuilder B("DisplayScreen.<init>", Type::Void);
    Reg This = B.addArg(Type::Ref);
    Reg R24 = B.constI(24);
    B.putField(This, Rows, R24);
    Reg C80 = B.constI(80);
    B.putField(This, Cols, C80);
    Reg N = B.mul(B.getField(This, Rows, Type::I64),
                  B.getField(This, Cols, Type::I64));
    B.putField(This, SBuf, B.newArray(Type::I64, N));
    B.retVoid();
    P.setBody(ScrCtor, B.finalize());
  }
  // putText(row, seed): fill one row with generated characters. The cols
  // field is read in the loop bound — a branch use of a state field.
  MethodId PutText =
      P.defineMethod(Screen, "putText", Type::Void, {Type::I64, Type::I64});
  {
    FunctionBuilder B("DisplayScreen.putText", Type::Void);
    Reg This = B.addArg(Type::Ref);
    Reg Row = B.addArg(Type::I64);
    Reg SeedV = B.addArg(Type::I64);
    Reg Buf = B.getField(This, SBuf, Type::Ref);
    Reg C = B.newReg(Type::I64);
    Reg Zero = B.constI(0);
    Reg One = B.constI(1);
    Reg Mask = B.constI(15);
    Reg CA = B.constI(65);
    B.move(C, Zero);
    auto LHead = B.makeLabel();
    auto LDone = B.makeLabel();
    B.bind(LHead);
    Reg Width = B.getField(This, Cols, Type::I64);
    B.cbz(B.cmp(Opcode::CmpLT, C, Width), LDone);
    Reg Idx = B.add(B.mul(Row, Width), C);
    Reg Ch = B.add(CA, B.andI(B.add(SeedV, C), Mask));
    B.astore(Type::I64, Buf, Idx, Ch);
    B.move(C, B.add(C, One));
    B.br(LHead);
    B.bind(LDone);
    B.retVoid();
    P.setBody(PutText, B.finalize());
  }
  // clear(): blank the whole screen (rows x cols).
  MethodId Clear = P.defineMethod(Screen, "clear", Type::Void, {});
  {
    FunctionBuilder B("DisplayScreen.clear", Type::Void);
    Reg This = B.addArg(Type::Ref);
    Reg Buf = B.getField(This, SBuf, Type::Ref);
    Reg R = B.newReg(Type::I64);
    Reg C = B.newReg(Type::I64);
    Reg Zero = B.constI(0);
    Reg One = B.constI(1);
    Reg Space = B.constI(32);
    B.move(R, Zero);
    auto LR = B.makeLabel();
    auto LRD = B.makeLabel();
    auto LC = B.makeLabel();
    auto LCD = B.makeLabel();
    B.bind(LR);
    Reg Height = B.getField(This, Rows, Type::I64);
    B.cbz(B.cmp(Opcode::CmpLT, R, Height), LRD);
    B.move(C, Zero);
    B.bind(LC);
    Reg Width = B.getField(This, Cols, Type::I64);
    B.cbz(B.cmp(Opcode::CmpLT, C, Width), LCD);
    B.astore(Type::I64, Buf, B.add(B.mul(R, Width), C), Space);
    B.move(C, B.add(C, One));
    B.br(LC);
    B.bind(LCD);
    B.move(R, B.add(R, One));
    B.br(LR);
    B.bind(LRD);
    B.retVoid();
    P.setBody(Clear, B.finalize());
  }

  // --- class Terminal (mutable, three hot states) -----------------------------
  ClassId Term = P.defineClass("Terminal");
  FieldId Mode =
      P.defineField(Term, "mode", Type::I64, false, Access::Private);
  FieldId TBuf = P.defineField(Term, "lineBuf", Type::Ref, false,
                               Access::Private);
  FieldId TPos = P.defineField(Term, "pos", Type::I64, false, Access::Private);
  MethodId TermCtor = P.defineMethod(Term, "<init>", Type::Void, {Type::I64},
                                     {.IsCtor = true});
  {
    FunctionBuilder B("Terminal.<init>", Type::Void);
    Reg This = B.addArg(Type::Ref);
    Reg M = B.addArg(Type::I64);
    B.putField(This, Mode, M);
    Reg Cap = B.constI(4096);
    B.putField(This, TBuf, B.newArray(Type::I64, Cap));
    Reg Zero = B.constI(0);
    B.putField(This, TPos, Zero);
    B.retVoid();
    P.setBody(TermCtor, B.finalize());
  }
  // logLine(v): emit 1 / 4 / 9 words depending on the mode state field.
  MethodId LogLine = P.defineMethod(Term, "logLine", Type::Void, {Type::I64});
  {
    FunctionBuilder B("Terminal.logLine", Type::Void);
    Reg This = B.addArg(Type::Ref);
    Reg V = B.addArg(Type::I64);
    Reg M = B.getField(This, Mode, Type::I64);
    Reg Buf = B.getField(This, TBuf, Type::Ref);
    Reg Pos = B.newReg(Type::I64);
    B.move(Pos, B.getField(This, TPos, Type::I64));
    Reg One = B.constI(1);
    Reg Mask = B.constI(4095);
    auto LNormal = B.makeLabel();
    auto LVerbose = B.makeLabel();
    auto LDone = B.makeLabel();
    B.cbnz(M, LNormal);
    { // terse: one word
      B.astore(Type::I64, Buf, B.andI(Pos, Mask), V);
      B.move(Pos, B.add(Pos, One));
      B.br(LDone);
    }
    B.bind(LNormal);
    Reg Two = B.constI(2);
    B.cbz(B.cmp(Opcode::CmpLT, M, Two), LVerbose);
    { // normal: four words
      Reg I = B.newReg(Type::I64);
      Reg Zero = B.constI(0);
      Reg Four = B.constI(4);
      B.move(I, Zero);
      auto LH = B.makeLabel();
      auto LE = B.makeLabel();
      B.bind(LH);
      B.cbz(B.cmp(Opcode::CmpLT, I, Four), LE);
      B.astore(Type::I64, Buf, B.andI(Pos, Mask), B.add(V, I));
      B.move(Pos, B.add(Pos, One));
      B.move(I, B.add(I, One));
      B.br(LH);
      B.bind(LE);
      B.br(LDone);
    }
    B.bind(LVerbose);
    { // verbose: nine words
      Reg I = B.newReg(Type::I64);
      Reg Zero = B.constI(0);
      Reg Nine = B.constI(9);
      B.move(I, Zero);
      auto LH = B.makeLabel();
      auto LE = B.makeLabel();
      B.bind(LH);
      B.cbz(B.cmp(Opcode::CmpLT, I, Nine), LE);
      B.astore(Type::I64, Buf, B.andI(Pos, Mask), B.mul(V, I));
      B.move(Pos, B.add(Pos, One));
      B.move(I, B.add(I, One));
      B.br(LH);
      B.bind(LE);
      B.br(LDone);
    }
    B.bind(LDone);
    B.putField(This, TPos, Pos);
    B.retVoid();
    P.setBody(LogLine, B.finalize());
  }

  // --- Simple data classes -----------------------------------------------------
  ClassId Item = P.defineClass("Item");
  FieldId ItemId = P.defineField(Item, "id", Type::I64, false);
  FieldId Price = P.defineField(Item, "price", Type::F64, false);
  MethodId ItemCtor = P.defineMethod(Item, "<init>", Type::Void,
                                     {Type::I64, Type::F64}, {.IsCtor = true});
  {
    FunctionBuilder B("Item.<init>", Type::Void);
    Reg This = B.addArg(Type::Ref);
    Reg Id = B.addArg(Type::I64);
    Reg Pr = B.addArg(Type::F64);
    B.putField(This, ItemId, Id);
    B.putField(This, Price, Pr);
    B.retVoid();
    P.setBody(ItemCtor, B.finalize());
  }

  ClassId Cust = P.defineClass("Customer");
  FieldId CustId = P.defineField(Cust, "id", Type::I64, false);
  FieldId Balance = P.defineField(Cust, "balance", Type::F64, false);
  MethodId CustCtor = P.defineMethod(Cust, "<init>", Type::Void, {Type::I64},
                                     {.IsCtor = true});
  {
    FunctionBuilder B("Customer.<init>", Type::Void);
    Reg This = B.addArg(Type::Ref);
    Reg Id = B.addArg(Type::I64);
    B.putField(This, CustId, Id);
    Reg Z = B.constF(0.0);
    B.putField(This, Balance, Z);
    B.retVoid();
    P.setBody(CustCtor, B.finalize());
  }
  MethodId Pay = P.defineMethod(Cust, "pay", Type::Void, {Type::F64});
  {
    FunctionBuilder B("Customer.pay", Type::Void);
    Reg This = B.addArg(Type::Ref);
    Reg Amt = B.addArg(Type::F64);
    Reg Bal = B.getField(This, Balance, Type::F64);
    B.putField(This, Balance, B.fadd(Bal, Amt));
    B.retVoid();
    P.setBody(Pay, B.finalize());
  }

  ClassId OrderLine = P.defineClass("OrderLine");
  FieldId OlItem = P.defineField(OrderLine, "item", Type::I64, false);
  FieldId OlQty = P.defineField(OrderLine, "qty", Type::I64, false);
  FieldId OlAmt = P.defineField(OrderLine, "amount", Type::F64, false);
  MethodId OlCtor =
      P.defineMethod(OrderLine, "<init>", Type::Void,
                     {Type::I64, Type::I64, Type::F64}, {.IsCtor = true});
  {
    FunctionBuilder B("OrderLine.<init>", Type::Void);
    Reg This = B.addArg(Type::Ref);
    Reg It = B.addArg(Type::I64);
    Reg Q = B.addArg(Type::I64);
    Reg A = B.addArg(Type::F64);
    B.putField(This, OlItem, It);
    B.putField(This, OlQty, Q);
    B.putField(This, OlAmt, A);
    B.retVoid();
    P.setBody(OlCtor, B.finalize());
  }

  ClassId Order = P.defineClass("Order");
  FieldId OrdId = P.defineField(Order, "id", Type::I64, false);
  FieldId OrdCust = P.defineField(Order, "cust", Type::Ref, false);
  FieldId OrdLines = P.defineField(Order, "lines", Type::Ref, false);
  FieldId OrdN = P.defineField(Order, "numLines", Type::I64, false);
  MethodId OrdCtor =
      P.defineMethod(Order, "<init>", Type::Void,
                     {Type::I64, Type::Ref, Type::I64}, {.IsCtor = true});
  {
    FunctionBuilder B("Order.<init>", Type::Void);
    Reg This = B.addArg(Type::Ref);
    Reg Id = B.addArg(Type::I64);
    Reg C = B.addArg(Type::Ref);
    Reg N = B.addArg(Type::I64);
    B.putField(This, OrdId, Id);
    B.putField(This, OrdCust, C);
    B.putField(This, OrdLines, B.newArray(Type::Ref, N));
    B.putField(This, OrdN, N);
    B.retVoid();
    P.setBody(OrdCtor, B.finalize());
  }

  ClassId District = P.defineClass("District");
  FieldId DistId = P.defineField(District, "id", Type::I64, false);
  FieldId NextOrd = P.defineField(District, "nextOrderId", Type::I64, false);
  MethodId DistCtor = P.defineMethod(District, "<init>", Type::Void,
                                     {Type::I64}, {.IsCtor = true});
  {
    FunctionBuilder B("District.<init>", Type::Void);
    Reg This = B.addArg(Type::Ref);
    Reg Id = B.addArg(Type::I64);
    B.putField(This, DistId, Id);
    Reg One = B.constI(1);
    B.putField(This, NextOrd, One);
    B.retVoid();
    P.setBody(DistCtor, B.finalize());
  }
  MethodId NextOrder = P.defineMethod(District, "nextOrder", Type::I64, {});
  {
    FunctionBuilder B("District.nextOrder", Type::I64);
    Reg This = B.addArg(Type::Ref);
    Reg N = B.getField(This, NextOrd, Type::I64);
    Reg One = B.constI(1);
    B.putField(This, NextOrd, B.add(N, One));
    B.ret(N);
    P.setBody(NextOrder, B.finalize());
  }

  ClassId Wh = P.defineClass("Warehouse");
  FieldId WhId = P.defineField(Wh, "id", Type::I64, false);
  FieldId WhStock = P.defineField(Wh, "stock", Type::Ref, false);
  FieldId WhItems = P.defineField(Wh, "items", Type::Ref, false);
  FieldId WhDists = P.defineField(Wh, "districts", Type::Ref, false);
  FieldId WhCusts = P.defineField(Wh, "customers", Type::Ref, false);
  MethodId WhCtor = P.defineMethod(
      Wh, "<init>", Type::Void, {Type::I64, Type::I64, Type::I64, Type::I64},
      {.IsCtor = true});
  {
    FunctionBuilder B("Warehouse.<init>", Type::Void);
    Reg This = B.addArg(Type::Ref);
    Reg Id = B.addArg(Type::I64);
    Reg NItems = B.addArg(Type::I64);
    Reg NDists = B.addArg(Type::I64);
    Reg NCusts = B.addArg(Type::I64);
    B.putField(This, WhId, Id);
    B.putField(This, WhStock, B.newArray(Type::I64, NItems));
    B.putField(This, WhItems, B.newArray(Type::Ref, NItems));
    B.putField(This, WhDists, B.newArray(Type::Ref, NDists));
    B.putField(This, WhCusts, B.newArray(Type::Ref, NCusts));
    B.retVoid();
    P.setBody(WhCtor, B.finalize());
  }

  // --- Transactions ------------------------------------------------------------
  // Shared statics live on TxManager (declared below, ids forward-captured).
  ClassId Mgr = P.defineClass("TxManager");
  FieldId MSeed = P.defineField(Mgr, "seed", Type::I64, true);
  FieldId MWh = P.defineField(Mgr, "warehouse", Type::Ref, true);
  FieldId MTerms = P.defineField(Mgr, "terminals", Type::Ref, true);
  FieldId MLastOrder = P.defineField(Mgr, "lastOrder", Type::Ref, true);
  FieldId MVariant = P.defineField(Mgr, "variant", Type::I64, true);
  FieldId MTxDone = P.defineField(Mgr, "txDone", Type::I64, true);
  FieldId MCheck = P.defineField(Mgr, "check", Type::I64, true);

  MethodId NextRand = P.defineMethod(Mgr, "nextRand", Type::I64, {},
                                     {.IsStatic = true});
  {
    FunctionBuilder B("TxManager.nextRand", Type::I64);
    Reg S = B.getStatic(MSeed, Type::I64);
    Reg Mul = B.constI(2862933555777941757ll);
    Reg Add = B.constI(3037000493ll);
    Reg S2 = B.add(B.mul(S, Mul), Add);
    B.putStatic(MSeed, S2);
    Reg Sh = B.constI(35);
    Reg Mask = B.constI(0x3FFFFFFF);
    B.ret(B.andI(B.shr(S2, Sh), Mask));
    P.setBody(NextRand, B.finalize());
  }

  // class NewOrderTx.
  ClassId NewOrd = P.defineClass("NewOrderTx");
  MethodId NoCtor =
      P.defineMethod(NewOrd, "<init>", Type::Void, {}, {.IsCtor = true});
  {
    FunctionBuilder B("NewOrderTx.<init>", Type::Void);
    B.addArg(Type::Ref);
    B.retVoid();
    P.setBody(NoCtor, B.finalize());
  }
  MethodId NoProcess =
      P.defineMethod(NewOrd, "process", Type::Void, {Type::Ref, Type::Ref});
  {
    FunctionBuilder B("NewOrderTx.process", Type::Void);
    B.addArg(Type::Ref); // this
    Reg W = B.addArg(Type::Ref);
    Reg T = B.addArg(Type::Ref); // terminal
    Reg Custs = B.getField(W, WhCusts, Type::Ref);
    Reg NCust = B.alen(Custs);
    Reg RC = B.callStatic(NextRand, {}, Type::I64);
    Reg C = B.aload(Type::Ref, Custs, B.rem(RC, NCust));
    Reg Dists = B.getField(W, WhDists, Type::Ref);
    Reg NDist = B.alen(Dists);
    Reg RD = B.callStatic(NextRand, {}, Type::I64);
    Reg D = B.aload(Type::Ref, Dists, B.rem(RD, NDist));
    Reg OId = B.callVirtual(NextOrder, {D}, Type::I64);
    // Order size: 4 + rand%4 lines (2005: 6 + rand%6).
    Reg RL = B.callStatic(NextRand, {}, Type::I64);
    Reg BaseN = B.constI(Is2005 ? 6 : 4);
    Reg ModN = B.constI(Is2005 ? 6 : 4);
    Reg NLines = B.add(BaseN, B.rem(RL, ModN));
    Reg O = B.newObject(Order);
    B.callSpecial(OrdCtor, {O, OId, C, NLines}, Type::Void);
    Reg Lines = B.getField(O, OrdLines, Type::Ref);
    Reg Items = B.getField(W, WhItems, Type::Ref);
    Reg Stock = B.getField(W, WhStock, Type::Ref);
    Reg NItems = B.alen(Items);
    Reg L = B.newReg(Type::I64);
    Reg Zero = B.constI(0);
    Reg One = B.constI(1);
    B.move(L, Zero);
    auto LHead = B.makeLabel();
    auto LDone = B.makeLabel();
    auto LNoRestock = B.makeLabel();
    B.bind(LHead);
    B.cbz(B.cmp(Opcode::CmpLT, L, NLines), LDone);
    Reg RI = B.callStatic(NextRand, {}, Type::I64);
    Reg ItIdx = B.rem(RI, NItems);
    Reg It = B.aload(Type::Ref, Items, ItIdx);
    Reg Pr = B.getField(It, Price, Type::F64);
    Reg RQ = B.callStatic(NextRand, {}, Type::I64);
    Reg C5 = B.constI(5);
    Reg Qty = B.add(One, B.rem(RQ, C5));
    Reg Amt = B.fmul(Pr, B.i2f(Qty));
    Reg Ol = B.newObject(OrderLine);
    B.callSpecial(OlCtor, {Ol, ItIdx, Qty, Amt}, Type::Void);
    B.astore(Type::Ref, Lines, L, Ol);
    // stock[item] -= qty; restock when low.
    Reg Sq = B.aload(Type::I64, Stock, ItIdx);
    Reg Sq2 = B.sub(Sq, Qty);
    Reg C10 = B.constI(10);
    B.cbz(B.cmp(Opcode::CmpLT, Sq2, C10), LNoRestock);
    Reg C100 = B.constI(100);
    B.move(Sq2, B.add(Sq2, C100));
    B.bind(LNoRestock);
    B.astore(Type::I64, Stock, ItIdx, Sq2);
    B.move(L, B.add(L, One));
    B.br(LHead);
    B.bind(LDone);
    B.putStatic(MLastOrder, O);
    B.callVirtual(LogLine, {T, OId}, Type::Void);
    B.callStatic(Log, {OId}, Type::Void);
    B.retVoid();
    P.setBody(NoProcess, B.finalize());
  }

  // class PaymentTx: private DisplayScreen (OLC) + balance update.
  ClassId PayTx = P.defineClass("PaymentTx");
  FieldId PayScreen =
      P.defineField(PayTx, "paymentScreen", Type::Ref, false, Access::Private);
  FieldId PayHist =
      P.defineField(PayTx, "history", Type::Ref, false, Access::Private);
  FieldId PayPos =
      P.defineField(PayTx, "histPos", Type::I64, false, Access::Private);
  MethodId PayCtor =
      P.defineMethod(PayTx, "<init>", Type::Void, {}, {.IsCtor = true});
  {
    FunctionBuilder B("PaymentTx.<init>", Type::Void);
    Reg This = B.addArg(Type::Ref);
    Reg S = B.newObject(Screen);
    B.callSpecial(ScrCtor, {S}, Type::Void);
    B.putField(This, PayScreen, S);
    Reg C64 = B.constI(64);
    B.putField(This, PayHist, B.newArray(Type::F64, C64));
    Reg Zero = B.constI(0);
    B.putField(This, PayPos, Zero);
    B.retVoid();
    P.setBody(PayCtor, B.finalize());
  }
  MethodId PayProcess =
      P.defineMethod(PayTx, "process", Type::Void, {Type::Ref, Type::Ref});
  {
    FunctionBuilder B("PaymentTx.process", Type::Void);
    Reg This = B.addArg(Type::Ref);
    Reg W = B.addArg(Type::Ref);
    Reg T = B.addArg(Type::Ref);
    Reg Custs = B.getField(W, WhCusts, Type::Ref);
    Reg NCust = B.alen(Custs);
    Reg RC = B.callStatic(NextRand, {}, Type::I64);
    Reg C = B.aload(Type::Ref, Custs, B.rem(RC, NCust));
    Reg RA = B.callStatic(NextRand, {}, Type::I64);
    Reg C500 = B.constI(500);
    Reg Amt = B.fmul(B.i2f(B.rem(RA, C500)), B.constF(0.01));
    B.callVirtual(Pay, {C, Amt}, Type::Void);
    // District bookkeeping: the paying customer's district order counter
    // advances (payment touches the district row, as in TPC-C).
    Reg Dists2 = B.getField(W, WhDists, Type::Ref);
    Reg NDist2 = B.alen(Dists2);
    Reg RD2 = B.callStatic(NextRand, {}, Type::I64);
    Reg D2 = B.aload(Type::Ref, Dists2, B.rem(RD2, NDist2));
    B.callVirtual(NextOrder, {D2}, Type::I64);
    // Payment history: running mean over a 64-entry ring buffer.
    Reg Hist = B.getField(This, PayHist, Type::Ref);
    Reg Pos = B.getField(This, PayPos, Type::I64);
    Reg Mask = B.constI(63);
    Reg Slot = B.andI(Pos, Mask);
    Reg Prev = B.aload(Type::F64, Hist, Slot);
    Reg Half = B.constF(0.5);
    B.astore(Type::F64, Hist, Slot,
             B.fadd(B.fmul(Prev, Half), B.fmul(Amt, Half)));
    Reg One2 = B.constI(1);
    B.putField(This, PayPos, B.add(Pos, One2));
    // Receipt line number cycles through the screen body rows.
    Reg C20 = B.constI(20);
    Reg RowSel = B.add(B.rem(Pos, C20), One2);
    Reg S = B.getField(This, PayScreen, Type::Ref);
    B.callVirtual(PutText, {S, RowSel, RA}, Type::Void);
    B.callVirtual(LogLine, {T, RA}, Type::Void);
    B.retVoid();
    P.setBody(PayProcess, B.finalize());
  }

  // class OrderStatusTx: read-only scan of the last order.
  ClassId OsTx = P.defineClass("OrderStatusTx");
  MethodId OsCtor =
      P.defineMethod(OsTx, "<init>", Type::Void, {}, {.IsCtor = true});
  {
    FunctionBuilder B("OrderStatusTx.<init>", Type::Void);
    B.addArg(Type::Ref);
    B.retVoid();
    P.setBody(OsCtor, B.finalize());
  }
  MethodId OsProcess =
      P.defineMethod(OsTx, "process", Type::Void, {Type::Ref, Type::Ref});
  {
    FunctionBuilder B("OrderStatusTx.process", Type::Void);
    B.addArg(Type::Ref);
    B.addArg(Type::Ref); // warehouse unused
    Reg T = B.addArg(Type::Ref);
    Reg O = B.getStatic(MLastOrder, Type::Ref);
    auto LNone = B.makeLabel();
    Reg HasOrder = B.instanceOf(O, Order);
    B.cbz(HasOrder, LNone);
    Reg Lines = B.getField(O, OrdLines, Type::Ref);
    Reg N = B.getField(O, OrdN, Type::I64);
    Reg I = B.newReg(Type::I64);
    Reg Sum = B.newReg(Type::F64);
    Reg Zero = B.constI(0);
    Reg One = B.constI(1);
    Reg FZ = B.constF(0.0);
    B.move(I, Zero);
    B.move(Sum, FZ);
    auto LH = B.makeLabel();
    auto LE = B.makeLabel();
    B.bind(LH);
    B.cbz(B.cmp(Opcode::CmpLT, I, N), LE);
    Reg Ol = B.aload(Type::Ref, Lines, I);
    B.move(Sum, B.fadd(Sum, B.getField(Ol, OlAmt, Type::F64)));
    B.move(I, B.add(I, One));
    B.br(LH);
    B.bind(LE);
    Reg SumI = B.f2i(Sum);
    B.callVirtual(LogLine, {T, SumI}, Type::Void);
    B.bind(LNone);
    B.retVoid();
    P.setBody(OsProcess, B.finalize());
  }

  // class DeliveryTx: the paper's DeliveryTransaction with its private
  // deliveryScreen (Figure 7).
  ClassId DelTx = P.defineClass("DeliveryTx");
  FieldId DelScreen = P.defineField(DelTx, "deliveryScreen", Type::Ref, false,
                                    Access::Private);
  FieldId DelCount =
      P.defineField(DelTx, "delivered", Type::I64, false, Access::Private);
  MethodId DelCtor =
      P.defineMethod(DelTx, "<init>", Type::Void, {}, {.IsCtor = true});
  {
    FunctionBuilder B("DeliveryTx.<init>", Type::Void);
    Reg This = B.addArg(Type::Ref);
    Reg S = B.newObject(Screen);
    B.callSpecial(ScrCtor, {S}, Type::Void);
    B.putField(This, DelScreen, S);
    B.retVoid();
    P.setBody(DelCtor, B.finalize());
  }
  MethodId DelProcess =
      P.defineMethod(DelTx, "process", Type::Void, {Type::Ref, Type::Ref});
  {
    FunctionBuilder B("DeliveryTx.process", Type::Void);
    Reg This = B.addArg(Type::Ref);
    B.addArg(Type::Ref); // warehouse (delivery note is screen-bound)
    Reg T = B.addArg(Type::Ref);
    Reg S = B.getField(This, DelScreen, Type::Ref);
    B.callVirtual(Clear, {S}, Type::Void);
    Reg R = B.callStatic(NextRand, {}, Type::I64);
    Reg Row = B.newReg(Type::I64);
    Reg Zero = B.constI(0);
    Reg One = B.constI(1);
    Reg Six = B.constI(6);
    B.move(Row, Zero);
    auto LH = B.makeLabel();
    auto LE = B.makeLabel();
    B.bind(LH);
    B.cbz(B.cmp(Opcode::CmpLT, Row, Six), LE);
    B.callVirtual(PutText, {S, Row, B.add(R, Row)}, Type::Void);
    B.move(Row, B.add(Row, One));
    B.br(LH);
    B.bind(LE);
    // Sum the last order's line amounts onto the delivery note.
    Reg O2 = B.getStatic(MLastOrder, Type::Ref);
    Reg Amt = B.newReg(Type::F64);
    Reg FZ2 = B.constF(0.0);
    B.move(Amt, FZ2);
    auto LNoOrd = B.makeLabel();
    Reg HasOrd = B.instanceOf(O2, Order);
    B.cbz(HasOrd, LNoOrd);
    {
      Reg Lines2 = B.getField(O2, OrdLines, Type::Ref);
      Reg NL2 = B.getField(O2, OrdN, Type::I64);
      Reg J2 = B.newReg(Type::I64);
      B.move(J2, Zero);
      auto LJH = B.makeLabel();
      auto LJE = B.makeLabel();
      B.bind(LJH);
      B.cbz(B.cmp(Opcode::CmpLT, J2, NL2), LJE);
      Reg Ol2 = B.aload(Type::Ref, Lines2, J2);
      B.move(Amt, B.fadd(Amt, B.getField(Ol2, OlAmt, Type::F64)));
      B.move(J2, B.add(J2, One));
      B.br(LJH);
      B.bind(LJE);
    }
    B.bind(LNoOrd);
    Reg AmtI = B.f2i(Amt);
    B.callVirtual(LogLine, {T, AmtI}, Type::Void);
    // Delivered-order accounting and the delivery note footer.
    Reg Cnt = B.getField(This, DelCount, Type::I64);
    Reg Cnt2 = B.add(Cnt, One);
    B.putField(This, DelCount, Cnt2);
    Reg Footer = B.constI(23);
    B.callVirtual(PutText, {S, Footer, B.add(R, Cnt2)}, Type::Void);
    B.callVirtual(LogLine, {T, R}, Type::Void);
    B.retVoid();
    P.setBody(DelProcess, B.finalize());
  }

  // class StockLevelTx: scan the stock table.
  ClassId SlTx = P.defineClass("StockLevelTx");
  MethodId SlCtor =
      P.defineMethod(SlTx, "<init>", Type::Void, {}, {.IsCtor = true});
  {
    FunctionBuilder B("StockLevelTx.<init>", Type::Void);
    B.addArg(Type::Ref);
    B.retVoid();
    P.setBody(SlCtor, B.finalize());
  }
  MethodId SlProcess =
      P.defineMethod(SlTx, "process", Type::Void, {Type::Ref, Type::Ref});
  {
    FunctionBuilder B("StockLevelTx.process", Type::Void);
    B.addArg(Type::Ref);
    Reg W = B.addArg(Type::Ref);
    Reg T = B.addArg(Type::Ref);
    Reg Stock = B.getField(W, WhStock, Type::Ref);
    Reg N = B.alen(Stock);
    Reg I = B.newReg(Type::I64);
    Reg Low = B.newReg(Type::I64);
    Reg Zero = B.constI(0);
    Reg One = B.constI(1);
    Reg C50 = B.constI(50);
    B.move(I, Zero);
    B.move(Low, Zero);
    auto LH = B.makeLabel();
    auto LE = B.makeLabel();
    auto LSkip = B.makeLabel();
    B.bind(LH);
    B.cbz(B.cmp(Opcode::CmpLT, I, N), LE);
    Reg Q = B.aload(Type::I64, Stock, I);
    B.cbz(B.cmp(Opcode::CmpLT, Q, C50), LSkip);
    B.move(Low, B.add(Low, One));
    B.bind(LSkip);
    B.move(I, B.add(I, One));
    B.br(LH);
    B.bind(LE);
    B.callVirtual(LogLine, {T, Low}, Type::Void);
    B.retVoid();
    P.setBody(SlProcess, B.finalize());
  }

  // class CustomerReportTx (2005 only in the mix; defined in both variants
  // so the class inventory difference comes from the mix, like the ported
  // benchmark): heavyweight, allocation-intensive, no mutable-state use.
  ClassId CrTx = P.defineClass("CustomerReportTx");
  MethodId CrCtor =
      P.defineMethod(CrTx, "<init>", Type::Void, {}, {.IsCtor = true});
  {
    FunctionBuilder B("CustomerReportTx.<init>", Type::Void);
    B.addArg(Type::Ref);
    B.retVoid();
    P.setBody(CrCtor, B.finalize());
  }
  MethodId CrProcess =
      P.defineMethod(CrTx, "process", Type::Void, {Type::Ref, Type::Ref});
  {
    FunctionBuilder B("CustomerReportTx.process", Type::Void);
    B.addArg(Type::Ref);
    Reg W = B.addArg(Type::Ref);
    Reg T = B.addArg(Type::Ref);
    Reg Custs = B.getField(W, WhCusts, Type::Ref);
    Reg N = B.alen(Custs);
    // Report buffer: one slot per customer plus history padding.
    Reg Pad = B.constI(4608);
    Reg Rep = B.newArray(Type::F64, B.add(N, Pad));
    Reg I = B.newReg(Type::I64);
    Reg Zero = B.constI(0);
    Reg One = B.constI(1);
    B.move(I, Zero);
    auto LH = B.makeLabel();
    auto LE = B.makeLabel();
    B.bind(LH);
    B.cbz(B.cmp(Opcode::CmpLT, I, N), LE);
    Reg C = B.aload(Type::Ref, Custs, I);
    Reg Bal = B.getField(C, Balance, Type::F64);
    // Weighted running aggregate with history smoothing.
    Reg Prev = B.aload(Type::F64, Rep, I);
    Reg W1 = B.constF(0.875);
    Reg W2 = B.constF(0.125);
    B.astore(Type::F64, Rep, I,
             B.fadd(B.fmul(Prev, W1), B.fmul(Bal, W2)));
    B.move(I, B.add(I, One));
    B.br(LH);
    B.bind(LE);
    // Report summary: full pass over the report buffer (history included).
    Reg Total = B.alen(Rep);
    Reg J = B.newReg(Type::I64);
    Reg Agg = B.newReg(Type::F64);
    Reg FZ = B.constF(0.0);
    B.move(J, Zero);
    B.move(Agg, FZ);
    auto LS = B.makeLabel();
    auto LSE = B.makeLabel();
    B.bind(LS);
    B.cbz(B.cmp(Opcode::CmpLT, J, Total), LSE);
    B.move(Agg, B.fadd(Agg, B.aload(Type::F64, Rep, J)));
    B.move(J, B.add(J, One));
    B.br(LS);
    B.bind(LSE);
    Reg NI = B.f2i(Agg);
    B.callVirtual(LogLine, {T, NI}, Type::Void);
    B.retVoid();
    P.setBody(CrProcess, B.finalize());
  }

  // --- TxManager: setup and dispatch loop -----------------------------------
  FieldId MNo = P.defineField(Mgr, "txNewOrder", Type::Ref, true);
  FieldId MPay = P.defineField(Mgr, "txPayment", Type::Ref, true);
  FieldId MOs = P.defineField(Mgr, "txOrderStatus", Type::Ref, true);
  FieldId MDel = P.defineField(Mgr, "txDelivery", Type::Ref, true);
  FieldId MSl = P.defineField(Mgr, "txStockLevel", Type::Ref, true);
  FieldId MCr = P.defineField(Mgr, "txCustReport", Type::Ref, true);

  MethodId MInit = P.defineMethod(Mgr, "init", Type::Void,
                                  {Type::I64, Type::I64, Type::I64, Type::I64},
                                  {.IsStatic = true});
  {
    FunctionBuilder B("TxManager.init", Type::Void);
    Reg VariantArg = B.addArg(Type::I64);
    Reg NItems = B.addArg(Type::I64);
    Reg NDists = B.addArg(Type::I64);
    Reg NCusts = B.addArg(Type::I64);
    B.putStatic(MVariant, VariantArg);
    Reg Zero = B.constI(0);
    Reg One = B.constI(1);
    B.callStatic(LogSet, {Zero}, Type::Void);
    Reg W = B.newObject(Wh);
    B.callSpecial(WhCtor, {W, One, NItems, NDists, NCusts}, Type::Void);
    B.putStatic(MWh, W);
    // Populate items + stock.
    Reg Items = B.getField(W, WhItems, Type::Ref);
    Reg Stock = B.getField(W, WhStock, Type::Ref);
    Reg I = B.newReg(Type::I64);
    B.move(I, Zero);
    auto LI = B.makeLabel();
    auto LID = B.makeLabel();
    B.bind(LI);
    B.cbz(B.cmp(Opcode::CmpLT, I, NItems), LID);
    Reg R = B.callStatic(NextRand, {}, Type::I64);
    Reg C900 = B.constI(900);
    Reg Pr = B.fadd(B.fmul(B.i2f(B.rem(R, C900)), B.constF(0.01)),
                    B.constF(1.0));
    Reg It = B.newObject(Item);
    B.callSpecial(ItemCtor, {It, I, Pr}, Type::Void);
    B.astore(Type::Ref, Items, I, It);
    Reg C200 = B.constI(200);
    B.astore(Type::I64, Stock, I, C200);
    B.move(I, B.add(I, One));
    B.br(LI);
    B.bind(LID);
    // Districts.
    Reg Dists = B.getField(W, WhDists, Type::Ref);
    Reg J = B.newReg(Type::I64);
    B.move(J, Zero);
    auto LJ = B.makeLabel();
    auto LJD = B.makeLabel();
    B.bind(LJ);
    B.cbz(B.cmp(Opcode::CmpLT, J, NDists), LJD);
    Reg D = B.newObject(District);
    B.callSpecial(DistCtor, {D, J}, Type::Void);
    B.astore(Type::Ref, Dists, J, D);
    B.move(J, B.add(J, One));
    B.br(LJ);
    B.bind(LJD);
    // Customers.
    Reg Custs = B.getField(W, WhCusts, Type::Ref);
    Reg K = B.newReg(Type::I64);
    B.move(K, Zero);
    auto LK = B.makeLabel();
    auto LKD = B.makeLabel();
    B.bind(LK);
    B.cbz(B.cmp(Opcode::CmpLT, K, NCusts), LKD);
    Reg C = B.newObject(Cust);
    B.callSpecial(CustCtor, {C, K}, Type::Void);
    B.astore(Type::Ref, Custs, K, C);
    B.move(K, B.add(K, One));
    B.br(LK);
    B.bind(LKD);
    // Terminals: ten, modes skewed 7 terse / 2 normal / 1 verbose.
    Reg C10 = B.constI(10);
    Reg Terms = B.newArray(Type::Ref, C10);
    B.putStatic(MTerms, Terms);
    Reg M = B.newReg(Type::I64);
    B.move(M, Zero);
    auto LM = B.makeLabel();
    auto LMD = B.makeLabel();
    auto LMode1 = B.makeLabel();
    auto LMode2 = B.makeLabel();
    auto LMake = B.makeLabel();
    B.bind(LM);
    B.cbz(B.cmp(Opcode::CmpLT, M, C10), LMD);
    Reg ModeV = B.newReg(Type::I64);
    Reg C7 = B.constI(7);
    B.cbz(B.cmp(Opcode::CmpLT, M, C7), LMode1);
    B.move(ModeV, Zero);
    B.br(LMake);
    B.bind(LMode1);
    Reg C9 = B.constI(9);
    B.cbz(B.cmp(Opcode::CmpLT, M, C9), LMode2);
    B.move(ModeV, One);
    B.br(LMake);
    B.bind(LMode2);
    Reg Two = B.constI(2);
    B.move(ModeV, Two);
    B.br(LMake);
    B.bind(LMake);
    Reg T = B.newObject(Term);
    B.callSpecial(TermCtor, {T, ModeV}, Type::Void);
    B.astore(Type::Ref, Terms, M, T);
    B.move(M, B.add(M, One));
    B.br(LM);
    B.bind(LMD);
    // Transaction objects.
    Reg No = B.newObject(NewOrd);
    B.callSpecial(NoCtor, {No}, Type::Void);
    B.putStatic(MNo, No);
    Reg Pa = B.newObject(PayTx);
    B.callSpecial(PayCtor, {Pa}, Type::Void);
    B.putStatic(MPay, Pa);
    Reg Os = B.newObject(OsTx);
    B.callSpecial(OsCtor, {Os}, Type::Void);
    B.putStatic(MOs, Os);
    Reg De = B.newObject(DelTx);
    B.callSpecial(DelCtor, {De}, Type::Void);
    B.putStatic(MDel, De);
    Reg Sl = B.newObject(SlTx);
    B.callSpecial(SlCtor, {Sl}, Type::Void);
    B.putStatic(MSl, Sl);
    Reg Cr = B.newObject(CrTx);
    B.callSpecial(CrCtor, {Cr}, Type::Void);
    B.putStatic(MCr, Cr);
    B.retVoid();
    P.setBody(MInit, B.finalize());
  }

  // runOne(): pick a transaction per the variant's mix and run it.
  MethodId RunOne = P.defineMethod(Mgr, "runOne", Type::Void, {},
                                   {.IsStatic = true});
  {
    FunctionBuilder B("TxManager.runOne", Type::Void);
    Reg W = B.getStatic(MWh, Type::Ref);
    Reg Terms = B.getStatic(MTerms, Type::Ref);
    Reg RT = B.callStatic(NextRand, {}, Type::I64);
    Reg C10 = B.constI(10);
    Reg T = B.aload(Type::Ref, Terms, B.rem(RT, C10));
    Reg R = B.callStatic(NextRand, {}, Type::I64);
    Reg C100 = B.constI(100);
    Reg Pick = B.rem(R, C100);
    Reg Var = B.getStatic(MVariant, Type::I64);
    auto LPay = B.makeLabel();
    auto LOs = B.makeLabel();
    auto LDel = B.makeLabel();
    auto LSl = B.makeLabel();
    auto LCr = B.makeLabel();
    auto LDone = B.makeLabel();
    // Thresholds: 2000 mix 45/43/4/4/4; 2005 mix 40/35/4/4/4/13.
    Reg NoCut = B.newReg(Type::I64);
    Reg PayCut = B.newReg(Type::I64);
    auto L2005 = B.makeLabel();
    auto LCuts = B.makeLabel();
    B.cbnz(Var, L2005);
    Reg C45 = B.constI(45);
    B.move(NoCut, C45);
    Reg C88 = B.constI(88);
    B.move(PayCut, C88);
    B.br(LCuts);
    B.bind(L2005);
    Reg C40 = B.constI(40);
    B.move(NoCut, C40);
    Reg C75 = B.constI(75);
    B.move(PayCut, C75);
    B.br(LCuts);
    B.bind(LCuts);
    B.cbz(B.cmp(Opcode::CmpLT, Pick, NoCut), LPay);
    {
      Reg Tx = B.getStatic(MNo, Type::Ref);
      B.callVirtual(NoProcess, {Tx, W, T}, Type::Void);
      B.br(LDone);
    }
    B.bind(LPay);
    B.cbz(B.cmp(Opcode::CmpLT, Pick, PayCut), LOs);
    {
      Reg Tx = B.getStatic(MPay, Type::Ref);
      B.callVirtual(PayProcess, {Tx, W, T}, Type::Void);
      B.br(LDone);
    }
    B.bind(LOs);
    Reg OsCut = B.add(PayCut, B.constI(4));
    B.cbz(B.cmp(Opcode::CmpLT, Pick, OsCut), LDel);
    {
      Reg Tx = B.getStatic(MOs, Type::Ref);
      B.callVirtual(OsProcess, {Tx, W, T}, Type::Void);
      B.br(LDone);
    }
    B.bind(LDel);
    Reg DelCut = B.add(OsCut, B.constI(4));
    B.cbz(B.cmp(Opcode::CmpLT, Pick, DelCut), LSl);
    {
      Reg Tx = B.getStatic(MDel, Type::Ref);
      B.callVirtual(DelProcess, {Tx, W, T}, Type::Void);
      B.br(LDone);
    }
    B.bind(LSl);
    Reg SlCut = B.add(DelCut, B.constI(4));
    // 2000: StockLevel takes the rest; 2005: the rest goes to CustomerReport
    // beyond the StockLevel share.
    B.cbz(B.cmp(Opcode::CmpLT, Pick, SlCut), LCr);
    {
      Reg Tx = B.getStatic(MSl, Type::Ref);
      B.callVirtual(SlProcess, {Tx, W, T}, Type::Void);
      B.br(LDone);
    }
    B.bind(LCr);
    {
      auto LSl2 = B.makeLabel();
      B.cbnz(Var, LSl2);
      // 2000: no CustomerReport; everything else is StockLevel.
      Reg Tx0 = B.getStatic(MSl, Type::Ref);
      B.callVirtual(SlProcess, {Tx0, W, T}, Type::Void);
      B.br(LDone);
      B.bind(LSl2);
      Reg Tx = B.getStatic(MCr, Type::Ref);
      B.callVirtual(CrProcess, {Tx, W, T}, Type::Void);
      B.br(LDone);
    }
    B.bind(LDone);
    Reg Done = B.getStatic(MTxDone, Type::I64);
    Reg One = B.constI(1);
    B.putStatic(MTxDone, B.add(Done, One));
    B.retVoid();
    P.setBody(RunOne, B.finalize());
  }

  // runBatch(n): n transactions back to back.
  MethodId RunBatch = P.defineMethod(Mgr, "runBatch", Type::Void, {Type::I64},
                                     {.IsStatic = true});
  {
    FunctionBuilder B("TxManager.runBatch", Type::Void);
    Reg N = B.addArg(Type::I64);
    Reg I = B.newReg(Type::I64);
    Reg Zero = B.constI(0);
    Reg One = B.constI(1);
    B.move(I, Zero);
    auto LH = B.makeLabel();
    auto LE = B.makeLabel();
    B.bind(LH);
    B.cbz(B.cmp(Opcode::CmpLT, I, N), LE);
    B.callStatic(RunOne, {}, Type::Void);
    B.move(I, B.add(I, One));
    B.br(LH);
    B.bind(LE);
    B.retVoid();
    P.setBody(RunBatch, B.finalize());
  }

  // checkSum(): fold customer balances and counters into one printed value.
  MethodId CheckSum = P.defineMethod(Mgr, "checkSum", Type::Void, {},
                                     {.IsStatic = true});
  {
    FunctionBuilder B("TxManager.checkSum", Type::Void);
    Reg W = B.getStatic(MWh, Type::Ref);
    Reg Custs = B.getField(W, WhCusts, Type::Ref);
    Reg N = B.alen(Custs);
    Reg I = B.newReg(Type::I64);
    Reg Sum = B.newReg(Type::F64);
    Reg Zero = B.constI(0);
    Reg One = B.constI(1);
    Reg FZ = B.constF(0.0);
    B.move(I, Zero);
    B.move(Sum, FZ);
    auto LH = B.makeLabel();
    auto LE = B.makeLabel();
    B.bind(LH);
    B.cbz(B.cmp(Opcode::CmpLT, I, N), LE);
    Reg C = B.aload(Type::Ref, Custs, I);
    B.move(Sum, B.fadd(Sum, B.getField(C, Balance, Type::F64)));
    B.move(I, B.add(I, One));
    B.br(LH);
    B.bind(LE);
    B.printNum(Sum, Type::F64);
    Reg Done = B.getStatic(MTxDone, Type::I64);
    B.printNum(Done, Type::I64);
    Reg Lc = B.getStatic(LogCount, Type::I64);
    B.printNum(Lc, Type::I64);
    Reg Chk = B.getStatic(MCheck, Type::I64);
    B.printNum(Chk, Type::I64);
    B.retVoid();
    P.setBody(CheckSum, B.finalize());
  }
}

void JbbImpl::initVm(VirtualMachine &VM) {
  ProgramIds Ids(VM.program());
  VM.program().setStaticSlot(
      VM.program().field(Ids.field("TxManager", "seed")).Slot,
      valueI(0x5EC5EC5EC5ll));
  int64_t Var = Variant == JbbVariant::Jbb2005 ? 1 : 0;
  VM.call(Ids.method("TxManager", "init"),
          {valueI(Var), valueI(200), valueI(10), valueI(300)});
}

uint64_t JbbImpl::runTransactions(VirtualMachine &VM, uint64_t Count) {
  ProgramIds Ids(VM.program());
  MethodId RunBatch = Ids.method("TxManager", "runBatch");
  constexpr uint64_t Batch = 50;
  uint64_t Done = 0;
  while (Done < Count) {
    uint64_t N = std::min(Batch, Count - Done);
    VM.call(RunBatch, {valueI(static_cast<int64_t>(N))});
    Done += N;
  }
  return Done;
}

std::vector<JbbWindow> JbbImpl::runWarehouseWindows(VirtualMachine &VM,
                                                    int NumWindows,
                                                    uint64_t WindowCycles,
                                                    uint64_t WarmupCycles) {
  ProgramIds Ids(VM.program());
  MethodId RunBatch = Ids.method("TxManager", "runBatch");
  std::vector<JbbWindow> Out;
  // Warm-up (the paper's 30 s ramp before measurement).
  uint64_t WarmEnd = VM.totalCycles() + WarmupCycles;
  while (VM.totalCycles() < WarmEnd)
    VM.call(RunBatch, {valueI(20)});
  for (int Wd = 0; Wd < NumWindows; ++Wd) {
    JbbWindow Win;
    uint64_t Start = VM.totalCycles();
    uint64_t End = Start + WindowCycles;
    uint64_t Tx = 0;
    while (VM.totalCycles() < End) {
      VM.call(RunBatch, {valueI(20)});
      Tx += 20;
    }
    Win.Transactions = Tx;
    Win.Cycles = VM.totalCycles() - Start;
    Win.Throughput = static_cast<double>(Tx) /
                     (static_cast<double>(Win.Cycles) /
                      static_cast<double>(CyclesPerSecond));
    Out.push_back(Win);
  }
  return Out;
}

void JbbImpl::driveScaled(VirtualMachine &VM, double Scale) {
  initVm(VM);
  uint64_t Tx = static_cast<uint64_t>(16000 * Scale);
  if (Tx < 800)
    Tx = 800;
  runTransactions(VM, Tx);
  ProgramIds Ids(VM.program());
  VM.call(Ids.method("TxManager", "checkSum"), {});
}

} // namespace

std::unique_ptr<JbbWorkload> makeJbb(JbbVariant V) {
  return std::make_unique<JbbImpl>(V);
}

} // namespace dchm
