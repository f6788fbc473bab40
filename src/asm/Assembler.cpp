//===-- asm/Assembler.cpp - MiniVM textual assembler ---------------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"

#include "ir/Builder.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace dchm {

namespace {

// --- Lexer -------------------------------------------------------------

// ASCII classes; <cctype>'s go through the locale.
bool isDigit(char C) { return C >= '0' && C <= '9'; }
bool isAlpha(char C) { return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z'); }
bool isWordChar(char C) { return isAlpha(C) || isDigit(C) || C == '_'; }

enum class Tok : uint8_t {
  Ident,   // class, field, foo, i64, ...
  Reg,     // %name
  Label,   // @name
  Int,     // 123, -4
  Float,   // 1.5, -0.25
  LBrace,
  RBrace,
  LParen,
  RParen,
  Comma,
  Colon,
  Dot,
  Arrow, // ->
  Eq,    // =
  End,
};

struct Token {
  Tok K = Tok::End;
  int Line = 0;
  std::string_view Text; // identifier / reg / label spelling, in the source
  union {
    int64_t IntVal = 0;
    double FloatVal;
  };
};

class Lexer {
public:
  explicit Lexer(std::string_view Src) : Src(Src) { advance(); }

  const Token &cur() const { return Cur; }
  Token take() {
    Token T = Cur;
    advance();
    return T;
  }

private:
  void advance() {
    skipSpace();
    Cur = Token{};
    Cur.Line = Line;
    if (Pos >= Src.size()) {
      Cur.K = Tok::End;
      return;
    }
    char C = Src[Pos];
    auto Single = [&](Tok K) {
      Cur.K = K;
      ++Pos;
    };
    switch (C) {
    case '{':
      return Single(Tok::LBrace);
    case '}':
      return Single(Tok::RBrace);
    case '(':
      return Single(Tok::LParen);
    case ')':
      return Single(Tok::RParen);
    case ',':
      return Single(Tok::Comma);
    case ':':
      return Single(Tok::Colon);
    case '.':
      return Single(Tok::Dot);
    case '=':
      return Single(Tok::Eq);
    default:
      break;
    }
    if (C == '-' && Pos + 1 < Src.size() && Src[Pos + 1] == '>') {
      Cur.K = Tok::Arrow;
      Pos += 2;
      return;
    }
    if (C == '%' || C == '@') {
      size_t Start = ++Pos;
      while (Pos < Src.size() && isWordChar(Src[Pos]))
        ++Pos;
      Cur.K = C == '%' ? Tok::Reg : Tok::Label;
      Cur.Text = Src.substr(Start, Pos - Start);
      return;
    }
    if (isDigit(C) || (C == '-' && Pos + 1 < Src.size() && isDigit(Src[Pos + 1]))) {
      size_t Start = Pos;
      if (C == '-')
        ++Pos;
      bool IsFloat = false;
      while (Pos < Src.size() &&
             (isDigit(Src[Pos]) || Src[Pos] == '.' || Src[Pos] == 'e' ||
              Src[Pos] == 'E' ||
              ((Src[Pos] == '+' || Src[Pos] == '-') &&
               (Src[Pos - 1] == 'e' || Src[Pos - 1] == 'E')))) {
        if (Src[Pos] == '.' || Src[Pos] == 'e' || Src[Pos] == 'E')
          IsFloat = true;
        ++Pos;
      }
      const char *B = Src.data() + Start, *E = Src.data() + Pos;
      std::from_chars_result Res;
      if (IsFloat) {
        Cur.K = Tok::Float;
        Res = std::from_chars(B, E, Cur.FloatVal);
      } else {
        Cur.K = Tok::Int;
        Res = std::from_chars(B, E, Cur.IntVal);
      }
      if (Res.ec != std::errc() || Res.ptr != E) {
        // Out of range or malformed: an identifier token, so the parser's
        // "expected a number" names it.
        Cur.K = Tok::Ident;
        Cur.Text = Src.substr(Start, Pos - Start);
      }
      return;
    }
    if (isAlpha(C) || C == '_' || C == '<') {
      size_t Start = Pos;
      // Allow <init>-style names.
      while (Pos < Src.size() &&
             (isWordChar(Src[Pos]) || Src[Pos] == '<' || Src[Pos] == '>'))
        ++Pos;
      Cur.K = Tok::Ident;
      Cur.Text = Src.substr(Start, Pos - Start);
      return;
    }
    // Unknown character: surface it as an identifier token so the parser's
    // error message names it.
    Cur.K = Tok::Ident;
    Cur.Text = Src.substr(Pos, 1);
    ++Pos;
  }

  void skipSpace() {
    while (Pos < Src.size()) {
      char C = Src[Pos];
      if (C == '\n') {
        ++Line;
        ++Pos;
      } else if (C == ' ' || C == '\t' || C == '\r' || C == '\f' ||
                 C == '\v') {
        ++Pos;
      } else if (C == '#') {
        while (Pos < Src.size() && Src[Pos] != '\n')
          ++Pos;
      } else {
        break;
      }
    }
  }

  std::string_view Src;
  size_t Pos = 0;
  int Line = 1;
  Token Cur;
};

// --- Parser ---------------------------------------------------------------

/// A method body found in pass 1 and assembled in pass 2.
struct PendingBody {
  MethodId Method = NoMethodId;
  std::vector<std::pair<std::string_view, Type>> Params;
  size_t Begin = 0, End = 0; // its tokens, without the braces
};

class Parser {
public:
  explicit Parser(std::string_view Src) {
    Lexer L(Src);
    Toks.reserve(Src.size() / 4);
    do
      Toks.push_back(L.take());
    while (Toks.back().K != Tok::End);
  }

  AssemblyResult run() {
    P = std::make_unique<Program>();
    while (cur().K != Tok::End && Err.empty())
      parseTopLevel();
    if (Err.empty() && P->numClasses() == 0) {
      Token T;
      T.Line = 1;
      error(T, "empty program (no classes)");
    }
    if (Err.empty())
      for (PendingBody &B : Bodies)
        assembleBody(B);
    AssemblyResult R;
    if (!Err.empty()) {
      R.Error = Err;
      return R;
    }
    if (VMError E = P->tryLink()) {
      R.Error = "link error: " + E.message();
      return R;
    }
    R.P = std::move(P);
    return R;
  }

private:
  // --- Error handling -----------------------------------------------------
  void error(const Token &At, const std::string &Msg) {
    if (!Err.empty())
      return;
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf), "line %d: %s", At.Line, Msg.c_str());
    Err = Buf;
  }
  bool failed() const { return !Err.empty(); }

  static std::string str(std::string_view S) { return std::string(S); }

  const Token &cur() const { return Toks[At]; }
  Token take() {
    Token T = Toks[At];
    if (T.K != Tok::End)
      ++At;
    return T;
  }

  Token expect(Tok K, const char *What) {
    Token T = take();
    if (T.K != K && Err.empty())
      error(T, std::string("expected ") + What);
    return T;
  }
  bool accept(Tok K) {
    if (cur().K == K) {
      take();
      return true;
    }
    return false;
  }
  bool acceptIdent(const char *S) {
    if (cur().K == Tok::Ident && cur().Text == S) {
      take();
      return true;
    }
    return false;
  }

  std::optional<Type> typeOf(const Token &T, bool AllowVoid) {
    if (T.Text == "i64")
      return Type::I64;
    if (T.Text == "f64")
      return Type::F64;
    if (T.Text == "ref")
      return Type::Ref;
    if (AllowVoid && T.Text == "void")
      return Type::Void;
    error(T, "unknown type '" + str(T.Text) + "'");
    return std::nullopt;
  }

  std::optional<Type> parseType(bool AllowVoid) {
    Token T = expect(Tok::Ident, "a type (i64/f64/ref)");
    if (failed())
      return std::nullopt;
    return typeOf(T, AllowVoid);
  }

  // --- Pass 1: declarations -------------------------------------------------
  void parseTopLevel() {
    Token T = take();
    if (T.K != Tok::Ident) {
      error(T, "expected 'class' or 'interface'");
      return;
    }
    if (T.Text == "class")
      parseClass(false);
    else if (T.Text == "interface")
      parseClass(true);
    else
      error(T, "expected 'class' or 'interface', got '" + str(T.Text) + "'");
  }

  void parseClass(bool IsInterface) {
    Token Name = expect(Tok::Ident, "a class name");
    if (failed())
      return;
    ClassId Super = NoClassId;
    std::vector<Token> Ifaces;
    uint32_t Package = 0;
    while (cur().K == Tok::Ident && Err.empty()) {
      if (acceptIdent("extends")) {
        Token S = expect(Tok::Ident, "a superclass name");
        if (failed())
          return;
        Super = P->findClass(str(S.Text));
        if (Super == NoClassId)
          return error(S, "unknown superclass '" + str(S.Text) +
                              "' (classes must be declared before use)");
      } else if (acceptIdent("implements")) {
        do {
          Token I = expect(Tok::Ident, "an interface name");
          if (failed())
            return;
          Ifaces.push_back(I);
        } while (accept(Tok::Comma));
      } else if (acceptIdent("package")) {
        Token N = expect(Tok::Int, "a package number");
        if (failed())
          return;
        Package = static_cast<uint32_t>(N.IntVal);
      } else {
        break;
      }
    }
    std::string ClsName = str(Name.Text);
    if (P->findClass(ClsName) != NoClassId)
      return error(Name, "duplicate class '" + ClsName + "'");
    ClassId Cls = IsInterface ? P->defineInterface(ClsName, Package)
                              : P->defineClass(ClsName, Super, Package);
    for (const Token &I : Ifaces) {
      ClassId IC = P->findClass(str(I.Text));
      if (IC == NoClassId)
        return error(Name, "unknown interface '" + str(I.Text) + "'");
      P->addInterface(Cls, IC);
    }
    expect(Tok::LBrace, "'{'");
    while (!failed() && !accept(Tok::RBrace)) {
      Token M = take();
      if (M.K != Tok::Ident)
        return error(M, "expected 'field', 'method', or 'ctor'");
      if (M.Text == "field")
        parseField(Cls);
      else if (M.Text == "method")
        parseMethod(Cls, /*IsCtor=*/false, IsInterface);
      else if (M.Text == "ctor")
        parseMethod(Cls, /*IsCtor=*/true, IsInterface);
      else
        return error(M, "expected 'field', 'method', or 'ctor', got '" +
                            str(M.Text) + "'");
    }
  }

  void parseField(ClassId Cls) {
    Token Name = expect(Tok::Ident, "a field name");
    expect(Tok::Colon, "':'");
    auto Ty = parseType(/*AllowVoid=*/false);
    if (failed())
      return;
    bool IsStatic = false;
    Access Acc = Access::Public;
    while (cur().K == Tok::Ident && Err.empty()) {
      if (acceptIdent("static"))
        IsStatic = true;
      else if (acceptIdent("private"))
        Acc = Access::Private;
      else if (acceptIdent("package_private"))
        Acc = Access::Package;
      else if (acceptIdent("public"))
        Acc = Access::Public;
      else
        break;
    }
    P->defineField(Cls, str(Name.Text), *Ty, IsStatic, Acc);
  }

  void parseMethod(ClassId Cls, bool IsCtor, bool IsInterface) {
    Token Name = expect(Tok::Ident, "a method name");
    expect(Tok::LParen, "'('");
    PendingBody B;
    if (!accept(Tok::RParen)) {
      do {
        Token R = expect(Tok::Reg, "a parameter register (%name)");
        expect(Tok::Colon, "':'");
        auto Ty = parseType(false);
        if (failed())
          return;
        B.Params.emplace_back(R.Text, *Ty);
      } while (accept(Tok::Comma));
      expect(Tok::RParen, "')'");
    }
    Type RetTy = Type::Void;
    if (accept(Tok::Arrow)) {
      auto Ty = parseType(/*AllowVoid=*/true);
      if (failed())
        return;
      RetTy = *Ty;
    }
    MethodFlags Flags;
    Flags.IsCtor = IsCtor;
    while (cur().K == Tok::Ident && Err.empty()) {
      if (acceptIdent("static"))
        Flags.IsStatic = true;
      else if (acceptIdent("private"))
        Flags.IsPrivate = true;
      else
        break;
    }
    if (IsCtor && (Flags.IsStatic || RetTy != Type::Void))
      return error(Name, "constructors are instance methods returning void");

    std::vector<Type> ParamTys;
    for (auto &[Nm, Ty] : B.Params)
      ParamTys.push_back(Ty);
    B.Method = P->defineMethod(Cls, str(Name.Text), RetTy, ParamTys, Flags);

    if (IsInterface) {
      if (cur().K == Tok::LBrace)
        error(cur(), "interface methods cannot have bodies");
      return;
    }
    expect(Tok::LBrace, "'{'");
    if (failed())
      return;
    // Skip the body's tokens (brace-balanced); pass 2 assembles them.
    B.Begin = At;
    for (int Depth = 1; Depth > 0;) {
      Token T = take();
      if (T.K == Tok::End)
        return error(T, "unterminated method body");
      Depth += T.K == Tok::LBrace ? 1 : T.K == Tok::RBrace ? -1 : 0;
    }
    B.End = At - 1;
    Bodies.push_back(std::move(B));
  }

  // --- Pass 2: bodies -------------------------------------------------------
  /// A register name: the register it binds, and whether assignments write
  /// it in place (a `var`) or through a move.
  struct RegName {
    Reg R = 0;
    bool InPlace = false;
  };
  struct LabelName {
    FunctionBuilder::Label L = 0;
    bool Bound = false;
  };
  struct BodyCtx {
    FunctionBuilder *B = nullptr;
    std::unordered_map<std::string_view, RegName> Regs;
    std::unordered_map<std::string_view, LabelName> Labels;
    size_t Begin = 0, Pos = 0, End = 0; // the body's tokens
    bool LastWasTerminator = false;
  };

  /// The line of a body's last token (0 for an empty body).
  int lastLine(const BodyCtx &C) const {
    return C.End > C.Begin ? Toks[C.End - 1].Line : 0;
  }
  Token btake(BodyCtx &C) {
    if (C.Pos >= C.End) {
      Token T;
      T.Line = lastLine(C);
      return T;
    }
    return Toks[C.Pos++];
  }
  const Token &bpeek(BodyCtx &C) {
    static const Token EndTok;
    return C.Pos < C.End ? Toks[C.Pos] : EndTok;
  }
  bool baccept(BodyCtx &C, Tok K) {
    if (bpeek(C).K == K) {
      ++C.Pos;
      return true;
    }
    return false;
  }
  Token bexpect(BodyCtx &C, Tok K, const char *What) {
    Token T = btake(C);
    if (T.K != K)
      error(T, std::string("expected ") + What);
    return T;
  }

  Reg useReg(BodyCtx &C, const Token &T) {
    auto It = C.Regs.find(T.Text);
    if (It == C.Regs.end()) {
      error(T, "use of undefined register %" + str(T.Text));
      return 0;
    }
    return It->second.R;
  }
  Reg readReg(BodyCtx &C) {
    Token T = bexpect(C, Tok::Reg, "a register");
    if (failed())
      return 0;
    return useReg(C, T);
  }
  FunctionBuilder::Label useLabel(BodyCtx &C, const Token &T) {
    auto [It, New] = C.Labels.try_emplace(T.Text);
    if (New)
      It->second.L = C.B->makeLabel();
    return It->second.L;
  }

  /// Binds the destination of the instruction just emitted, which produced
  /// register Produced. A fresh name binds Produced; a `var` gets the result
  /// in place; any other existing name gets a move (so loop variables work).
  void bindDst(BodyCtx &C, const Token &DstTok, Reg Produced) {
    auto [It, Fresh] = C.Regs.try_emplace(DstTok.Text, RegName{Produced});
    if (Fresh)
      return;
    if (!It->second.InPlace)
      return C.B->move(It->second.R, Produced);
    if (!C.B->writeInto(It->second.R))
      error(DstTok, "type mismatch assigning %" + str(DstTok.Text));
  }

  std::optional<std::pair<ClassId, std::string>> readQualified(BodyCtx &C) {
    Token Cls = bexpect(C, Tok::Ident, "Class.member");
    bexpect(C, Tok::Dot, "'.'");
    Token Mem = bexpect(C, Tok::Ident, "a member name");
    if (failed())
      return std::nullopt;
    ClassId CId = P->findClass(str(Cls.Text));
    if (CId == NoClassId) {
      error(Cls, "unknown class '" + str(Cls.Text) + "'");
      return std::nullopt;
    }
    return std::make_pair(CId, str(Mem.Text));
  }

  std::optional<FieldId> readFieldRef(BodyCtx &C) {
    Token At = bpeek(C);
    auto Q = readQualified(C);
    if (!Q)
      return std::nullopt;
    FieldId F = P->findField(Q->first, Q->second);
    if (F == NoFieldId) {
      error(At, "unknown field '" + Q->second + "'");
      return std::nullopt;
    }
    return F;
  }

  std::optional<MethodId> readMethodRef(BodyCtx &C) {
    Token At = bpeek(C);
    auto Q = readQualified(C);
    if (!Q)
      return std::nullopt;
    MethodId M = P->findMethod(Q->first, Q->second);
    if (M == NoMethodId) {
      error(At, "unknown method '" + Q->second + "'");
      return std::nullopt;
    }
    return M;
  }

  std::optional<ClassId> readClassRef(BodyCtx &C) {
    Token T = bexpect(C, Tok::Ident, "a class name");
    if (failed())
      return std::nullopt;
    ClassId Cls = P->findClass(str(T.Text));
    if (Cls == NoClassId) {
      error(T, "unknown class '" + str(T.Text) + "'");
      return std::nullopt;
    }
    return Cls;
  }

  void assembleBody(PendingBody &Body) {
    if (failed())
      return;
    MethodInfo &M = P->method(Body.Method);
    FunctionBuilder B(P->cls(M.Owner).Name + "." + M.Name, M.RetTy);
    BodyCtx C;
    C.B = &B;
    C.Begin = C.Pos = Body.Begin;
    C.End = Body.End;
    if (!M.Flags.IsStatic)
      C.Regs.emplace("this", RegName{B.addArg(Type::Ref)});
    for (auto &[Nm, Ty] : Body.Params) {
      if (C.Regs.count(Nm)) {
        Token T;
        T.Line = Toks[Body.Begin].Line;
        error(T, "duplicate parameter %" + str(Nm));
        return;
      }
      C.Regs.emplace(Nm, RegName{B.addArg(Ty)});
    }

    while (bpeek(C).K != Tok::End && !failed())
      assembleStatement(C);
    if (failed())
      return;
    Token EndTok;
    EndTok.Line = lastLine(C);
    for (auto &[Name, L] : C.Labels)
      if (!L.Bound)
        return error(EndTok, "label @" + str(Name) +
                                 " is referenced but never defined");
    if (B.size() == 0 || !C.LastWasTerminator)
      return error(EndTok, "method body must end with 'ret' or 'br'");
    P->setBody(Body.Method, B.finalize());
  }

  void assembleStatement(BodyCtx &C) {
    Token T = btake(C);
    if (T.K == Tok::Label) {
      bexpect(C, Tok::Colon, "':' after label");
      auto L = useLabel(C, T);
      LabelName &LN = C.Labels[T.Text];
      if (LN.Bound) {
        error(T, "label @" + str(T.Text) + " bound twice");
        return;
      }
      LN.Bound = true;
      C.B->bind(L);
      C.LastWasTerminator = false;
      return;
    }
    if (T.K == Tok::Reg) {
      bexpect(C, Tok::Eq, "'=' after destination register");
      Token Op = bexpect(C, Tok::Ident, "an opcode");
      if (failed())
        return;
      assembleValueOp(C, T, Op);
      return;
    }
    if (T.K == Tok::Ident && T.Text == "var") {
      declareVars(C);
      return;
    }
    if (T.K == Tok::Ident) {
      assembleVoidOp(C, T);
      return;
    }
    error(T, "expected a statement");
  }

  /// `var %x: ty, ...`: fresh registers, zero until first written, that
  /// every assignment writes in place. Emits nothing.
  void declareVars(BodyCtx &C) {
    do {
      Token R = bexpect(C, Tok::Reg, "a register");
      bexpect(C, Tok::Colon, "':'");
      Token TyTok = bexpect(C, Tok::Ident, "a type (i64/f64/ref)");
      if (failed())
        return;
      auto Ty = typeOf(TyTok, /*AllowVoid=*/false);
      if (!Ty)
        return;
      if (C.Regs.count(R.Text))
        return error(R, "register %" + str(R.Text) + " is already defined");
      C.Regs.emplace(R.Text, RegName{C.B->newReg(*Ty), true});
    } while (baccept(C, Tok::Comma));
  }

  /// The operand of `constf`: a number, or inf / nan with an optional '-'.
  std::optional<double> readFloat(BodyCtx &C) {
    Token V = btake(C);
    if (V.K == Tok::Float)
      return V.FloatVal;
    if (V.K == Tok::Int)
      return static_cast<double>(V.IntVal);
    bool Neg = V.K == Tok::Ident && V.Text == "-";
    if (Neg)
      V = btake(C);
    if (V.K == Tok::Ident && (V.Text == "inf" || V.Text == "nan")) {
      double D = V.Text == "inf" ? std::numeric_limits<double>::infinity()
                                 : std::numeric_limits<double>::quiet_NaN();
      return Neg ? -D : D;
    }
    error(V, "expected a number");
    return std::nullopt;
  }

  void assembleValueOp(BodyCtx &C, const Token &Dst, const Token &OpTok) {
    FunctionBuilder &B = *C.B;
    auto Bind = [&](Reg R) { bindDst(C, Dst, R); };
    C.LastWasTerminator = false;
    std::optional<Opcode> Op = opcodeFromMnemonic(OpTok.Text);
    switch (Op ? *Op : Opcode::Print) {
    case Opcode::ConstI: {
      Token V = bexpect(C, Tok::Int, "an integer");
      if (!failed())
        Bind(B.constI(V.IntVal));
      return;
    }
    case Opcode::ConstF:
      if (auto V = readFloat(C))
        Bind(B.constF(*V));
      return;
    case Opcode::ConstNull:
      return Bind(B.constNull());
    case Opcode::Move: {
      // One move: into the named register, or into a fresh one.
      Reg Src = readReg(C);
      if (failed())
        return;
      auto [It, Fresh] = C.Regs.try_emplace(Dst.Text);
      if (Fresh)
        It->second.R = B.newReg(B.regType(Src));
      return B.move(It->second.R, Src);
    }
    case Opcode::GetField: {
      Reg Obj = readReg(C);
      bexpect(C, Tok::Comma, "','");
      auto F = readFieldRef(C);
      if (F && !failed())
        Bind(B.getField(Obj, *F, P->field(*F).Ty));
      return;
    }
    case Opcode::GetStatic:
      if (auto F = readFieldRef(C); F && !failed())
        Bind(B.getStatic(*F, P->field(*F).Ty));
      return;
    case Opcode::New:
      if (auto Cls = readClassRef(C); Cls && !failed())
        Bind(B.newObject(*Cls));
      return;
    case Opcode::NewArray: {
      auto Ty = parseBodyType(C);
      bexpect(C, Tok::Comma, "','");
      Reg Len = readReg(C);
      if (Ty && !failed())
        Bind(B.newArray(*Ty, Len));
      return;
    }
    case Opcode::ALoad: {
      auto Ty = parseBodyType(C);
      bexpect(C, Tok::Comma, "','");
      Reg Arr = readReg(C);
      bexpect(C, Tok::Comma, "','");
      Reg Idx = readReg(C);
      if (Ty && !failed())
        Bind(B.aload(*Ty, Arr, Idx));
      return;
    }
    case Opcode::ALen: {
      Reg Arr = readReg(C);
      if (!failed())
        Bind(B.alen(Arr));
      return;
    }
    case Opcode::InstanceOf:
    case Opcode::ClassEq: {
      Reg O = readReg(C);
      bexpect(C, Tok::Comma, "','");
      auto Cls = readClassRef(C);
      if (Cls && !failed())
        Bind(*Op == Opcode::ClassEq ? B.classEq(O, *Cls)
                                    : B.instanceOf(O, *Cls));
      return;
    }
    case Opcode::CallStatic:
    case Opcode::CallVirtual:
    case Opcode::CallSpecial:
    case Opcode::CallInterface:
      return assembleCall(C, *Op, &Dst);
    default:
      break;
    }
    // A binop, compare or unop: the opcode table spells it.
    OpFamily Fam = Op ? opcodeInfo(*Op).Family : OpFamily::Other;
    if (Fam == OpFamily::Other)
      return error(OpTok, "unknown value-producing opcode '" +
                              str(OpTok.Text) + "'");
    Reg A = readReg(C);
    if (Fam == OpFamily::Unop) {
      if (!failed())
        Bind(B.unop(*Op, A));
      return;
    }
    bexpect(C, Tok::Comma, "','");
    Reg Bv = readReg(C);
    if (!failed())
      Bind(B.arith(*Op, A, Bv));
  }

  void assembleVoidOp(BodyCtx &C, const Token &OpTok) {
    FunctionBuilder &B = *C.B;
    C.LastWasTerminator = false;
    if (OpTok.Text == "printchar") {
      Reg R = readReg(C);
      if (!failed())
        B.printChar(R);
      return;
    }
    std::optional<Opcode> Op = opcodeFromMnemonic(OpTok.Text);
    switch (Op ? *Op : Opcode::ConstI) {
    case Opcode::PutField: {
      Reg Obj = readReg(C);
      bexpect(C, Tok::Comma, "','");
      auto F = readFieldRef(C);
      bexpect(C, Tok::Comma, "','");
      Reg V = readReg(C);
      if (F && !failed())
        B.putField(Obj, *F, V);
      return;
    }
    case Opcode::PutStatic: {
      auto F = readFieldRef(C);
      bexpect(C, Tok::Comma, "','");
      Reg V = readReg(C);
      if (F && !failed())
        B.putStatic(*F, V);
      return;
    }
    case Opcode::AStore: {
      auto Ty = parseBodyType(C);
      bexpect(C, Tok::Comma, "','");
      Reg Arr = readReg(C);
      bexpect(C, Tok::Comma, "','");
      Reg Idx = readReg(C);
      bexpect(C, Tok::Comma, "','");
      Reg V = readReg(C);
      if (Ty && !failed())
        B.astore(*Ty, Arr, Idx, V);
      return;
    }
    case Opcode::CheckCast: {
      Reg O = readReg(C);
      bexpect(C, Tok::Comma, "','");
      auto Cls = readClassRef(C);
      if (Cls && !failed())
        B.checkCast(O, *Cls);
      return;
    }
    case Opcode::Print: {
      Reg R = readReg(C);
      // Print type follows the register's declared type.
      if (!failed())
        B.printNum(R, B.regType(R));
      return;
    }
    case Opcode::Br: {
      Token L = bexpect(C, Tok::Label, "a label");
      if (!failed())
        B.br(useLabel(C, L));
      C.LastWasTerminator = true;
      return;
    }
    case Opcode::Cbnz:
    case Opcode::Cbz: {
      Reg R = readReg(C);
      bexpect(C, Tok::Comma, "','");
      Token L = bexpect(C, Tok::Label, "a label");
      if (failed())
        return;
      if (*Op == Opcode::Cbnz)
        B.cbnz(R, useLabel(C, L));
      else
        B.cbz(R, useLabel(C, L));
      return;
    }
    case Opcode::Ret:
      C.LastWasTerminator = true;
      if (bpeek(C).K == Tok::Reg) {
        Reg V = readReg(C);
        if (B.retTy() == Type::Void)
          error(OpTok, "value return from void method");
        else if (!failed())
          B.ret(V);
      } else if (B.retTy() != Type::Void) {
        error(OpTok, "void return from non-void method");
      } else {
        B.retVoid();
      }
      return;
    case Opcode::CallStatic:
    case Opcode::CallVirtual:
    case Opcode::CallSpecial:
    case Opcode::CallInterface:
      return assembleCall(C, *Op, nullptr);
    default:
      return error(OpTok,
                   "unknown statement opcode '" + str(OpTok.Text) + "'");
    }
  }

  void assembleCall(BodyCtx &C, Opcode Op, const Token *Dst) {
    auto M = readMethodRef(C);
    bexpect(C, Tok::LParen, "'('");
    std::vector<Reg> Args;
    if (!baccept(C, Tok::RParen)) {
      do {
        Args.push_back(readReg(C));
      } while (baccept(C, Tok::Comma) && !failed());
      bexpect(C, Tok::RParen, "')'");
    }
    bool NoInline = bpeek(C).K == Tok::Ident && bpeek(C).Text == "noinline";
    if (NoInline)
      ++C.Pos;
    if (!M || failed())
      return;
    Type RetTy = P->method(*M).RetTy;
    if (Dst && RetTy == Type::Void) {
      error(*Dst, "void call cannot produce a value");
      return;
    }
    Reg R = C.B->call(Op, *M, Args, RetTy);
    if (NoInline)
      C.B->setNoInline();
    if (Dst)
      bindDst(C, *Dst, R);
  }

  std::optional<Type> parseBodyType(BodyCtx &C) {
    Token T = bexpect(C, Tok::Ident, "a type (i64/f64/ref)");
    if (failed())
      return std::nullopt;
    return typeOf(T, /*AllowVoid=*/false);
  }

  std::vector<Token> Toks; // the whole source, ending with one End token
  size_t At = 0;           // pass 1's position in Toks
  std::unique_ptr<Program> P;
  std::string Err;
  std::vector<PendingBody> Bodies;
};

} // namespace

AssemblyResult assembleProgram(const std::string &Source) {
  Parser Ps(Source);
  return Ps.run();
}

} // namespace dchm
