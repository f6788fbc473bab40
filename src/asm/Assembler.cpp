//===-- asm/Assembler.cpp - MiniVM textual assembler ---------------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"

#include "ir/Builder.h"

#include <cctype>
#include <cstdio>
#include <map>
#include <optional>
#include <vector>

namespace dchm {

namespace {

// --- Lexer -------------------------------------------------------------

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
  std::string Text;   // identifier / reg / label spelling
  int64_t IntVal = 0;
  double FloatVal = 0.0;
  int Line = 0;
};

class Lexer {
public:
  explicit Lexer(const std::string &Src) : Src(Src) { advance(); }

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
      while (Pos < Src.size() && (std::isalnum(static_cast<unsigned char>(Src[Pos])) || Src[Pos] == '_'))
        ++Pos;
      Cur.K = C == '%' ? Tok::Reg : Tok::Label;
      Cur.Text = Src.substr(Start, Pos - Start);
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(C)) ||
        (C == '-' && Pos + 1 < Src.size() &&
         std::isdigit(static_cast<unsigned char>(Src[Pos + 1])))) {
      size_t Start = Pos;
      if (C == '-')
        ++Pos;
      bool IsFloat = false;
      while (Pos < Src.size() &&
             (std::isdigit(static_cast<unsigned char>(Src[Pos])) ||
              Src[Pos] == '.' || Src[Pos] == 'e' ||
              Src[Pos] == 'E' ||
              ((Src[Pos] == '+' || Src[Pos] == '-') &&
               (Src[Pos - 1] == 'e' || Src[Pos - 1] == 'E')))) {
        if (Src[Pos] == '.' || Src[Pos] == 'e' || Src[Pos] == 'E')
          IsFloat = true;
        ++Pos;
      }
      std::string Num = Src.substr(Start, Pos - Start);
      if (IsFloat) {
        Cur.K = Tok::Float;
        Cur.FloatVal = std::stod(Num);
      } else {
        Cur.K = Tok::Int;
        Cur.IntVal = std::stoll(Num);
      }
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_' || C == '<') {
      size_t Start = Pos;
      // Allow <init>-style names.
      while (Pos < Src.size() &&
             (std::isalnum(static_cast<unsigned char>(Src[Pos])) ||
              Src[Pos] == '_' || Src[Pos] == '<' || Src[Pos] == '>'))
        ++Pos;
      Cur.K = Tok::Ident;
      Cur.Text = Src.substr(Start, Pos - Start);
      return;
    }
    // Unknown character: surface it as an identifier token so the parser's
    // error message names it.
    Cur.K = Tok::Ident;
    Cur.Text = std::string(1, C);
    ++Pos;
  }

  void skipSpace() {
    while (Pos < Src.size()) {
      char C = Src[Pos];
      if (C == '\n') {
        ++Line;
        ++Pos;
      } else if (std::isspace(static_cast<unsigned char>(C))) {
        ++Pos;
      } else if (C == '#') {
        while (Pos < Src.size() && Src[Pos] != '\n')
          ++Pos;
      } else {
        break;
      }
    }
  }

  const std::string &Src;
  size_t Pos = 0;
  int Line = 1;
  Token Cur;
};

// --- Parser ---------------------------------------------------------------

/// A method body captured as raw tokens during pass 1, assembled in pass 2.
struct PendingBody {
  MethodId Method = NoMethodId;
  std::vector<Token> Tokens; // body tokens, brace-balanced, without braces
};

class Parser {
public:
  explicit Parser(const std::string &Src) : Lex(Src) {}

  AssemblyResult run() {
    P = std::make_unique<Program>();
    while (Lex.cur().K != Tok::End && Err.empty())
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

  Token expect(Tok K, const char *What) {
    Token T = Lex.take();
    if (T.K != K && Err.empty())
      error(T, std::string("expected ") + What);
    return T;
  }
  bool accept(Tok K) {
    if (Lex.cur().K == K) {
      Lex.take();
      return true;
    }
    return false;
  }
  bool acceptIdent(const char *S) {
    if (Lex.cur().K == Tok::Ident && Lex.cur().Text == S) {
      Lex.take();
      return true;
    }
    return false;
  }

  std::optional<Type> parseType(bool AllowVoid) {
    Token T = expect(Tok::Ident, "a type (i64/f64/ref)");
    if (failed())
      return std::nullopt;
    if (T.Text == "i64")
      return Type::I64;
    if (T.Text == "f64")
      return Type::F64;
    if (T.Text == "ref")
      return Type::Ref;
    if (AllowVoid && T.Text == "void")
      return Type::Void;
    error(T, "unknown type '" + T.Text + "'");
    return std::nullopt;
  }

  // --- Pass 1: declarations -------------------------------------------------
  void parseTopLevel() {
    Token T = Lex.take();
    if (T.K != Tok::Ident) {
      error(T, "expected 'class' or 'interface'");
      return;
    }
    if (T.Text == "class")
      parseClass(false);
    else if (T.Text == "interface")
      parseClass(true);
    else
      error(T, "expected 'class' or 'interface', got '" + T.Text + "'");
  }

  void parseClass(bool IsInterface) {
    Token Name = expect(Tok::Ident, "a class name");
    if (failed())
      return;
    ClassId Super = NoClassId;
    std::vector<std::string> Ifaces;
    uint32_t Package = 0;
    while (Lex.cur().K == Tok::Ident && Err.empty()) {
      if (acceptIdent("extends")) {
        Token S = expect(Tok::Ident, "a superclass name");
        if (failed())
          return;
        Super = P->findClass(S.Text);
        if (Super == NoClassId)
          return error(S, "unknown superclass '" + S.Text +
                              "' (classes must be declared before use)");
      } else if (acceptIdent("implements")) {
        do {
          Token I = expect(Tok::Ident, "an interface name");
          if (failed())
            return;
          Ifaces.push_back(I.Text);
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
    if (P->findClass(Name.Text) != NoClassId)
      return error(Name, "duplicate class '" + Name.Text + "'");
    ClassId Cls = IsInterface ? P->defineInterface(Name.Text, Package)
                              : P->defineClass(Name.Text, Super, Package);
    for (const std::string &I : Ifaces) {
      ClassId IC = P->findClass(I);
      if (IC == NoClassId)
        return error(Name, "unknown interface '" + I + "'");
      P->addInterface(Cls, IC);
    }
    expect(Tok::LBrace, "'{'");
    while (!failed() && !accept(Tok::RBrace)) {
      Token M = Lex.take();
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
                            M.Text + "'");
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
    while (Lex.cur().K == Tok::Ident && Err.empty()) {
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
    P->defineField(Cls, Name.Text, *Ty, IsStatic, Acc);
  }

  void parseMethod(ClassId Cls, bool IsCtor, bool IsInterface) {
    Token Name = expect(Tok::Ident, "a method name");
    expect(Tok::LParen, "'('");
    std::vector<std::pair<std::string, Type>> Params;
    if (!accept(Tok::RParen)) {
      do {
        Token R = expect(Tok::Reg, "a parameter register (%name)");
        expect(Tok::Colon, "':'");
        auto Ty = parseType(false);
        if (failed())
          return;
        Params.emplace_back(R.Text, *Ty);
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
    while (Lex.cur().K == Tok::Ident && Err.empty()) {
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
    for (auto &[Nm, Ty] : Params)
      ParamTys.push_back(Ty);
    MethodId M = P->defineMethod(Cls, Name.Text, RetTy, ParamTys, Flags);

    if (IsInterface) {
      if (Lex.cur().K == Tok::LBrace)
        error(Lex.cur(), "interface methods cannot have bodies");
      return;
    }
    expect(Tok::LBrace, "'{'");
    if (failed())
      return;
    // Capture the body tokens (brace-balanced) for pass 2.
    PendingBody B;
    B.Method = M;
    for (auto &[Nm, Ty] : Params)
      ParamNames[M].emplace_back(Nm, Ty);
    int Depth = 1;
    while (Depth > 0 && Err.empty()) {
      Token T = Lex.take();
      if (T.K == Tok::End)
        return error(T, "unterminated method body");
      if (T.K == Tok::LBrace)
        ++Depth;
      else if (T.K == Tok::RBrace) {
        if (--Depth == 0)
          break;
      }
      if (Depth > 0)
        B.Tokens.push_back(T);
    }
    Bodies.push_back(std::move(B));
  }

  // --- Pass 2: bodies -------------------------------------------------------
  struct BodyCtx {
    FunctionBuilder *B = nullptr;
    std::map<std::string, Reg> Regs;
    std::map<std::string, FunctionBuilder::Label> Labels;
    std::map<std::string, bool> LabelBound;
    const std::vector<Token> *Toks = nullptr;
    size_t Pos = 0;
    bool LastWasTerminator = false;
  };

  Token btake(BodyCtx &C) {
    if (C.Pos >= C.Toks->size()) {
      Token T;
      T.K = Tok::End;
      T.Line = C.Toks->empty() ? 0 : C.Toks->back().Line;
      return T;
    }
    return (*C.Toks)[C.Pos++];
  }
  const Token &bpeek(BodyCtx &C) {
    static Token EndTok;
    EndTok.K = Tok::End;
    return C.Pos < C.Toks->size() ? (*C.Toks)[C.Pos] : EndTok;
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
      error(T, "use of undefined register %" + T.Text);
      return 0;
    }
    return It->second;
  }
  Reg readReg(BodyCtx &C) {
    Token T = bexpect(C, Tok::Reg, "a register");
    if (failed())
      return 0;
    return useReg(C, T);
  }
  FunctionBuilder::Label useLabel(BodyCtx &C, const Token &T) {
    auto It = C.Labels.find(T.Text);
    if (It != C.Labels.end())
      return It->second;
    auto L = C.B->makeLabel();
    C.Labels.emplace(T.Text, L);
    C.LabelBound.emplace(T.Text, false);
    return L;
  }

  /// Binds the destination register: a fresh name binds the produced
  /// register; an existing name gets a Move (so loop variables work).
  void bindDst(BodyCtx &C, const Token &DstTok, Reg Produced) {
    auto It = C.Regs.find(DstTok.Text);
    if (It == C.Regs.end()) {
      C.Regs.emplace(DstTok.Text, Produced);
      return;
    }
    C.B->move(It->second, Produced);
  }

  std::optional<std::pair<ClassId, std::string>> readQualified(BodyCtx &C) {
    Token Cls = bexpect(C, Tok::Ident, "Class.member");
    bexpect(C, Tok::Dot, "'.'");
    Token Mem = bexpect(C, Tok::Ident, "a member name");
    if (failed())
      return std::nullopt;
    ClassId CId = P->findClass(Cls.Text);
    if (CId == NoClassId) {
      error(Cls, "unknown class '" + Cls.Text + "'");
      return std::nullopt;
    }
    return std::make_pair(CId, Mem.Text);
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
    ClassId Cls = P->findClass(T.Text);
    if (Cls == NoClassId) {
      error(T, "unknown class '" + T.Text + "'");
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
    C.Toks = &Body.Tokens;
    if (!M.Flags.IsStatic)
      C.Regs.emplace("this", B.addArg(Type::Ref));
    for (auto &[Nm, Ty] : ParamNames[Body.Method]) {
      if (C.Regs.count(Nm)) {
        Token T;
        T.Line = Body.Tokens.empty() ? 0 : Body.Tokens.front().Line;
        error(T, "duplicate parameter %" + Nm);
        return;
      }
      C.Regs.emplace(Nm, B.addArg(Ty));
    }

    while (bpeek(C).K != Tok::End && !failed())
      assembleStatement(C);
    if (failed())
      return;
    Token EndTok;
    EndTok.Line = Body.Tokens.empty() ? 0 : Body.Tokens.back().Line;
    for (auto &[Name, Bound] : C.LabelBound)
      if (!Bound)
        return error(EndTok, "label @" + Name + " is referenced but never "
                                                "defined");
    if (B.size() == 0 || !C.LastWasTerminator)
      return error(EndTok, "method body must end with 'ret' or 'br'");
    P->setBody(Body.Method, B.finalize());
  }

  void assembleStatement(BodyCtx &C) {
    Token T = btake(C);
    if (T.K == Tok::Label) {
      bexpect(C, Tok::Colon, "':' after label");
      if (C.LabelBound.count(T.Text) && C.LabelBound[T.Text]) {
        error(T, "label @" + T.Text + " bound twice");
        return;
      }
      auto L = useLabel(C, T);
      C.LabelBound[T.Text] = true;
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
    if (T.K == Tok::Ident) {
      assembleVoidOp(C, T);
      return;
    }
    error(T, "expected a statement");
  }

  void assembleValueOp(BodyCtx &C, const Token &Dst, const Token &Op) {
    const std::string &N = Op.Text;
    FunctionBuilder &B = *C.B;
    auto Bind = [&](Reg R) { bindDst(C, Dst, R); };

    if (N == "consti") {
      Token V = bexpect(C, Tok::Int, "an integer");
      if (!failed())
        Bind(B.constI(V.IntVal));
    } else if (N == "constf") {
      Token V = btake(C);
      if (V.K == Tok::Float)
        Bind(B.constF(V.FloatVal));
      else if (V.K == Tok::Int)
        Bind(B.constF(static_cast<double>(V.IntVal)));
      else
        error(V, "expected a number");
    } else if (N == "constnull") {
      Bind(B.constNull());
    } else if (auto TOp = opcodeFromMnemonic(N);
               TOp && opcodeInfo(*TOp).Family != OpFamily::Other) {
      // A binop, compare or unop: the opcode table spells it.
      if (opcodeInfo(*TOp).Family == OpFamily::Unop) {
        Bind(B.unop(*TOp, readReg(C)));
      } else {
        Reg A = readReg(C);
        bexpect(C, Tok::Comma, "','");
        Reg Bv = readReg(C);
        if (!failed())
          Bind(B.arith(*TOp, A, Bv));
      }
    } else if (N == "move") {
      Reg Src = readReg(C);
      if (!failed())
        Bind(Src); // fresh name aliases; existing name gets a Move
    } else if (N == "getfield") {
      Reg Obj = readReg(C);
      bexpect(C, Tok::Comma, "','");
      auto F = readFieldRef(C);
      if (F && !failed())
        Bind(B.getField(Obj, *F, P->field(*F).Ty));
    } else if (N == "getstatic") {
      auto F = readFieldRef(C);
      if (F && !failed())
        Bind(B.getStatic(*F, P->field(*F).Ty));
    } else if (N == "new") {
      auto Cls = readClassRef(C);
      if (Cls && !failed())
        Bind(B.newObject(*Cls));
    } else if (N == "newarray") {
      auto Ty = parseBodyType(C);
      bexpect(C, Tok::Comma, "','");
      Reg Len = readReg(C);
      if (Ty && !failed())
        Bind(B.newArray(*Ty, Len));
    } else if (N == "aload") {
      auto Ty = parseBodyType(C);
      bexpect(C, Tok::Comma, "','");
      Reg Arr = readReg(C);
      bexpect(C, Tok::Comma, "','");
      Reg Idx = readReg(C);
      if (Ty && !failed())
        Bind(B.aload(*Ty, Arr, Idx));
    } else if (N == "alen") {
      Bind(B.alen(readReg(C)));
    } else if (N == "instanceof") {
      Reg O = readReg(C);
      bexpect(C, Tok::Comma, "','");
      auto Cls = readClassRef(C);
      if (Cls && !failed())
        Bind(B.instanceOf(O, *Cls));
    } else if (N == "callvirtual" || N == "callstatic" ||
               N == "callspecial" || N == "callinterface") {
      assembleCall(C, N, &Dst);
    } else {
      error(Op, "unknown value-producing opcode '" + N + "'");
    }
    C.LastWasTerminator = false;
  }

  void assembleVoidOp(BodyCtx &C, const Token &Op) {
    const std::string &N = Op.Text;
    FunctionBuilder &B = *C.B;
    if (N == "putfield") {
      Reg Obj = readReg(C);
      bexpect(C, Tok::Comma, "','");
      auto F = readFieldRef(C);
      bexpect(C, Tok::Comma, "','");
      Reg V = readReg(C);
      if (F && !failed())
        B.putField(Obj, *F, V);
    } else if (N == "putstatic") {
      auto F = readFieldRef(C);
      bexpect(C, Tok::Comma, "','");
      Reg V = readReg(C);
      if (F && !failed())
        B.putStatic(*F, V);
    } else if (N == "astore") {
      auto Ty = parseBodyType(C);
      bexpect(C, Tok::Comma, "','");
      Reg Arr = readReg(C);
      bexpect(C, Tok::Comma, "','");
      Reg Idx = readReg(C);
      bexpect(C, Tok::Comma, "','");
      Reg V = readReg(C);
      if (Ty && !failed())
        B.astore(*Ty, Arr, Idx, V);
    } else if (N == "checkcast") {
      Reg O = readReg(C);
      bexpect(C, Tok::Comma, "','");
      auto Cls = readClassRef(C);
      if (Cls && !failed())
        B.checkCast(O, *Cls);
    } else if (N == "print") {
      Token RT = bexpect(C, Tok::Reg, "a register");
      if (!failed()) {
        Reg R = useReg(C, RT);
        // Print type follows the register's declared type.
        B.printNum(R, regType(C, R));
      }
    } else if (N == "printchar") {
      B.printChar(readReg(C));
    } else if (N == "br") {
      Token L = bexpect(C, Tok::Label, "a label");
      if (!failed())
        B.br(useLabel(C, L));
    } else if (N == "cbnz") {
      Reg R = readReg(C);
      bexpect(C, Tok::Comma, "','");
      Token L = bexpect(C, Tok::Label, "a label");
      if (!failed())
        B.cbnz(R, useLabel(C, L));
    } else if (N == "cbz") {
      Reg R = readReg(C);
      bexpect(C, Tok::Comma, "','");
      Token L = bexpect(C, Tok::Label, "a label");
      if (!failed())
        B.cbz(R, useLabel(C, L));
    } else if (N == "ret") {
      if (bpeek(C).K == Tok::Reg) {
        Reg V = readReg(C);
        if (B.retTy() == Type::Void)
          error(Op, "value return from void method");
        else
          B.ret(V);
      } else if (B.retTy() != Type::Void) {
        error(Op, "void return from non-void method");
      } else {
        B.retVoid();
      }
    } else if (N == "callvirtual" || N == "callstatic" ||
               N == "callspecial" || N == "callinterface") {
      assembleCall(C, N, nullptr);
    } else {
      error(Op, "unknown statement opcode '" + N + "'");
    }
    C.LastWasTerminator = N == "ret" || N == "br";
  }

  void assembleCall(BodyCtx &C, const std::string &Kind, const Token *Dst) {
    auto M = readMethodRef(C);
    bexpect(C, Tok::LParen, "'('");
    std::vector<Reg> Args;
    if (!baccept(C, Tok::RParen)) {
      do {
        Args.push_back(readReg(C));
      } while (baccept(C, Tok::Comma) && !failed());
      bexpect(C, Tok::RParen, "')'");
    }
    if (!M || failed())
      return;
    Opcode Op = Kind == "callvirtual"     ? Opcode::CallVirtual
                : Kind == "callstatic"    ? Opcode::CallStatic
                : Kind == "callspecial"   ? Opcode::CallSpecial
                                          : Opcode::CallInterface;
    Type RetTy = P->method(*M).RetTy;
    if (Dst && RetTy == Type::Void) {
      error(*Dst, "void call cannot produce a value");
      return;
    }
    Reg R = C.B->call(Op, *M, Args, RetTy);
    if (Dst) {
      if (R == NoReg) {
        error(*Dst, "void call cannot produce a value");
        return;
      }
      bindDst(C, *Dst, R);
    }
  }

  std::optional<Type> parseBodyType(BodyCtx &C) {
    Token T = bexpect(C, Tok::Ident, "a type (i64/f64/ref)");
    if (failed())
      return std::nullopt;
    if (T.Text == "i64")
      return Type::I64;
    if (T.Text == "f64")
      return Type::F64;
    if (T.Text == "ref")
      return Type::Ref;
    error(T, "unknown type '" + T.Text + "'");
    return std::nullopt;
  }

  /// Declared type of a register in the function being built.
  Type regType(BodyCtx &C, Reg R) { return C.B->regType(R); }

  Lexer Lex;
  std::unique_ptr<Program> P;
  std::string Err;
  std::vector<PendingBody> Bodies;
  std::map<MethodId, std::vector<std::pair<std::string, Type>>> ParamNames;
};

} // namespace

AssemblyResult assembleProgram(const std::string &Source) {
  Parser Ps(Source);
  return Ps.run();
}

} // namespace dchm
