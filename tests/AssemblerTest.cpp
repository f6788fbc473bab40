//===-- tests/AssemblerTest.cpp - MiniVM textual assembler --------------------===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "asm/Assembler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

using namespace dchm;

namespace {

int64_t runMain(Program &P, std::vector<Value> Args = {}) {
  VirtualMachine VM(P, {});
  MethodId M = NoMethodId;
  for (size_t C = 0; C < P.numClasses() && M == NoMethodId; ++C)
    M = P.findMethod(static_cast<ClassId>(C), "main");
  EXPECT_NE(M, NoMethodId);
  return VM.call(M, Args).I;
}

TEST(Assembler, MinimalStaticMethod) {
  auto R = assembleProgram(R"(
    class Main {
      method main(%x: i64) -> i64 static {
        %two = consti 2
        %r = mul %x, %two
        ret %r
      }
    }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(runMain(*R.P, {valueI(21)}), 42);
}

TEST(Assembler, CommentsAndWhitespace) {
  auto R = assembleProgram(R"(
    # a full-line comment
    class Main {   # trailing comment
      method main() -> i64 static {
        %v = consti 7   # another
        ret %v
      }
    }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(runMain(*R.P), 7);
}

TEST(Assembler, LoopsWithRegisterReassignment) {
  // %i and %sum are reassigned each iteration: the assembler emits Moves.
  auto R = assembleProgram(R"(
    class Main {
      method main(%n: i64) -> i64 static {
        %i = consti 0
        %sum = consti 0
        %one = consti 1
      @head:
        %t = cmplt %i, %n
        cbz %t, @done
        %sum = add %sum, %i
        %i = add %i, %one
        br @head
      @done:
        ret %sum
      }
    }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(runMain(*R.P, {valueI(10)}), 45);
}

TEST(Assembler, ObjectsFieldsAndVirtualDispatch) {
  auto R = assembleProgram(R"(
    class Animal {
      ctor <init>() { ret }
      method speak() -> i64 { %v = consti 1  ret %v }
    }
    class Dog extends Animal {
      ctor <init>() {
        callspecial Animal.<init>(%this)
        ret
      }
      method speak() -> i64 { %v = consti 2  ret %v }
    }
    class Main {
      method main() -> i64 static {
        %a = new Animal
        callspecial Animal.<init>(%a)
        %d = new Dog
        callspecial Dog.<init>(%d)
        %x = callvirtual Animal.speak(%a)
        %y = callvirtual Animal.speak(%d)
        %ten = consti 10
        %yy = mul %y, %ten
        %r = add %x, %yy
        ret %r
      }
    }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(runMain(*R.P), 21); // 1 + 2*10
}

TEST(Assembler, FieldsStaticsAndArrays) {
  auto R = assembleProgram(R"(
    class Box {
      field value: i64
      field count: i64 static
      ctor <init>(%v: i64) {
        putfield %this, Box.value, %v
        %c = getstatic Box.count
        %one = consti 1
        %c2 = add %c, %one
        putstatic Box.count, %c2
        ret
      }
    }
    class Main {
      method main() -> i64 static {
        %three = consti 3
        %arr = newarray ref, %three
        %i = consti 0
        %b0 = new Box
        %v0 = consti 5
        callspecial Box.<init>(%b0, %v0)
        astore ref, %arr, %i, %b0
        %b = aload ref, %arr, %i
        %val = getfield %b, Box.value
        %cnt = getstatic Box.count
        %r = add %val, %cnt
        ret %r
      }
    }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(runMain(*R.P), 6); // 5 + 1 construction
}

TEST(Assembler, FloatsAndConversions) {
  auto R = assembleProgram(R"(
    class Main {
      method main(%x: i64) -> i64 static {
        %f = i2f %x
        %h = constf 0.5
        %p = fmul %f, %h
        %r = f2i %p
        ret %r
      }
    }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(runMain(*R.P, {valueI(9)}), 4);
}

TEST(Assembler, InterfacesDispatch) {
  auto R = assembleProgram(R"(
    interface Tagged {
      method tag() -> i64
    }
    class A implements Tagged {
      ctor <init>() { ret }
      method tag() -> i64 { %v = consti 9  ret %v }
    }
    class Main {
      method main() -> i64 static {
        %a = new A
        callspecial A.<init>(%a)
        %t = callinterface Tagged.tag(%a)
        ret %t
      }
    }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(runMain(*R.P), 9);
}

TEST(Assembler, InstanceOfAndPrint) {
  auto R = assembleProgram(R"(
    class A { ctor <init>() { ret } }
    class B extends A { ctor <init>() { ret } }
    class Main {
      method main() -> i64 static {
        %b = new B
        callspecial B.<init>(%b)
        %isa = instanceof %b, A
        print %isa
        ret %isa
      }
    }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  VirtualMachine VM(*R.P, {});
  MethodId M = R.P->findMethod(R.P->findClass("Main"), "main");
  EXPECT_EQ(VM.call(M, {}).I, 1);
  EXPECT_EQ(VM.interp().output(), "1");
}

TEST(Assembler, AssembledMutableClassWorksWithMutation) {
  // The whole point: author a mutable class and its plan in text and
  // mutate it.
  auto R = assembleProgram(R"(
#!mutable Counter instance=mode static=- methods=bump
#!hot Counter 0 : -
    class Counter {
      field mode: i64 private
      field total: i64
      ctor <init>(%m: i64) {
        putfield %this, Counter.mode, %m
        ret
      }
      method bump() -> void {
        %m = getfield %this, Counter.mode
        %t = getfield %this, Counter.total
        cbnz %m, @big
        %one = consti 1
        %n = add %t, %one
        putfield %this, Counter.total, %n
        ret
      @big:
        %hundred = consti 100
        %n2 = add %t, %hundred
        putfield %this, Counter.total, %n2
        ret
      }
      method get() -> i64 {
        %t = getfield %this, Counter.total
        ret %t
      }
    }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  Program &P = *R.P;
  ClassId C = P.findClass("Counter");
  VirtualMachine VM(P, {});
  VM.setMutationPlan(&R.Directives.Plan);
  ClassInfo &CI = P.cls(C);
  Object *O = VM.heap().allocateInstance(CI, CI.ClassTib);
  VM.call(P.findMethod(C, "<init>"), {valueR(O), valueI(0)});
  EXPECT_EQ(O->tib(), CI.SpecialTibs[0]);
  for (int I = 0; I < 5000; ++I)
    VM.call(P.findMethod(C, "bump"), {valueR(O)});
  EXPECT_FALSE(P.method(P.findMethod(C, "bump")).Specials.empty());
  EXPECT_EQ(VM.call(P.findMethod(C, "get"), {valueR(O)}).I, 5000);
}

// --- Error reporting --------------------------------------------------------

TEST(AssemblerErrors, UnknownOpcode) {
  auto R = assembleProgram(R"(
    class Main {
      method main() -> void static {
        frobnicate %x
        ret
      }
    }
  )");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("frobnicate"), std::string::npos);
  EXPECT_NE(R.Error.find("line 4"), std::string::npos);
}

TEST(AssemblerErrors, UndefinedRegister) {
  auto R = assembleProgram(R"(
    class Main {
      method main() -> i64 static {
        ret %nope
      }
    }
  )");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("undefined register"), std::string::npos);
}

TEST(AssemblerErrors, UnknownClassInExtends) {
  auto R = assembleProgram("class A extends Ghost { }");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("Ghost"), std::string::npos);
}

TEST(AssemblerErrors, LongDiagnosticIsWhole) {
  // A diagnostic is not cut to a fixed buffer: it names a 301-character
  // class in full, closing quote included.
  const std::string Ghost = "G" + std::string(300, 'x');
  auto R = assembleProgram("class Main {\n"
                           "  method main() -> void static {\n"
                           "    %o = new " + Ghost + "\n"
                           "    ret\n"
                           "  }\n"
                           "}\n");
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.Error, "line 3: unknown class '" + Ghost + "'");
}

TEST(AssemblerErrors, UnknownField) {
  auto R = assembleProgram(R"(
    class Main {
      method main() -> i64 static {
        %v = getstatic Main.missing
        ret %v
      }
    }
  )");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("missing"), std::string::npos);
}

TEST(AssemblerErrors, VoidCallWithDestination) {
  auto R = assembleProgram(R"(
    class Main {
      method helper() -> void static { ret }
      method main() -> i64 static {
        %v = callstatic Main.helper()
        ret %v
      }
    }
  )");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("void call"), std::string::npos);
}

TEST(AssemblerErrors, UnterminatedBody) {
  auto R = assembleProgram("class Main { method main() -> void static { ret ");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("unterminated"), std::string::npos);
}

TEST(AssemblerErrors, DuplicateClass) {
  auto R = assembleProgram("class A { }\nclass A { }");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("duplicate"), std::string::npos);
}

/// A program whose main calls a static method of N parameters, returning the
/// sum of its arguments 1..N.
std::string wideCallProgram(int N) {
  std::string Params, Args, Body = "    %s = consti 0\n";
  for (int I = 0; I < N; ++I) {
    std::string K = std::to_string(I);
    Params += (I ? ", %p" : "%p") + K + ": i64";
    Args += (I ? ", %a" : "%a") + K;
    Body += "    %s = add %s, %p" + K + "\n";
  }
  std::string Consts;
  for (int I = 0; I < N; ++I)
    Consts += "    %a" + std::to_string(I) + " = consti " +
              std::to_string(I + 1) + "\n";
  return "class Main {\n  method wide(" + Params + ") -> i64 static {\n" +
         Body + "    ret %s\n  }\n  method main() -> i64 static {\n" +
         Consts + "    %r = callstatic Main.wide(" + Args +
         ")\n    ret %r\n  }\n}\n";
}

TEST(AssemblerErrors, CallArgumentLimitIsALinkError) {
  // MaxCallArgs arguments link and run; one more is a diagnostic, where
  // the interpreter's call helper would otherwise abort.
  auto Ok = assembleProgram(wideCallProgram(MaxCallArgs));
  ASSERT_TRUE(Ok.ok()) << Ok.Error;
  EXPECT_EQ(runMain(*Ok.P), 16 * 17 / 2);
  auto Wide = assembleProgram(wideCallProgram(MaxCallArgs + 1));
  EXPECT_FALSE(Wide.ok());
  EXPECT_NE(Wide.Error.find(
                "Main.main: too many arguments calling Main.wide (17, limit 16)"),
            std::string::npos)
      << Wide.Error;
}

TEST(AssemblerErrors, CtorWithReturnType) {
  auto R = assembleProgram(R"(
    class A {
      ctor <init>() -> i64 { %v = consti 0 ret %v }
    }
  )");
  EXPECT_FALSE(R.ok());
}

TEST(Assembler, VarRegistersAreWrittenInPlace) {
  // A var starts at zero and every assignment writes it directly: no moves,
  // unlike the re-binding of %i and %sum in LoopsWithRegisterReassignment.
  auto R = assembleProgram(R"(
    class Main {
      method main(%n: i64) -> i64 static {
        var %i: i64, %sum: i64
        %one = consti 1
      @head:
        %t = cmplt %i, %n
        cbz %t, @done
        %sum = add %sum, %i
        %i = add %i, %one
        br @head
      @done:
        ret %sum
      }
    }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  const IRFunction &F = R.P->method(R.P->findMethod(0, "main")).Bytecode;
  EXPECT_EQ(F.Insts.size(), 7u);
  for (const Instruction &I : F.Insts)
    EXPECT_NE(I.Op, Opcode::Move);
  EXPECT_EQ(runMain(*R.P, {valueI(10)}), 45);
}

TEST(Assembler, NonFiniteConstants) {
  // Constant folding can leave these in an optimized body.
  auto R = assembleProgram(R"(
    class Main {
      method main() -> i64 static {
        %x = constf -inf
        %y = constf nan
        %s = consti 2
        ret %s
      }
    }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  const IRFunction &F = R.P->method(R.P->findMethod(0, "main")).Bytecode;
  EXPECT_EQ(F.Insts[0].FImm, -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(F.Insts[1].FImm));
  EXPECT_EQ(runMain(*R.P), 2);
}

TEST(AssemblerErrors, VarTypeMismatch) {
  auto R = assembleProgram(R"(
    class Main {
      method main() -> i64 static {
        var %x: f64
        %x = consti 1
        %y = consti 2
        ret %y
      }
    }
  )");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("type mismatch"), std::string::npos) << R.Error;
}

} // namespace
