//===-- tests/FiguresDocTest.cpp - EXPERIMENTS.md against the golden figures ---===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Keeps EXPERIMENTS.md from drifting away from the code: every measured
/// number it reports must equal a number on the matching line of the same
/// figure's section of tests/data/figures.golden, rounded to the document's
/// precision. Measured numbers are the `ours` column of the Table 1 and
/// Figure 9-12 tables (matched by program name) and the Figure 13-15
/// warehouse blocks (matched by window, or the steady-state line).
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <map>
#include <regex>
#include <string>
#include <vector>

namespace {

using Lines = std::vector<std::string>;
using Sections = std::map<std::string, Lines>;

/// The lines of Path, grouped by section; a line matching Heading starts
/// the section named by its first capture.
Sections sections(const char *Path, const char *Heading) {
  std::ifstream In(Path);
  EXPECT_TRUE(In) << "cannot read " << Path;
  Sections Out;
  Lines *Cur = nullptr;
  std::smatch M;
  for (std::string L; std::getline(In, L);) {
    if (std::regex_match(L, M, std::regex(Heading)))
      Cur = &Out[M[1]];
    else if (Cur)
      Cur->push_back(L);
  }
  return Out;
}

const Sections &doc() {
  static const Sections S = sections(DCHM_EXPERIMENTS_MD, "## (.+?)( — .*)?");
  return S;
}

const Sections &golden() {
  static const Sections S =
      sections(DCHM_FIGURES_GOLDEN, "=== DCHM reproduction: (.+) ===");
  return S;
}

/// The numbers written in S, with their decimal places.
std::vector<std::pair<double, int>> numbersIn(const std::string &S) {
  static const std::regex Num("[-+]?[0-9]+(\\.([0-9]+))?");
  std::vector<std::pair<double, int>> Out;
  for (std::sregex_iterator I(S.begin(), S.end(), Num), E; I != E; ++I)
    Out.emplace_back(std::stod(I->str()), static_cast<int>((*I)[2].length()));
  return Out;
}

/// Checks every number in DocText against the numbers after Key on the
/// golden line of Figure whose first word is Key.
void expectInGolden(const std::string &Figure, const std::string &Key,
                    const std::string &DocText) {
  const std::string *Line = nullptr;
  for (const std::string &L : golden().at(Figure))
    if (L.rfind(Key + " ", 0) == 0)
      Line = &L;
  ASSERT_TRUE(Line) << Figure << ": no golden line for " << Key;
  auto Numbers = numbersIn(DocText);
  EXPECT_FALSE(Numbers.empty()) << Figure << ", " << Key << ": no number";
  for (auto [V, Decimals] : Numbers) {
    // The golden value is itself rounded, so "equal at the document's
    // precision" is a half-unit band: 10.85 supports 10.8 and 10.9.
    double HalfUnit = 0.5 * std::pow(10.0, -Decimals) + 1e-9;
    bool Found = false;
    for (const auto &G : numbersIn(Line->substr(Key.size())))
      Found |= std::fabs(G.first - V) <= HalfUnit;
    EXPECT_TRUE(Found) << Figure << ", " << Key << ": EXPERIMENTS.md says "
                       << DocText << ", figures.golden has\n  " << *Line;
  }
}

TEST(FiguresDoc, OursColumnsMatchGolden) {
  static const std::regex Cell("\\| ([^|]*) ");
  for (const char *Figure :
       {"Table 1", "Figure 9", "Figure 10", "Figure 11", "Figure 12"}) {
    SCOPED_TRACE(Figure);
    ASSERT_TRUE(doc().count(Figure));
    size_t Ours = 0, Rows = 0;
    for (const std::string &L : doc().at(Figure)) {
      if (L.rfind("| ", 0) != 0)
        continue; // not a table row, or the |---| separator
      Lines C;
      for (std::sregex_iterator I(L.begin(), L.end(), Cell), E; I != E; ++I)
        C.push_back((*I)[1]);
      if (Ours == 0) { // the header row
        while (Ours < C.size() && C[Ours].rfind("ours", 0) != 0)
          ++Ours;
        ASSERT_LT(Ours, C.size()) << "no `ours` column";
        continue;
      }
      expectInGolden(Figure, C[0], C[Ours]);
      ++Rows;
    }
    EXPECT_EQ(Rows, 7u) << "one row per Table 1 program";
  }
}

TEST(FiguresDoc, WarehouseBlocksMatchGolden) {
  static const std::regex Window("(wh[0-9]+) +([-+][0-9.]+%)");
  static const std::regex Steady("steady state: ([-+][0-9.]+%)");
  for (const char *Figure : {"Figure 13", "Figure 14", "Figure 15"}) {
    SCOPED_TRACE(Figure);
    ASSERT_TRUE(doc().count(Figure));
    size_t Windows = 0, SteadyLines = 0;
    bool InBlock = false;
    for (const std::string &L : doc().at(Figure)) {
      if (L.rfind("```", 0) == 0)
        InBlock = !InBlock;
      if (!InBlock)
        continue;
      for (std::sregex_iterator I(L.begin(), L.end(), Window), E; I != E;
           ++I, ++Windows)
        expectInGolden(Figure, (*I)[1], (*I)[2]);
      std::smatch M;
      if (std::regex_search(L, M, Steady)) {
        expectInGolden(Figure, "steady-state", M[1]);
        ++SteadyLines;
      }
    }
    EXPECT_EQ(Windows, 8u);
    EXPECT_EQ(SteadyLines, 1u);
  }
}

} // namespace
