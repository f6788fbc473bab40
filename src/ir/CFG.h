//===-- ir/CFG.h - Control-flow analysis over MiniVM IR -------*- C++ -*-===//
//
// Part of DCHM, a reproduction of "Dynamic Class Hierarchy Mutation"
// (Su & Lipasti, CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Basic-block view, dominator tree, and natural-loop nesting computed over
/// the linear instruction list. The paper's EQ 1 weighs a state field's
/// branch uses and assignments by their loop nesting level Li/li; the loop
/// depths come from this analysis. The optimizer's dataflow passes also run
/// over this block view.
///
//===----------------------------------------------------------------------===//

#ifndef DCHM_IR_CFG_H
#define DCHM_IR_CFG_H

#include "ir/Function.h"

#include <cstdint>
#include <vector>

namespace dchm {

/// A half-open range of instructions forming a basic block.
struct BasicBlock {
  uint32_t Begin = 0; ///< Index of the first instruction.
  uint32_t End = 0;   ///< One past the last instruction.
  std::vector<uint32_t> Succs;
  std::vector<uint32_t> Preds;
};

/// Control-flow graph with dominators and loop nesting for one IRFunction.
/// The CFG is a snapshot: it does not track later edits to the function.
class CFG {
public:
  explicit CFG(const IRFunction &F);

  const std::vector<BasicBlock> &blocks() const { return Blocks; }
  size_t numBlocks() const { return Blocks.size(); }

  /// Block containing instruction I.
  uint32_t blockOfInst(uint32_t InstIdx) const { return InstToBlock[InstIdx]; }

  /// Immediate dominator of block B (entry block maps to itself).
  uint32_t idom(uint32_t B) const { return Idom[B]; }

  /// True if block A dominates block B.
  bool dominates(uint32_t A, uint32_t B) const;

  /// Loop nesting depth of an instruction.
  uint32_t loopDepthOfInst(uint32_t InstIdx) const {
    return LoopDepthOfBlock[InstToBlock[InstIdx]];
  }

  /// True if block B is reachable from the entry.
  bool isReachable(uint32_t B) const { return Reachable[B]; }

  /// Number of natural loops found.
  size_t numLoops() const { return NumLoops; }

private:
  void buildBlocks(const IRFunction &F);
  void computeDominators();
  void computeLoops();

  std::vector<BasicBlock> Blocks;
  std::vector<uint32_t> InstToBlock;
  std::vector<uint32_t> Idom;
  std::vector<uint32_t> RpoNumber; ///< Reverse-postorder index per block.
  std::vector<bool> Reachable;
  std::vector<uint32_t> LoopDepthOfBlock;
  size_t NumLoops = 0;
};

} // namespace dchm

#endif // DCHM_IR_CFG_H
