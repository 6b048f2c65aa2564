#include "isa/cfg.hh"

#include <algorithm>

namespace gpulat {

namespace {

/** Successor pcs of the instruction at @p pc (terminator view):
 *  a branch's target first, then the fall-through pc. */
void
successorPcs(const std::vector<Instruction> &code, std::uint32_t pc,
             std::vector<std::uint32_t> &out)
{
    out.clear();
    const Instruction &inst = code[pc];
    if (inst.isBranch())
        out.push_back(inst.target);
    // An unguarded BRA or EXIT ends the path; under a guard, the
    // lanes whose predicate is false fall through.
    if ((inst.isBranch() || inst.isExit()) && inst.pred == kNoReg)
        return;
    if (pc + 1 < code.size())
        out.push_back(pc + 1);
}

} // namespace

Cfg
Cfg::build(const std::vector<Instruction> &code)
{
    Cfg cfg;
    const std::uint32_t n = static_cast<std::uint32_t>(code.size());
    if (n == 0)
        return cfg;

    // Leaders: pc 0, every branch target, every pc after a BRA or
    // EXIT (the latter so dead code after an exit forms its own
    // unreachable block instead of merging into a live one).
    std::vector<bool> leader(n, false);
    leader[0] = true;
    for (std::uint32_t pc = 0; pc < n; ++pc) {
        const Instruction &inst = code[pc];
        if (inst.isBranch()) {
            if (inst.target < n)
                leader[inst.target] = true;
            if (pc + 1 < n)
                leader[pc + 1] = true;
        } else if (inst.isExit()) {
            if (pc + 1 < n)
                leader[pc + 1] = true;
        }
    }

    cfg.blockOf.assign(n, 0);
    for (std::uint32_t pc = 0; pc < n; ++pc) {
        if (leader[pc]) {
            CfgBlock block;
            block.first = pc;
            cfg.blocks.push_back(block);
        }
        cfg.blockOf[pc] =
            static_cast<std::uint32_t>(cfg.blocks.size() - 1);
        cfg.blocks.back().last = pc;
    }

    std::vector<std::uint32_t> succ_pcs;
    for (std::uint32_t b = 0; b < cfg.blocks.size(); ++b) {
        successorPcs(code, cfg.blocks[b].last, succ_pcs);
        for (const std::uint32_t pc : succ_pcs) {
            const std::uint32_t s = cfg.blockOf[pc];
            cfg.blocks[b].succs.push_back(s);
            cfg.blocks[s].preds.push_back(b);
        }
    }

    // Iterative DFS from the entry: post-order + retreating edges.
    // An edge u -> v with v still on the DFS stack is retreating; its
    // target is a widening point. KernelBuilder's structured output
    // is reducible, so these are the natural-loop headers.
    std::vector<int> state(cfg.blocks.size(), 0); // 0 new 1 open 2 done
    std::vector<std::uint32_t> post;
    struct Frame
    {
        std::uint32_t block;
        std::size_t nextSucc;
    };
    std::vector<Frame> stack{{0, 0}};
    state[0] = 1;
    cfg.blocks[0].reachable = true;
    while (!stack.empty()) {
        Frame &frame = stack.back();
        CfgBlock &block = cfg.blocks[frame.block];
        if (frame.nextSucc < block.succs.size()) {
            const std::uint32_t s = block.succs[frame.nextSucc++];
            if (state[s] == 0) {
                state[s] = 1;
                cfg.blocks[s].reachable = true;
                stack.push_back({s, 0});
            } else if (state[s] == 1) {
                cfg.blocks[s].loopHead = true;
            }
        } else {
            state[frame.block] = 2;
            post.push_back(frame.block);
            stack.pop_back();
        }
    }

    cfg.rpo.assign(post.rbegin(), post.rend());
    cfg.rpoIndex.assign(cfg.blocks.size(),
                        static_cast<std::uint32_t>(cfg.blocks.size()));
    for (std::uint32_t i = 0; i < cfg.rpo.size(); ++i)
        cfg.rpoIndex[cfg.rpo[i]] = i;
    for (const CfgBlock &block : cfg.blocks)
        cfg.numLoopHeads += block.loopHead ? 1 : 0;
    return cfg;
}

} // namespace gpulat
