#include "isa/isa.hh"

#include <sstream>

namespace gpulat {

const OpcodeInfo *
findOpcode(std::string_view mnemonic)
{
    for (const OpcodeInfo &info : kOpcodes) {
        if (mnemonic == info.mnemonic)
            return &info;
    }
    return nullptr;
}

std::vector<const char *>
suffixSpellings(Opcode op)
{
    std::vector<const char *> texts;
    const Instruction probe{.op = op};
    visitSuffix(probe, [&](const auto &table, auto) {
        for (const auto &s : table)
            texts.push_back(s.text);
    });
    return texts;
}

std::string
disassemble(const Instruction &inst)
{
    std::ostringstream oss;
    if (inst.pred != kNoReg)
        oss << "@" << (inst.predNeg ? "!" : "") << "p" << inst.pred
            << " ";

    const OpcodeInfo &info = opcodeInfo(inst.op);
    oss << info.mnemonic;
    visitSuffix(inst, [&](const auto &table, auto value) {
        oss << "." << spell(table, value);
    });
    const char *sep = " ";
    for (const Operand operand : info.shape) {
        if (operand == Operand::None ||
            (operand == Operand::Dep && inst.srcA == kNoReg))
            break;
        oss << sep;
        sep = ", ";
        switch (operand) {
          case Operand::None:
            break;
          case Operand::Dst:
            oss << "r" << inst.dst;
            break;
          case Operand::SrcA:
          case Operand::Dep:
            oss << "r" << inst.srcA;
            break;
          case Operand::SrcB:
            oss << "r" << inst.srcB;
            break;
          case Operand::SrcC:
            oss << "r" << inst.srcC;
            break;
          case Operand::MovSrc:
            if (inst.param != kNoReg) {
                oss << "param" << inst.param;
                break;
            }
            [[fallthrough]];
          case Operand::RegOrImm:
            if (inst.useImm)
                oss << inst.imm;
            else
                oss << "r" << inst.srcB;
            break;
          case Operand::Sreg:
            oss << spell(kSpecialRegSpellings, inst.sreg);
            break;
          case Operand::PredDst:
            oss << "p" << inst.predDst;
            break;
          case Operand::Target:
            oss << inst.target;
            if (inst.pred != kNoReg)
                oss << " (reconv " << inst.reconv << ")";
            break;
          case Operand::Address:
            oss << "[r" << inst.srcA;
            if (inst.imm)
                oss << "+" << inst.imm;
            oss << "]";
            break;
        }
    }
    return oss.str();
}

} // namespace gpulat
