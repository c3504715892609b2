#include "ir/printer.hh"

#include <sstream>

namespace ilp {

namespace {

std::string
regName(Reg r)
{
    if (r == kNoReg)
        return "-";
    std::string name = "v";
    name += std::to_string(r);
    return name;
}

} // namespace

std::string
toString(const Instr &instr)
{
    std::ostringstream os;
    os << opcodeName(instr.op);
    switch (instr.op) {
      case Opcode::LiI:
        os << " " << regName(instr.dst) << " <- #" << instr.imm;
        break;
      case Opcode::LiF:
        os << " " << regName(instr.dst) << " <- #" << instr.fimm;
        break;
      case Opcode::LoadW:
      case Opcode::LoadF:
        os << " " << regName(instr.dst) << " <- " << instr.imm << "("
           << regName(instr.src1) << ")";
        break;
      case Opcode::StoreW:
      case Opcode::StoreF:
        os << " " << instr.imm << "(" << regName(instr.src1) << ") <- "
           << regName(instr.src2);
        break;
      case Opcode::Br:
        os << " " << regName(instr.src1) << ", bb" << instr.target0
           << ", bb" << instr.target1;
        break;
      case Opcode::Jmp:
        os << " bb" << instr.target0;
        break;
      case Opcode::Call:
        if (instr.dst != kNoReg)
            os << " " << regName(instr.dst) << " <-";
        os << " f" << instr.callee << "(";
        for (std::size_t i = 0; i < instr.args.size(); ++i)
            os << (i ? ", " : "") << regName(instr.args[i]);
        os << ")";
        break;
      case Opcode::Ret:
        if (instr.src1 != kNoReg)
            os << " " << regName(instr.src1);
        break;
      default:
        // ALU forms.
        os << " " << regName(instr.dst) << " <- " << regName(instr.src1);
        if (instr.hasImm)
            os << ", #" << instr.imm;
        else if (instr.src2 != kNoReg)
            os << ", " << regName(instr.src2);
        break;
    }
    return os.str();
}

std::string
toString(const BasicBlock &block)
{
    std::ostringstream os;
    os << block.label << " (bb" << block.id << "):\n";
    for (const auto &i : block.instrs)
        os << "    " << toString(i) << "\n";
    return os.str();
}

std::string
toString(const Function &func)
{
    std::ostringstream os;
    os << "func " << func.name << " (f" << func.id << ")";
    os << " params=[";
    for (std::size_t i = 0; i < func.paramRegs.size(); ++i)
        os << (i ? ", " : "") << regName(func.paramRegs[i]);
    os << "] frame=" << func.frameBytes << "B";
    if (func.allocated)
        os << " [allocated]";
    os << "\n";
    for (const auto &bb : func.blocks)
        os << toString(bb);
    return os.str();
}

std::string
toString(const Module &module)
{
    std::ostringstream os;
    for (const auto &g : module.globals()) {
        os << "global " << g.name << " @" << g.address << " ("
           << g.words << (g.isFloat ? " fwords" : " words") << ")\n";
    }
    for (const auto &f : module.functions())
        os << toString(f);
    return os.str();
}

} // namespace ilp
