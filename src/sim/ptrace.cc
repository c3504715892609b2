#include "sim/ptrace.hh"

#include "support/logging.hh"

namespace ilp {

namespace {

bool
regFits(Reg r)
{
    return r == kNoReg || r < PackedInstr::kNoReg16;
}

std::uint16_t
narrowReg(Reg r)
{
    return r == kNoReg ? PackedInstr::kNoReg16
                       : static_cast<std::uint16_t>(r);
}

} // namespace

bool
PackedInstr::canPack(const DynInstr &di)
{
    if (!regFits(di.dst))
        return false;
    for (Reg r : di.srcs)
        if (!regFits(r))
            return false;
    if (di.numSrcs > di.srcs.size())
        return false;
    if (di.addr != -1) {
        if (di.addr < 0 || di.addr % kWordBytes != 0)
            return false;
        if (di.addr / kWordBytes > 0xffffffffll)
            return false;
    }
    return true;
}

PackedInstr
PackedInstr::pack(const DynInstr &di)
{
    SS_ASSERT(canPack(di), "packing an unpackable DynInstr");
    PackedInstr pi;
    pi.op = static_cast<std::uint8_t>(di.op);
    pi.meta = static_cast<std::uint8_t>(di.numSrcs & kNumSrcsMask);
    pi.dst = narrowReg(di.dst);
    for (std::size_t i = 0; i < di.srcs.size(); ++i)
        pi.srcs[i] = narrowReg(di.srcs[i]);
    if (di.addr != -1) {
        pi.meta |= kHasAddr;
        pi.addrWord = static_cast<std::uint32_t>(di.addr / kWordBytes);
    }
    pi.pc = di.pc;
    return pi;
}

} // namespace ilp
