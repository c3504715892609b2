/**
 * @file
 * A Module: the unit of compilation and simulation.  Owns functions
 * and the global data segment layout.
 *
 * Globals (scalars and arrays) are assigned absolute byte addresses at
 * declaration time, starting above a reserved low page so address 0 is
 * never a valid data address.  Code materializes global addresses with
 * LiI — making address arithmetic visible as instructions, which is
 * what lets classical CSE interact with parallelism the way §4.4 of
 * the paper describes.
 */

#ifndef SUPERSYM_IR_MODULE_HH
#define SUPERSYM_IR_MODULE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/function.hh"

namespace ilp {

/** Lowest valid global data address. */
inline constexpr std::int64_t kGlobalBase = 0x1000;

struct GlobalVar
{
    std::string name;
    std::int64_t address = 0;   ///< absolute byte address
    std::int64_t words = 1;     ///< size in words (1 for scalars)
    bool isFloat = false;
    /** Optional initializer, one entry per word (bit patterns). */
    std::vector<std::uint64_t> init;
};

class Module
{
  public:
    /** Source unit this module was compiled from ("<input>" when
     *  built programmatically); the `file` half of every SrcLoc. */
    std::string sourceName = "<input>";

    /** Create a function; returns its id. Names must be unique. */
    FuncId addFunction(const std::string &name);

    Function &function(FuncId id);
    const Function &function(FuncId id) const;
    std::vector<Function> &functions() { return funcs_; }
    const std::vector<Function> &functions() const { return funcs_; }

    /** Look up a function id by name; kNoFunc if absent. */
    FuncId findFunction(const std::string &name) const;

    /** Declare a global; returns its absolute address. */
    std::int64_t addGlobal(const std::string &name, std::int64_t words,
                           bool is_float);

    /** Set a global's initializer (word bit patterns). */
    void setGlobalInit(const std::string &name,
                       std::vector<std::uint64_t> init);

    const GlobalVar *findGlobal(const std::string &name) const;
    const std::vector<GlobalVar> &globals() const { return globals_; }

    /** One-past-the-end of the global segment (byte address). */
    std::int64_t globalEnd() const { return next_addr_; }

    /** True if `addr` falls inside some global's extent. */
    bool addressInGlobals(std::int64_t addr) const;

    /**
     * Number static instructions in layout order (function by
     * function, block by block): instr.pc becomes the profiler's key
     * for per-instruction counters.  Idempotent; called by
     * scheduleModule() after the last code-changing pass.
     * @return One past the largest assigned pc.
     */
    Pc assignPcs();

    /** One past the largest pc assignPcs() handed out (0 before). */
    Pc pcCount() const { return pc_count_; }

  private:
    std::vector<Function> funcs_;
    std::unordered_map<std::string, FuncId> func_index_;
    std::vector<GlobalVar> globals_;
    std::unordered_map<std::string, std::size_t> global_index_;
    std::int64_t next_addr_ = kGlobalBase;
    Pc pc_count_ = 0;
};

} // namespace ilp

#endif // SUPERSYM_IR_MODULE_HH
