// Register-map call-site rule.
//
// src/peach2/registers.h is the contract between the driver and the chip
// (Fig. 5 address-range registers). Its kRegMap table and static_asserts
// check the map itself on every build; what the compiler cannot see is a
// call site that bypasses the named constants with a literal offset, so
// reg-magic-mmio flags those.
#include <string>
#include <vector>

#include "tca_lint/lint.h"

namespace tca::lint::rules {

void check_magic_mmio(const std::string& path, const LexedFile& f,
                      std::vector<Finding>& out) {
  const std::vector<Tok>& toks = f.toks;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& name = toks[i].text;
    const bool is_reg_access =
        name == "write_register" || name == "read_register";
    const bool is_bank = name == "dma_bank";
    if (!is_reg_access && !is_bank) continue;
    if (toks[i + 1].text != "(") continue;
    const std::size_t lp = i + 1;
    const std::size_t rp = match_forward(toks, lp);
    if (rp >= toks.size()) continue;

    if (is_reg_access) {
      // Definitions/declarations start with a type name, calls with the
      // offset argument; only a literal first argument is banned.
      if (toks[lp + 1].kind == TokKind::kNumber) {
        out.push_back({path, toks[lp + 1].line, "reg-magic-mmio",
                       "MMIO register access via magic integer offset: use "
                       "the named peach2::regs:: constant"});
      }
    } else {
      // dma_bank(channel, field): the channel may be a literal, the field
      // must be a named constant.
      std::size_t second = 0;
      int depth = 0;
      for (std::size_t j = lp + 1; j < rp; ++j) {
        const std::string& s = toks[j].text;
        if (s == "(" || s == "{" || s == "[") ++depth;
        else if (s == ")" || s == "}" || s == "]") --depth;
        else if (s == "," && depth == 0) {
          second = j + 1;
          break;
        }
      }
      if (second != 0 && second < rp &&
          toks[second].kind == TokKind::kNumber) {
        out.push_back({path, toks[second].line, "reg-magic-mmio",
                       "dma_bank() called with a magic integer field "
                       "offset: use the kDmaBank* constant"});
      }
    }
  }
}

}  // namespace tca::lint::rules
