// Clean twin of reg_magic_mmio_bad.cpp: MMIO through named register
// constants. A literal *channel* argument to dma_bank is fine — only the
// field offset must be named.
#include "peach2/registers.h"

namespace fixture {

namespace regs = tca::peach2::regs;

// A declaration whose first parameter is a type is not a call.
void write_register(unsigned long offset, unsigned long value);

void poke(Chip& chip) {
  chip.write_register(regs::dma_bank(1, regs::kDmaBankTableAddr), 1);
  const auto status =
      chip.read_register(regs::dma_bank(0, regs::kDmaBankStatus));
  (void)status;
  const auto doorbell = regs::dma_bank(1, regs::kDmaBankDoorbell);
  (void)doorbell;
}

}  // namespace fixture
