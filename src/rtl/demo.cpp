#include "rtl/demo.hpp"

#include "rtl/builder.hpp"

namespace fades::rtl {

netlist::Netlist demoDesign() {
  using netlist::Unit;
  Builder b;
  b.setUnit(Unit::Registers);
  Register lfsr = b.makeRegister("lfsr", 8, 1);
  b.setUnit(Unit::Fsm);
  Register cnt = b.makeRegister("cnt", 4, 0);
  b.setUnit(Unit::Registers);
  auto fb =
      b.lxor(lfsr.q[7], b.lxor(lfsr.q[5], b.lxor(lfsr.q[4], lfsr.q[3])));
  Bus next{fb};
  for (int i = 0; i < 7; ++i) next.push_back(lfsr.q[i]);
  b.connect(lfsr, next);
  b.setUnit(Unit::Fsm);
  b.connect(cnt, b.increment(cnt.q));
  b.setUnit(Unit::Alu);
  auto sum = b.add(lfsr.q, b.zeroExtend(cnt.q, 8), {});
  b.setUnit(Unit::Ram);
  b.ram("log", 4, 8, cnt.q, lfsr.q, b.one());
  b.output("out", sum.sum);
  return b.finish();
}

}  // namespace fades::rtl
