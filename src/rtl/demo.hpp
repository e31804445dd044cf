// The demo design: an 8-bit LFSR, a 4-bit counter, their sum on "out", and
// a small write-only RAM log - every functional unit represented, built in
// milliseconds. It is the service's "demo" workload and the mini system of
// the fault, parallel, cache, analytics and robustness tests.
#pragma once

#include "netlist/netlist.hpp"

namespace fades::rtl {

netlist::Netlist demoDesign();

}  // namespace fades::rtl
