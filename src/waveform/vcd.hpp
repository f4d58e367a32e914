#pragma once
// VCD (Value Change Dump) export of analog traces.
//
// Writes a Trace as a `real`-typed VCD file viewable in GTKWave & co,
// so simulator runs (both engines produce Trace objects) can be
// inspected with standard waveform tooling.  Channels are sampled on the
// union of their breakpoints, on a 1 ps timescale, under one scope
// `mtcmos`; a value is emitted only when it moves by more than 1e-9.

#include <iosfwd>

#include "waveform/trace.hpp"

namespace mtcmos {

/// Write every channel of `trace` as a real-valued VCD variable.
void write_vcd(std::ostream& os, const Trace& trace);

}  // namespace mtcmos
