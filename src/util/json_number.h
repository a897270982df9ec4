// The one number style of every JSON artefact the library emits (sweep
// JSON, its metrics / critical-path / time-series blocks, Summary objects).
//
// Integral values below 2^53 in magnitude are written bare ("42", and "0"
// for -0.0); everything else with 17 significant digits in the shortest of
// fixed or exponent form — printf's "%.17g", the same bytes a stream set to
// max_digits10 writes — so a byte-equal document means bit-equal values.
// Formatting goes through std::to_chars: no stream, no locale, and no heap
// allocation beyond growing `out`.
#pragma once

#include <string>

namespace abe {

// Appends the rendering of `v` to `out`.
void append_json_number(std::string* out, double v);
// The same rendering as a fresh string, for stream-built text.
std::string json_number(double v);

}  // namespace abe
