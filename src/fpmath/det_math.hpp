// Deterministic elementary functions built only from IEEE-754 basic
// operations (+, -, *, /) and integer bit manipulation.
//
// Section III-C of the paper: REL quantization needs log() and exp()-style
// reconstruction, but libm implementations differ between CPUs and GPUs, so
// PFPL ships its own approximations made of fully IEEE-compliant operations.
// Small approximation errors are tolerated because the quantizer verifies
// every value after encoding and falls back to lossless storage when the
// error bound would be violated (Section III-B).
//
// All functions here are pure, branch-deterministic, and never touch the FP
// environment. Compiled with -ffp-contract=off so no FMA is introduced.
#pragma once

#include <cstdint>

#include "fpmath/traits.hpp"

namespace repro::fpmath {

/// Round to the nearest integer, ties to even, without calling libm and
/// without depending on the dynamic rounding mode beyond the IEEE default
/// (round-to-nearest-even), using the classic 2^52 add/subtract trick.
double round_nearest_even(double x);

/// Natural logarithm of a positive finite double.
/// Relative error < 1e-15 over the full range, including denormal inputs.
/// Preconditions: x > 0 and finite (callers filter NaN/inf/zero).
double det_log(double x);

/// log(1 + x) for x in (0, 1e6]; accurate for small x where 1+x loses bits.
double det_log1p(double x);

/// e^x for finite double x. Returns +inf on overflow and correctly scales
/// into the denormal range on underflow (returning 0 below it). NaN gives
/// NaN.
/// Relative error < 4e-16 for results in the normal range.
double det_exp(double x);

}  // namespace repro::fpmath
