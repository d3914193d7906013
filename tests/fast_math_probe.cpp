// Compiled by ctest under fast-math flags: core/quantizers.hpp must refuse.
#include "core/quantizers.hpp"
