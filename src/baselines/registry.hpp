// Registry of every compressor in the study — PFPL's three executors plus
// the seven baseline re-implementations — in the order of the paper's
// Table III (by initial release date). The benchmark harness sweeps this
// list to regenerate the evaluation figures.
#pragma once

#include <vector>

#include "common/compressor.hpp"

namespace repro::baselines {

/// All compressors, Table III order, PFPL last (paper order).
/// PFPL appears once per executor (PFPL_Serial, PFPL_OMP, PFPL_CUDAsim),
/// mirroring the paper's "we always show all versions of PFPL".
std::vector<CompressorPtr> all_compressors();

/// Look up by name(); throws CompressionError if absent.
CompressorPtr find_compressor(const std::string& name);

}  // namespace repro::baselines
