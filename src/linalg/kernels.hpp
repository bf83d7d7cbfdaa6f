// Kernel execution policy for the linalg hot paths.
//
// Every compute kernel (CSR SpMV, fused triads, banded LU, preconditioner
// applies) runs under a KernelContext that selects one of two policies:
//
//  * Scalar — plain one-element-at-a-time loops.  This is the reference
//    every other configuration is asserted bitwise-identical against.
//  * Tiled — hand-tiled kernels: multi-row interleaved SpMV and triangular
//    sweeps (independent accumulator chains in flight instead of one),
//    register-blocked banded-LU trailing updates, and runtime-dispatched
//    AVX2/AVX-512 elementwise vector ops.
//
// The determinism contract (DESIGN.md §14): a tiled kernel never reassociates
// a floating-point reduction.  Element-wise work (SpMV row partitioning,
// triad updates, the LU trailing update) carries no cross-element
// accumulation, so it can be vectorised and split across an inner worker
// team freely; every cross-element sum (dots, norms) keeps the scalar
// policy's left-to-right chain.  Consequently Tiled output is bitwise
// identical to Scalar at every team size — the switch is a pure performance
// knob, and tests/test_kernels.cpp holds it to that.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace mg::linalg {

class ParallelContext;

enum class KernelPolicy : std::uint8_t {
  Scalar = 0,  ///< plain scalar loops; the bitwise reference
  Tiled = 1,   ///< interleaved/SIMD kernels; bitwise-identical results
};

const char* to_string(KernelPolicy p);

/// Parses "scalar" / "tiled"; returns false (out unchanged) otherwise.
bool parse_kernel_policy(std::string_view text, KernelPolicy& out);

/// Per-call kernel configuration threaded through the solvers.  The team is
/// borrowed, never owned; nullptr means the calling thread does all work.
struct KernelContext {
  KernelPolicy policy = KernelPolicy::Scalar;
  ParallelContext* team = nullptr;

  bool tiled() const { return policy == KernelPolicy::Tiled; }
};

}  // namespace mg::linalg
