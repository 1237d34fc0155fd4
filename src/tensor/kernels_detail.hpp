// Internal helpers shared by the kernel translation units (kernels.cpp,
// kernels_wide.cpp, and qkernels_wide.cpp for the direct-conv lane
// ranges). Everything here preserves the
// reference per-output accumulation order — see the header comment of
// tensor/kernels.hpp for the contract. Not part of the public API.
#pragma once

#include <cmath>
#include <cstdint>

#include "tensor/kernels.hpp"

namespace sx::tensor::kernels::detail {

/// Screens a finished pre-activation accumulator (same predicate as
/// tensor::has_non_finite), applies the epilogue, stores. Returns the
/// updated ok flag rather than early-exiting: on a detected fault the
/// engine discards the whole buffer, and finishing the sweep keeps the
/// kernel's timing data-independent.
inline bool finish(float acc, float* out, Epilogue ep, bool check,
                   bool ok) noexcept {
  if (check && !std::isfinite(acc)) ok = false;
  *out = apply_epilogue(acc, ep);
  return ok;
}

/// One kOc sweep over every output pixel, sharing the gathered column.
/// Interior pixels (full patch, w_ofs is the identity) take the
/// contiguous-weight fast path; clipped border pixels indirect through
/// w_ofs. Both walk the taps in table order == reference order. Used for
/// the live-weight conv kernel and for the tail channels of the packed
/// lane-panel variant.
template <std::size_t kOc>
inline bool conv_oc_sweep(const float* wt, const float* bias,
                          const ConvTables& t, const float* col, float* out,
                          std::size_t oc0, Epilogue ep, bool check,
                          bool ok) noexcept {
  const float* w[kOc];
  for (std::size_t i = 0; i < kOc; ++i) w[i] = wt + (oc0 + i) * t.patch;
  float* o[kOc];
  for (std::size_t i = 0; i < kOc; ++i) o[i] = out + (oc0 + i) * t.opix;
  for (std::size_t p = 0; p < t.opix; ++p) {
    const std::size_t base = t.pix_off[p];
    const std::size_t taps = t.pix_off[p + 1] - base;
    float acc[kOc];
    for (std::size_t i = 0; i < kOc; ++i) acc[i] = bias[oc0 + i];
    const float* c = col + base;
    if (taps == t.patch) {
      // 4x tap unroll on the contiguous fast path (interior pixels are the
      // overwhelming majority); each output channel's taps stay in strict
      // ascending order, so accumulation order is untouched.
      std::size_t j = 0;
      for (; j + 4 <= taps; j += 4) {
        for (std::size_t u = 0; u < 4; ++u) {
          const float v = c[j + u];
          for (std::size_t i = 0; i < kOc; ++i) acc[i] += w[i][j + u] * v;
        }
      }
      for (; j < taps; ++j) {
        const float v = c[j];
        for (std::size_t i = 0; i < kOc; ++i) acc[i] += w[i][j] * v;
      }
    } else {
      const std::uint32_t* wo = t.w_ofs + base;
      for (std::size_t j = 0; j < taps; ++j) {
        const float v = c[j];
        const std::size_t k = wo[j];
        for (std::size_t i = 0; i < kOc; ++i) acc[i] += w[i][k] * v;
      }
    }
    for (std::size_t i = 0; i < kOc; ++i)
      ok = finish(acc[i], o[i] + p, ep, check, ok);
  }
  return ok;
}

/// Lane bits of one direct-conv tap column: bit l is set iff output
/// lane l of the chunk of n (<= 16) pixels starting at column ox0 reads
/// an input column (ox0 + l) * stride + kx - pad inside [0, in_w) —
/// exactly the lanes whose tap the reference loop visits.
inline std::uint32_t lane_bits(const Conv2dGeom& g, std::size_t ox0,
                               std::size_t n, std::size_t kx) noexcept {
  const std::size_t first = ox0 * g.stride + kx;  // input column + pad
  const std::size_t lim = g.in_w + g.pad;         // exclusive, + pad
  std::size_t lo = 0, hi = 0;
  if (g.stride == 1) {
    lo = first < g.pad ? g.pad - first : 0;
    hi = first < lim ? lim - first : 0;
  } else {
    if (first < g.pad) lo = (g.pad - first + g.stride - 1) / g.stride;
    if (first < lim) hi = (lim - first + g.stride - 1) / g.stride;
  }
  hi = hi < n ? hi : n;
  lo = lo < hi ? lo : hi;
  return ((1u << hi) - 1u) & ~((1u << lo) - 1u);
}

/// The lane bits of one chunk, computed once per chunk for the first
/// kCachedK kernel columns (every realistic kernel) instead of once per
/// (ic, ky, kx) tap; wider kernels recompute the rest on the fly.
struct LaneCache {
  static constexpr std::size_t kCachedK = 16;
  std::uint32_t bits[kCachedK];

  void fill(const Conv2dGeom& g, std::size_t ox0, std::size_t n) noexcept {
    const std::size_t kc = g.k < kCachedK ? g.k : kCachedK;
    for (std::size_t kx = 0; kx < kc; ++kx)
      bits[kx] = lane_bits(g, ox0, n, kx);
  }
  std::uint32_t at(const Conv2dGeom& g, std::size_t ox0, std::size_t n,
                   std::size_t kx) const noexcept {
    return kx < kCachedK ? bits[kx] : lane_bits(g, ox0, n, kx);
  }
};

/// Bounded lane load: the inputs of the lanes in `bits` for tap column kx
/// copied into a lane buffer, every other lane 0. Used for strided convs
/// and wherever a full-width load would leave the input buffer.
template <std::size_t kLanes, typename T>
inline void fill_lanes(const T* row, std::size_t ox0, const Conv2dGeom& g,
                       std::size_t kx, std::uint32_t bits, T* buf) noexcept {
  for (std::size_t l = 0; l < kLanes; ++l)
    buf[l] = (bits >> l & 1u) != 0
                 ? row[(ox0 + l) * g.stride + kx - g.pad]
                 : T{0};
}

/// Dispatches the 1..7-channel conv tail through the templated sweep
/// (reads live weights, exactly like the unpacked path).
inline bool conv_tail_sweep(const float* wt, const float* bias,
                            const ConvTables& t, const float* col,
                            float* out, std::size_t oc0, Epilogue ep,
                            bool check, bool ok) noexcept {
  switch (t.out_c - oc0) {
    case 1: return conv_oc_sweep<1>(wt, bias, t, col, out, oc0, ep, check, ok);
    case 2: return conv_oc_sweep<2>(wt, bias, t, col, out, oc0, ep, check, ok);
    case 3: return conv_oc_sweep<3>(wt, bias, t, col, out, oc0, ep, check, ok);
    case 4: return conv_oc_sweep<4>(wt, bias, t, col, out, oc0, ep, check, ok);
    case 5: return conv_oc_sweep<5>(wt, bias, t, col, out, oc0, ep, check, ok);
    case 6: return conv_oc_sweep<6>(wt, bias, t, col, out, oc0, ep, check, ok);
    case 7: return conv_oc_sweep<7>(wt, bias, t, col, out, oc0, ep, check, ok);
    default: return ok;
  }
}

}  // namespace sx::tensor::kernels::detail
