// kWide float microkernels: 8-lane (AVX2-class) and 16-lane
// (AVX-512-class) Dense panel kernels and direct Conv2d kernels, plus
// their portable scalar twins.
//
// Determinism contract (the whole point of this file): each lane family
// computes the *identical* fixed accumulation tree. One output element is
// always one serial chain — bias, then every column/tap in strict
// ascending reference order — and the SIMD only runs independent chains
// side by side (one lane per output, no horizontal reductions). The Dense
// kernels put output rows in the lanes and broadcast the input; the
// direct convs put consecutive output pixels of one row in the lanes,
// broadcast each weight, and load the input row in place, masking the
// padding-clipped taps out of the add lane by lane. The scalar twins walk
// the same chains, so scalar/avx2/avx512 outputs are bitwise identical
// across machines, and all of them are bitwise identical to the
// kReference/kBlocked/kPacked paths (tensor_kernels_wide_test proves both
// claims differentially).
//
// This translation unit is compiled with -ffp-contract=off (see
// src/tensor/CMakeLists.txt): the target("avx512f")/target("avx2")
// function attributes make FMA available, and a contracted a*b+c rounds
// once instead of twice — which would silently fork the avx2/avx512
// results from the scalar twin. Keeping contraction off pins all three
// to the twin's two-rounding chain.
#include <cstdint>

#include "tensor/kernels.hpp"
#include "tensor/kernels_detail.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define SX_WIDE_X86 1
#include <immintrin.h>
#else
#define SX_WIDE_X86 0
#endif

namespace sx::tensor::kernels {

namespace {

using detail::finish;

typedef float v8sf __attribute__((vector_size(32)));
typedef float v16sf __attribute__((vector_size(64)));

/// Scalar core of the wide Dense kernel — the canonical accumulation tree
/// every SIMD variant must reproduce. Also used by every variant for the
/// rows % kWideRowBlock tail block.
inline bool wide_dense_tail(const float* blk, const float* bias,
                            std::size_t r0, std::size_t tail,
                            std::size_t cols, const float* x, float* out,
                            Epilogue ep, bool check, bool ok) noexcept {
  float acc[kWideRowBlock - 1];
  for (std::size_t i = 0; i < tail; ++i) acc[i] = bias[r0 + i];
  for (std::size_t c = 0; c < cols; ++c) {
    const float xv = x[c];
    const float* lane = blk + c * tail;
    for (std::size_t i = 0; i < tail; ++i) acc[i] += lane[i] * xv;
  }
  for (std::size_t i = 0; i < tail; ++i)
    ok = finish(acc[i], out + r0 + i, ep, check, ok);
  return ok;
}

}  // namespace

const char* wide_isa_name(WideIsa isa) noexcept {
  switch (isa) {
    case WideIsa::kScalar: return "scalar";
    case WideIsa::kAvx2: return "avx2";
    case WideIsa::kAvx512: return "avx512";
  }
  return "unknown";
}

std::size_t wide_dense_panel_floats(std::size_t rows,
                                    std::size_t cols) noexcept {
  const std::size_t full = rows / kWideRowBlock;
  const std::size_t tail = rows % kWideRowBlock;
  std::size_t floats = full * align_up(kWideRowBlock * cols);
  if (tail != 0) floats += align_up(tail * cols);
  return floats;
}

void pack_wide_dense_panel(const float* w, std::size_t rows,
                           std::size_t cols, float* panel) noexcept {
  const std::size_t total = wide_dense_panel_floats(rows, cols);
  for (std::size_t i = 0; i < total; ++i) panel[i] = 0.0f;  // padding
  const std::size_t full = rows / kWideRowBlock;
  const std::size_t tail = rows % kWideRowBlock;
  const std::size_t full_stride = align_up(kWideRowBlock * cols);
  for (std::size_t b = 0; b < full; ++b) {
    float* blk = panel + b * full_stride;
    const float* wb = w + b * kWideRowBlock * cols;
    for (std::size_t c = 0; c < cols; ++c)
      for (std::size_t i = 0; i < kWideRowBlock; ++i)
        blk[c * kWideRowBlock + i] = wb[i * cols + c];
  }
  if (tail != 0) {
    float* blk = panel + full * full_stride;
    const float* wb = w + full * kWideRowBlock * cols;
    for (std::size_t c = 0; c < cols; ++c)
      for (std::size_t i = 0; i < tail; ++i)
        blk[c * tail + i] = wb[i * cols + c];
  }
}

bool matvec_wide_scalar(const float* panel, const float* bias,
                        std::size_t rows, std::size_t cols, const float* x,
                        float* out, Epilogue ep, bool check) noexcept {
  bool ok = true;
  const std::size_t full = rows / kWideRowBlock;
  const std::size_t tail = rows % kWideRowBlock;
  const std::size_t full_stride = align_up(kWideRowBlock * cols);
  for (std::size_t b = 0; b < full; ++b) {
    const float* blk = panel + b * full_stride;
    const std::size_t r = b * kWideRowBlock;
    // Sixteen independent chains, one per output row; chain r+i sums its
    // columns in strict ascending order — exactly the tree the SIMD
    // variants below compute lane-for-lane.
    float acc[kWideRowBlock];
    for (std::size_t i = 0; i < kWideRowBlock; ++i) acc[i] = bias[r + i];
    const float* lane = blk;
    for (std::size_t c = 0; c < cols; ++c, lane += kWideRowBlock) {
      const float xv = x[c];
      for (std::size_t i = 0; i < kWideRowBlock; ++i)
        acc[i] += lane[i] * xv;
    }
    for (std::size_t i = 0; i < kWideRowBlock; ++i)
      ok = finish(acc[i], out + r + i, ep, check, ok);
  }
  if (tail != 0)
    ok = wide_dense_tail(panel + full * full_stride, bias,
                         full * kWideRowBlock, tail, cols, x, out, ep,
                         check, ok);
  return ok;
}

#if SX_WIDE_X86

namespace {

__attribute__((target("avx2"))) inline v8sf v8_load(const float* p) noexcept {
  v8sf v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

__attribute__((target("avx512f"))) inline v16sf v16_load(
    const float* p) noexcept {
  v16sf v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace

__attribute__((target("avx2")))
bool matvec_wide_avx2(const float* panel, const float* bias,
                      std::size_t rows, std::size_t cols, const float* x,
                      float* out, Epilogue ep, bool check) noexcept {
  bool ok = true;
  const std::size_t full = rows / kWideRowBlock;
  const std::size_t tail = rows % kWideRowBlock;
  const std::size_t full_stride = align_up(kWideRowBlock * cols);
  std::size_t b = 0;
  // Paired row blocks keep four independent 8-lane accumulators in
  // flight — enough chains to cover the vector-add latency that a single
  // serial chain per block would expose. Each lane still folds only its
  // own row's products in ascending-column order (broadcast multiplicand,
  // vertical add), so pairing changes instruction scheduling only, never
  // a per-output tree: bitwise identity to the scalar twin is preserved.
  for (; b + 2 <= full; b += 2) {
    const float* blk0 = panel + b * full_stride;
    const float* blk1 = blk0 + full_stride;
    const std::size_t r = b * kWideRowBlock;
    v8sf a0 = v8_load(bias + r);
    v8sf a1 = v8_load(bias + r + 8);
    v8sf a2 = v8_load(bias + r + 16);
    v8sf a3 = v8_load(bias + r + 24);
    for (std::size_t c = 0; c < cols; ++c) {
      const v8sf xv = v8sf{} + x[c];
      const float* l0 = blk0 + c * kWideRowBlock;
      const float* l1 = blk1 + c * kWideRowBlock;
      a0 += v8_load(l0) * xv;
      a1 += v8_load(l0 + 8) * xv;
      a2 += v8_load(l1) * xv;
      a3 += v8_load(l1 + 8) * xv;
    }
    float acc[2 * kWideRowBlock];
    __builtin_memcpy(acc, &a0, sizeof a0);
    __builtin_memcpy(acc + 8, &a1, sizeof a1);
    __builtin_memcpy(acc + 16, &a2, sizeof a2);
    __builtin_memcpy(acc + 24, &a3, sizeof a3);
    for (std::size_t i = 0; i < 2 * kWideRowBlock; ++i)
      ok = finish(acc[i], out + r + i, ep, check, ok);
  }
  for (; b < full; ++b) {
    const float* blk = panel + b * full_stride;
    const std::size_t r = b * kWideRowBlock;
    // Leftover block: two 8-lane accumulators, the original single-block
    // sweep.
    v8sf lo = v8_load(bias + r);
    v8sf hi = v8_load(bias + r + 8);
    const float* lane = blk;
    for (std::size_t c = 0; c < cols; ++c, lane += kWideRowBlock) {
      const v8sf xv = v8sf{} + x[c];
      lo += v8_load(lane) * xv;
      hi += v8_load(lane + 8) * xv;
    }
    float acc[kWideRowBlock];
    __builtin_memcpy(acc, &lo, sizeof lo);
    __builtin_memcpy(acc + 8, &hi, sizeof hi);
    for (std::size_t i = 0; i < kWideRowBlock; ++i)
      ok = finish(acc[i], out + r + i, ep, check, ok);
  }
  if (tail != 0)
    ok = wide_dense_tail(panel + full * full_stride, bias,
                         full * kWideRowBlock, tail, cols, x, out, ep,
                         check, ok);
  return ok;
}

__attribute__((target("avx512f")))
bool matvec_wide_avx512(const float* panel, const float* bias,
                        std::size_t rows, std::size_t cols, const float* x,
                        float* out, Epilogue ep, bool check) noexcept {
  bool ok = true;
  const std::size_t full = rows / kWideRowBlock;
  const std::size_t tail = rows % kWideRowBlock;
  const std::size_t full_stride = align_up(kWideRowBlock * cols);
  std::size_t b = 0;
  // Four row blocks in flight: a single 16-lane accumulator per block is
  // one serial vector chain, so four of them are needed to cover the add
  // latency. Scheduling only — every per-output tree is still the scalar
  // twin's (and the contraction-off build keeps mul+add as two roundings;
  // see the file comment).
  for (; b + 4 <= full; b += 4) {
    const float* blk0 = panel + b * full_stride;
    const float* blk1 = blk0 + full_stride;
    const float* blk2 = blk1 + full_stride;
    const float* blk3 = blk2 + full_stride;
    const std::size_t r = b * kWideRowBlock;
    v16sf a0 = v16_load(bias + r);
    v16sf a1 = v16_load(bias + r + 16);
    v16sf a2 = v16_load(bias + r + 32);
    v16sf a3 = v16_load(bias + r + 48);
    for (std::size_t c = 0; c < cols; ++c) {
      const v16sf xv = v16sf{} + x[c];
      const std::size_t o = c * kWideRowBlock;
      a0 += v16_load(blk0 + o) * xv;
      a1 += v16_load(blk1 + o) * xv;
      a2 += v16_load(blk2 + o) * xv;
      a3 += v16_load(blk3 + o) * xv;
    }
    float acc[4 * kWideRowBlock];
    __builtin_memcpy(acc, &a0, sizeof a0);
    __builtin_memcpy(acc + 16, &a1, sizeof a1);
    __builtin_memcpy(acc + 32, &a2, sizeof a2);
    __builtin_memcpy(acc + 48, &a3, sizeof a3);
    for (std::size_t i = 0; i < 4 * kWideRowBlock; ++i)
      ok = finish(acc[i], out + r + i, ep, check, ok);
  }
  for (; b < full; ++b) {
    const float* blk = panel + b * full_stride;
    const std::size_t r = b * kWideRowBlock;
    // Leftover block: one 16-lane accumulator, the original sweep.
    v16sf acc = v16_load(bias + r);
    const float* lane = blk;
    for (std::size_t c = 0; c < cols; ++c, lane += kWideRowBlock) {
      const v16sf xv = v16sf{} + x[c];
      acc += v16_load(lane) * xv;
    }
    float a[kWideRowBlock];
    __builtin_memcpy(a, &acc, sizeof acc);
    for (std::size_t i = 0; i < kWideRowBlock; ++i)
      ok = finish(a[i], out + r + i, ep, check, ok);
  }
  if (tail != 0)
    ok = wide_dense_tail(panel + full * full_stride, bias,
                         full * kWideRowBlock, tail, cols, x, out, ep,
                         check, ok);
  return ok;
}

#else  // !SX_WIDE_X86: the SIMD entry points are the twin itself.

bool matvec_wide_avx2(const float* panel, const float* bias,
                      std::size_t rows, std::size_t cols, const float* x,
                      float* out, Epilogue ep, bool check) noexcept {
  return matvec_wide_scalar(panel, bias, rows, cols, x, out, ep, check);
}

bool matvec_wide_avx512(const float* panel, const float* bias,
                        std::size_t rows, std::size_t cols, const float* x,
                        float* out, Epilogue ep, bool check) noexcept {
  return matvec_wide_scalar(panel, bias, rows, cols, x, out, ep, check);
}

#endif  // SX_WIDE_X86

std::size_t wide_conv_panel_floats(std::size_t out_c,
                                   std::size_t patch) noexcept {
  return (out_c / kWideConvLanes) * align_up(patch * kWideConvLanes);
}

void pack_wide_conv_panel(const float* wt, std::size_t out_c,
                          std::size_t patch, float* panel) noexcept {
  const std::size_t total = wide_conv_panel_floats(out_c, patch);
  for (std::size_t i = 0; i < total; ++i) panel[i] = 0.0f;  // padding
  const std::size_t gstride = align_up(patch * kWideConvLanes);
  for (std::size_t g = 0; g < out_c / kWideConvLanes; ++g) {
    float* gp = panel + g * gstride;
    for (std::size_t j = 0; j < patch; ++j)
      for (std::size_t i = 0; i < kWideConvLanes; ++i)
        gp[j * kWideConvLanes + i] = wt[(g * kWideConvLanes + i) * patch + j];
  }
}

namespace {

/// Where one block of output channels finds its weights: channel c's tap
/// j (j = ic * k * k + ky * k + kx, the reference order) sits at
/// base[j * tap + c * ch]. A wide panel group has tap == kWideConvLanes,
/// ch == 1; live tail channels have tap == 1, ch == patch.
struct WeightBlock {
  const float* base;
  std::size_t tap;
  std::size_t ch;
};

}  // namespace

bool conv2d_direct_scalar(const float* panel, const float* wt,
                          const float* bias, const Conv2dGeom& g,
                          const float* in, float* out, Epilogue ep,
                          bool check) noexcept {
  bool ok = true;
  const std::size_t oh = g.out_h(), ow = g.out_w(), opix = oh * ow;
  const std::size_t patch = g.patch(), kk = g.k * g.k;
  const std::size_t full = g.out_c / kWideConvLanes * kWideConvLanes;
  const std::size_t gstride = align_up(patch * kWideConvLanes);
  for (std::size_t oc = 0; oc < g.out_c; ++oc) {
    const WeightBlock w =
        oc < full ? WeightBlock{panel + oc / kWideConvLanes * gstride +
                                    oc % kWideConvLanes,
                                kWideConvLanes, 1}
                  : WeightBlock{wt + oc * patch, 1, patch};
    float* o = out + oc * opix;
    // One serial chain per output pixel: bias, then the valid taps in
    // (ic, ky, kx) order — the tree every SIMD arm reproduces per lane.
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        float acc = bias[oc];
        for (std::size_t ic = 0; ic < g.in_c; ++ic) {
          const float* ich = in + ic * g.in_h * g.in_w;
          for (std::size_t ky = 0; ky < g.k; ++ky) {
            const std::size_t iy = oy * g.stride + ky;
            if (iy < g.pad || iy - g.pad >= g.in_h) continue;
            const float* irow = ich + (iy - g.pad) * g.in_w;
            const float* wrow = w.base + (ic * kk + ky * g.k) * w.tap;
            for (std::size_t kx = 0; kx < g.k; ++kx) {
              const std::size_t ix = ox * g.stride + kx;
              if (ix < g.pad || ix - g.pad >= g.in_w) continue;
              acc += wrow[kx * w.tap] * irow[ix - g.pad];
            }
          }
        }
        ok = finish(acc, o + oy * ow + ox, ep, check, ok);
      }
    }
  }
  return ok;
}

#if SX_WIDE_X86

namespace {

/// `row + ix` for a possibly negative ix, formed in integer arithmetic:
/// a masked load takes it as the address of lane 0 while touching only
/// the unmasked lanes, all of which lie inside the row.
inline const float* lane0_ptr(const float* row, std::size_t ox0,
                              const Conv2dGeom& g, std::size_t kx) noexcept {
  const std::ptrdiff_t ix0 = static_cast<std::ptrdiff_t>(ox0 + kx) -
                             static_cast<std::ptrdiff_t>(g.pad);
  return reinterpret_cast<const float*>(
      reinterpret_cast<std::uintptr_t>(row) +
      static_cast<std::uintptr_t>(ix0 * static_cast<std::ptrdiff_t>(
                                            sizeof(float))));
}

// ---------------------------------------------------------- avx512 arm

// Full-mask maskz forms stand in for the unmasked AVX-512 intrinsics
// whose _mm512_undefined_* passthrough trips GCC's -Wmaybe-uninitialized;
// they are the same instructions.
constexpr __mmask16 kAll16 = 0xFFFF;

/// acc += w * x on the lanes of m only; the other lanes keep acc
/// bitwise (two roundings: this TU is built without contraction).
__attribute__((target("avx512f"), always_inline)) inline void tap16(
    __m512& acc, __mmask16 m, float w, __m512 x) noexcept {
  acc = _mm512_mask_add_ps(acc, m, acc, _mm512_mul_ps(_mm512_set1_ps(w), x));
}

/// Stores lanes [0, n) of a finished chunk: the pre-activation screen
/// (acc * 0 == 0 exactly when acc is finite), then the epilogue. ReLU is
/// max(acc, 0), whose operand order gives `acc > 0 ? acc : 0` for NaN
/// and -0 too; sigmoid/tanh run the scalar epilogue per lane.
__attribute__((target("avx512f"))) inline bool store16(
    __m512 acc, float* o, std::size_t n, Epilogue ep, bool check,
    bool ok) noexcept {
  const auto live = static_cast<__mmask16>((1u << n) - 1u);
  const __m512 zero = _mm512_setzero_ps();
  if (check &&
      _mm512_mask_cmp_ps_mask(live, _mm512_mul_ps(acc, zero), zero,
                              _CMP_EQ_OQ) != live)
    ok = false;
  if (ep == Epilogue::kNone) {
    _mm512_mask_storeu_ps(o, live, acc);
  } else if (ep == Epilogue::kRelu) {
    _mm512_mask_storeu_ps(o, live, _mm512_maskz_max_ps(kAll16, acc, zero));
  } else {
    alignas(64) float t[16];
    _mm512_store_ps(t, acc);
    for (std::size_t l = 0; l < n; ++l) o[l] = apply_epilogue(t[l], ep);
  }
  return ok;
}

/// kOc output channels (1..8) over every output pixel, 16 pixels of one
/// row per chunk, one named accumulator per channel. kPanel blocks read
/// a wide panel group (tap-major, so the channel offsets are constants);
/// the others read live weight rows w.ch floats apart.
template <std::size_t kOc, bool kPanel>
__attribute__((target("avx512f"))) bool direct_block_avx512(
    WeightBlock w, const float* bias, const Conv2dGeom& g, const float* in,
    float* out, Epilogue ep, bool check, bool ok) noexcept {
  const std::size_t oh = g.out_h(), ow = g.out_w(), opix = oh * ow;
  const std::size_t kk = g.k * g.k, plane = g.in_h * g.in_w;
  const std::size_t tap = kPanel ? kWideConvLanes : 1;
  const std::size_t ch = kPanel ? 1 : w.ch;
  detail::LaneCache lanes;
  for (std::size_t oy = 0; oy < oh; ++oy) {
    for (std::size_t ox0 = 0; ox0 < ow; ox0 += 16) {
      const std::size_t n = ow - ox0 < 16 ? ow - ox0 : 16;
      lanes.fill(g, ox0, n);
      __m512 a0, a1, a2, a3, a4, a5, a6, a7;
      a0 = _mm512_set1_ps(bias[0]);
      if constexpr (kOc > 1) a1 = _mm512_set1_ps(bias[1]);
      if constexpr (kOc > 2) a2 = _mm512_set1_ps(bias[2]);
      if constexpr (kOc > 3) a3 = _mm512_set1_ps(bias[3]);
      if constexpr (kOc > 4) a4 = _mm512_set1_ps(bias[4]);
      if constexpr (kOc > 5) a5 = _mm512_set1_ps(bias[5]);
      if constexpr (kOc > 6) a6 = _mm512_set1_ps(bias[6]);
      if constexpr (kOc > 7) a7 = _mm512_set1_ps(bias[7]);
      for (std::size_t ic = 0; ic < g.in_c; ++ic) {
        for (std::size_t ky = 0; ky < g.k; ++ky) {
          const std::size_t iy = oy * g.stride + ky;
          if (iy < g.pad || iy - g.pad >= g.in_h) continue;
          const float* irow = in + ic * plane + (iy - g.pad) * g.in_w;
          const float* wrow = w.base + (ic * kk + ky * g.k) * tap;
          for (std::size_t kx = 0; kx < g.k; ++kx) {
            const std::uint32_t bits = lanes.at(g, ox0, n, kx);
            if (bits == 0) continue;  // an empty mask adds nothing
            const auto m = static_cast<__mmask16>(bits);
            __m512 x;
            if (g.stride == 1) {
              x = _mm512_maskz_loadu_ps(m, lane0_ptr(irow, ox0, g, kx));
            } else {
              alignas(64) float buf[16];
              detail::fill_lanes<16>(irow, ox0, g, kx, bits, buf);
              x = _mm512_load_ps(buf);
            }
            const float* wj = wrow + kx * tap;
            tap16(a0, m, wj[0], x);
            if constexpr (kOc > 1) tap16(a1, m, wj[ch], x);
            if constexpr (kOc > 2) tap16(a2, m, wj[2 * ch], x);
            if constexpr (kOc > 3) tap16(a3, m, wj[3 * ch], x);
            if constexpr (kOc > 4) tap16(a4, m, wj[4 * ch], x);
            if constexpr (kOc > 5) tap16(a5, m, wj[5 * ch], x);
            if constexpr (kOc > 6) tap16(a6, m, wj[6 * ch], x);
            if constexpr (kOc > 7) tap16(a7, m, wj[7 * ch], x);
          }
        }
      }
      float* o = out + oy * ow + ox0;
      ok = store16(a0, o, n, ep, check, ok);
      if constexpr (kOc > 1) ok = store16(a1, o + opix, n, ep, check, ok);
      if constexpr (kOc > 2) ok = store16(a2, o + 2 * opix, n, ep, check, ok);
      if constexpr (kOc > 3) ok = store16(a3, o + 3 * opix, n, ep, check, ok);
      if constexpr (kOc > 4) ok = store16(a4, o + 4 * opix, n, ep, check, ok);
      if constexpr (kOc > 5) ok = store16(a5, o + 5 * opix, n, ep, check, ok);
      if constexpr (kOc > 6) ok = store16(a6, o + 6 * opix, n, ep, check, ok);
      if constexpr (kOc > 7) ok = store16(a7, o + 7 * opix, n, ep, check, ok);
    }
  }
  return ok;
}

// ------------------------------------------------------------ avx2 arm

/// The lane bits as an AVX2 blend mask (all-ones lanes where set).
__attribute__((target("avx2"))) inline __m256 mask8(
    std::uint32_t bits) noexcept {
  const __m256i lane = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  return _mm256_castsi256_ps(_mm256_cmpeq_epi32(
      _mm256_and_si256(_mm256_set1_epi32(static_cast<int>(bits)), lane),
      lane));
}

/// acc += w * x on the lanes of m only (blend keeps the others bitwise).
__attribute__((target("avx2"), always_inline)) inline void tap8(
    __m256& acc, __m256 m, float w, __m256 x) noexcept {
  acc = _mm256_blendv_ps(
      acc, _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(w), x)), m);
}

/// store16's 8-lane twin.
__attribute__((target("avx2"))) inline bool store8(__m256 acc, float* o,
                                                   std::size_t n, Epilogue ep,
                                                   bool check,
                                                   bool ok) noexcept {
  const __m256 zero = _mm256_setzero_ps();
  alignas(32) float t[8];
  if (check) {
    const int fin = _mm256_movemask_ps(
        _mm256_cmp_ps(_mm256_mul_ps(acc, zero), zero, _CMP_EQ_OQ));
    const int live = (1 << n) - 1;
    if ((fin & live) != live) ok = false;
  }
  if (ep == Epilogue::kNone || ep == Epilogue::kRelu) {
    const __m256 v = ep == Epilogue::kRelu ? _mm256_max_ps(acc, zero) : acc;
    if (n == 8) {
      _mm256_storeu_ps(o, v);
      return ok;
    }
    _mm256_store_ps(t, v);
    for (std::size_t l = 0; l < n; ++l) o[l] = t[l];
  } else {
    _mm256_store_ps(t, acc);
    for (std::size_t l = 0; l < n; ++l) o[l] = apply_epilogue(t[l], ep);
  }
  return ok;
}

/// direct_block_avx512's 8-lane twin.
template <std::size_t kOc, bool kPanel>
__attribute__((target("avx2"))) bool direct_block_avx2(
    WeightBlock w, const float* bias, const Conv2dGeom& g, const float* in,
    float* out, Epilogue ep, bool check, bool ok) noexcept {
  const std::size_t oh = g.out_h(), ow = g.out_w(), opix = oh * ow;
  const std::size_t kk = g.k * g.k, plane = g.in_h * g.in_w;
  const std::size_t tap = kPanel ? kWideConvLanes : 1;
  const std::size_t ch = kPanel ? 1 : w.ch;
  detail::LaneCache lanes;
  for (std::size_t oy = 0; oy < oh; ++oy) {
    for (std::size_t ox0 = 0; ox0 < ow; ox0 += 8) {
      const std::size_t n = ow - ox0 < 8 ? ow - ox0 : 8;
      lanes.fill(g, ox0, n);
      __m256 a0, a1, a2, a3, a4, a5, a6, a7;
      a0 = _mm256_set1_ps(bias[0]);
      if constexpr (kOc > 1) a1 = _mm256_set1_ps(bias[1]);
      if constexpr (kOc > 2) a2 = _mm256_set1_ps(bias[2]);
      if constexpr (kOc > 3) a3 = _mm256_set1_ps(bias[3]);
      if constexpr (kOc > 4) a4 = _mm256_set1_ps(bias[4]);
      if constexpr (kOc > 5) a5 = _mm256_set1_ps(bias[5]);
      if constexpr (kOc > 6) a6 = _mm256_set1_ps(bias[6]);
      if constexpr (kOc > 7) a7 = _mm256_set1_ps(bias[7]);
      for (std::size_t ic = 0; ic < g.in_c; ++ic) {
        for (std::size_t ky = 0; ky < g.k; ++ky) {
          const std::size_t iy = oy * g.stride + ky;
          if (iy < g.pad || iy - g.pad >= g.in_h) continue;
          const float* irow = in + ic * plane + (iy - g.pad) * g.in_w;
          const float* wrow = w.base + (ic * kk + ky * g.k) * tap;
          for (std::size_t kx = 0; kx < g.k; ++kx) {
            const std::uint32_t bits = lanes.at(g, ox0, n, kx);
            if (bits == 0) continue;
            const __m256 m = mask8(bits);
            __m256 x;
            if (g.stride == 1) {
              x = _mm256_maskload_ps(lane0_ptr(irow, ox0, g, kx),
                                     _mm256_castps_si256(m));
            } else {
              alignas(32) float buf[8];
              detail::fill_lanes<8>(irow, ox0, g, kx, bits, buf);
              x = _mm256_load_ps(buf);
            }
            const float* wj = wrow + kx * tap;
            tap8(a0, m, wj[0], x);
            if constexpr (kOc > 1) tap8(a1, m, wj[ch], x);
            if constexpr (kOc > 2) tap8(a2, m, wj[2 * ch], x);
            if constexpr (kOc > 3) tap8(a3, m, wj[3 * ch], x);
            if constexpr (kOc > 4) tap8(a4, m, wj[4 * ch], x);
            if constexpr (kOc > 5) tap8(a5, m, wj[5 * ch], x);
            if constexpr (kOc > 6) tap8(a6, m, wj[6 * ch], x);
            if constexpr (kOc > 7) tap8(a7, m, wj[7 * ch], x);
          }
        }
      }
      float* o = out + oy * ow + ox0;
      ok = store8(a0, o, n, ep, check, ok);
      if constexpr (kOc > 1) ok = store8(a1, o + opix, n, ep, check, ok);
      if constexpr (kOc > 2) ok = store8(a2, o + 2 * opix, n, ep, check, ok);
      if constexpr (kOc > 3) ok = store8(a3, o + 3 * opix, n, ep, check, ok);
      if constexpr (kOc > 4) ok = store8(a4, o + 4 * opix, n, ep, check, ok);
      if constexpr (kOc > 5) ok = store8(a5, o + 5 * opix, n, ep, check, ok);
      if constexpr (kOc > 6) ok = store8(a6, o + 6 * opix, n, ep, check, ok);
      if constexpr (kOc > 7) ok = store8(a7, o + 7 * opix, n, ep, check, ok);
    }
  }
  return ok;
}

using DirectBlockFn = bool (*)(WeightBlock, const float*, const Conv2dGeom&,
                               const float*, float*, Epilogue, bool,
                               bool) noexcept;

/// One lane family's blocks: the 8-channel panel-group block, and the
/// live-weight blocks by channel count (live[c] runs c channels).
struct DirectBlocks {
  DirectBlockFn panel;
  DirectBlockFn live[kWideConvLanes + 1];
};

/// Walks the output channels in blocks: each full panel group as one
/// 8-channel block, then the tail channels from the live weights.
bool direct_conv(const DirectBlocks& blocks, const float* panel,
                 const float* wt, const float* bias, const Conv2dGeom& g,
                 const float* in, float* out, Epilogue ep,
                 bool check) noexcept {
  bool ok = true;
  const std::size_t opix = g.opix(), patch = g.patch();
  const std::size_t groups = g.out_c / kWideConvLanes;
  const std::size_t gstride = align_up(patch * kWideConvLanes);
  for (std::size_t grp = 0; grp < groups; ++grp) {
    const std::size_t oc = grp * kWideConvLanes;
    ok = blocks.panel(WeightBlock{panel + grp * gstride, kWideConvLanes, 1},
                      bias + oc, g, in, out + oc * opix, ep, check, ok);
  }
  const std::size_t oc = groups * kWideConvLanes;
  if (oc < g.out_c)
    ok = blocks.live[g.out_c - oc](WeightBlock{wt + oc * patch, 1, patch},
                                   bias + oc, g, in, out + oc * opix, ep,
                                   check, ok);
  return ok;
}

constexpr DirectBlocks kBlocks512{
    &direct_block_avx512<8, true>,
    {nullptr, &direct_block_avx512<1, false>, &direct_block_avx512<2, false>,
     &direct_block_avx512<3, false>, &direct_block_avx512<4, false>,
     &direct_block_avx512<5, false>, &direct_block_avx512<6, false>,
     &direct_block_avx512<7, false>, &direct_block_avx512<8, false>}};

constexpr DirectBlocks kBlocks256{
    &direct_block_avx2<8, true>,
    {nullptr, &direct_block_avx2<1, false>, &direct_block_avx2<2, false>,
     &direct_block_avx2<3, false>, &direct_block_avx2<4, false>,
     &direct_block_avx2<5, false>, &direct_block_avx2<6, false>,
     &direct_block_avx2<7, false>, &direct_block_avx2<8, false>}};

}  // namespace

bool conv2d_direct_avx2(const float* panel, const float* wt,
                        const float* bias, const Conv2dGeom& g,
                        const float* in, float* out, Epilogue ep,
                        bool check) noexcept {
  return direct_conv(kBlocks256, panel, wt, bias, g, in, out, ep, check);
}

bool conv2d_direct_avx512(const float* panel, const float* wt,
                          const float* bias, const Conv2dGeom& g,
                          const float* in, float* out, Epilogue ep,
                          bool check) noexcept {
  return direct_conv(kBlocks512, panel, wt, bias, g, in, out, ep, check);
}

#else  // !SX_WIDE_X86

bool conv2d_direct_avx2(const float* panel, const float* wt,
                        const float* bias, const Conv2dGeom& g,
                        const float* in, float* out, Epilogue ep,
                        bool check) noexcept {
  return conv2d_direct_scalar(panel, wt, bias, g, in, out, ep, check);
}

bool conv2d_direct_avx512(const float* panel, const float* wt,
                          const float* bias, const Conv2dGeom& g,
                          const float* in, float* out, Epilogue ep,
                          bool check) noexcept {
  return conv2d_direct_scalar(panel, wt, bias, g, in, out, ep, check);
}

#endif  // SX_WIDE_X86

DenseKernelFn wide_dense_kernel(WideIsa isa) noexcept {
  switch (isa) {
    case WideIsa::kAvx2: return &matvec_wide_avx2;
    case WideIsa::kAvx512: return &matvec_wide_avx512;
    case WideIsa::kScalar: break;
  }
  return &matvec_wide_scalar;
}

DirectConvKernelFn wide_conv_kernel(WideIsa isa) noexcept {
  switch (isa) {
    case WideIsa::kAvx2: return &conv2d_direct_avx2;
    case WideIsa::kAvx512: return &conv2d_direct_avx512;
    case WideIsa::kScalar: break;
  }
  return &conv2d_direct_scalar;
}

}  // namespace sx::tensor::kernels
