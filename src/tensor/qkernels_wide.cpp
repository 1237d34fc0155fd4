// kWide int8 microkernels: widened int8 x int8 -> int32 dot products with
// fused requantize. 32-row Dense blocks and direct Conv2d (consecutive
// output pixels in the lanes, 8-channel register blocks) in three variants
// — portable scalar twin, AVX2-class (8-byte sign-extended lane loads into
// 256-bit int32 accumulators), AVX-512-class (16-byte lane loads into
// 512-bit accumulators; AVX-512F instructions only, as the probe attests
// nothing more).
//
// Determinism contract: one output element is always one serial int32
// chain in strict reference order (ascending columns / table-order taps).
// The SIMD variants sign-extend each int8 lane load to int32
// (__builtin_convertvector) and fold the broadcast multiplicand into each
// lane's own accumulator only — no horizontal reductions, no partial-sum
// restructuring — so the per-chain sequence of int32 additions, and hence
// the overflow envelope, is *identical* to the scalar twin and to the
// audited reference loop in dl/quant.cpp. Int32 accumulation of in-range
// products is exact, so bitwise identity across variants follows by
// construction; dl_quant_kernels_wide_test proves it differentially.
//
// This TU is compiled with -ffp-contract=off alongside kernels_wide.cpp;
// the requantize epilogue is float math and must keep the reference's
// two-rounding a*b+c shape.
#include <cstdint>

#include "tensor/kernels_detail.hpp"
#include "tensor/qkernels.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define SX_QWIDE_X86 1
#include <immintrin.h>
#else
#define SX_QWIDE_X86 0
#endif

namespace sx::tensor::qkernels {

namespace {

typedef std::int32_t v8si __attribute__((vector_size(32)));
typedef std::int32_t v16si __attribute__((vector_size(64)));

/// Scalar tail block of the wide Dense kernel (rows % kQWideRowBlock,
/// interleaved at its own row count) — shared by every variant.
inline void qwide_dense_tail(const std::int8_t* blk, std::size_t r0,
                             std::size_t tail, std::size_t cols,
                             const std::int8_t* x, const Requant& rq,
                             std::int8_t* out, std::uint64_t* sat) noexcept {
  std::int32_t acc[kQWideRowBlock - 1] = {};
  for (std::size_t c = 0; c < cols; ++c) {
    const std::int32_t xv = x[c];
    const std::int8_t* lane = blk + c * tail;
    for (std::size_t i = 0; i < tail; ++i)
      acc[i] += static_cast<std::int32_t>(lane[i]) * xv;
  }
  for (std::size_t i = 0; i < tail; ++i)
    out[r0 + i] = requantize(acc[i], r0 + i, rq, sat);
}

}  // namespace

std::size_t qwide_dense_panel_bytes(std::size_t rows,
                                    std::size_t cols) noexcept {
  const std::size_t full = rows / kQWideRowBlock;
  const std::size_t tail = rows % kQWideRowBlock;
  std::size_t bytes = full * align_up_bytes(kQWideRowBlock * cols);
  if (tail != 0) bytes += align_up_bytes(tail * cols);
  return bytes;
}

void pack_qwide_dense_panel(const std::int8_t* w, std::size_t rows,
                            std::size_t cols, std::int8_t* panel) noexcept {
  const std::size_t total = qwide_dense_panel_bytes(rows, cols);
  for (std::size_t i = 0; i < total; ++i) panel[i] = 0;  // padding
  const std::size_t full = rows / kQWideRowBlock;
  const std::size_t tail = rows % kQWideRowBlock;
  const std::size_t full_stride = align_up_bytes(kQWideRowBlock * cols);
  for (std::size_t b = 0; b < full; ++b) {
    std::int8_t* blk = panel + b * full_stride;
    const std::int8_t* wb = w + b * kQWideRowBlock * cols;
    for (std::size_t c = 0; c < cols; ++c)
      for (std::size_t i = 0; i < kQWideRowBlock; ++i)
        blk[c * kQWideRowBlock + i] = wb[i * cols + c];
  }
  if (tail != 0) {
    std::int8_t* blk = panel + full * full_stride;
    const std::int8_t* wb = w + full * kQWideRowBlock * cols;
    for (std::size_t c = 0; c < cols; ++c)
      for (std::size_t i = 0; i < tail; ++i)
        blk[c * tail + i] = wb[i * cols + c];
  }
}

void qmatvec_wide_scalar(const std::int8_t* panel, std::size_t rows,
                         std::size_t cols, const std::int8_t* x,
                         const Requant& rq, std::int8_t* out,
                         std::uint64_t* sat) noexcept {
  const std::size_t full = rows / kQWideRowBlock;
  const std::size_t tail = rows % kQWideRowBlock;
  const std::size_t full_stride = align_up_bytes(kQWideRowBlock * cols);
  for (std::size_t b = 0; b < full; ++b) {
    const std::int8_t* blk = panel + b * full_stride;
    const std::size_t r = b * kQWideRowBlock;
    // Thirty-two independent int32 chains; chain r+i sums its columns in
    // strict ascending order — the exact tree the SIMD variants compute.
    std::int32_t acc[kQWideRowBlock] = {};
    const std::int8_t* lane = blk;
    for (std::size_t c = 0; c < cols; ++c, lane += kQWideRowBlock) {
      const std::int32_t xv = x[c];
      for (std::size_t i = 0; i < kQWideRowBlock; ++i)
        acc[i] += static_cast<std::int32_t>(lane[i]) * xv;
    }
    for (std::size_t i = 0; i < kQWideRowBlock; ++i)
      out[r + i] = requantize(acc[i], r + i, rq, sat);
  }
  if (tail != 0)
    qwide_dense_tail(panel + full * full_stride, full * kQWideRowBlock,
                     tail, cols, x, rq, out, sat);
}

#if SX_QWIDE_X86

namespace {

// The sign-extending lane loads use the vpmovsxbd intrinsics directly:
// GCC scalarizes a generic __builtin_convertvector from int8 to int32
// (one movsbl + insert per lane), which is slower than the scalar twin.
// The value is identical either way — sign extension is exact — only the
// instruction selection changes.
__attribute__((target("avx2"))) inline v8si v8si_sx(
    const std::int8_t* p) noexcept {
  const __m256i w = _mm256_cvtepi8_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
  v8si v;
  __builtin_memcpy(&v, &w, sizeof v);
  return v;
}

// maskz with an all-ones mask (not _mm512_cvtepi8_epi32): the unmasked
// intrinsic's _mm512_undefined_epi32 passthrough trips GCC's
// -Wmaybe-uninitialized; a full maskz select is the same vpmovsxbd.
__attribute__((target("avx512f"))) inline v16si v16si_sx(
    const std::int8_t* p) noexcept {
  const __m512i w = _mm512_maskz_cvtepi8_epi32(
      static_cast<__mmask16>(-1),
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  v16si v;
  __builtin_memcpy(&v, &w, sizeof v);
  return v;
}

}  // namespace

__attribute__((target("avx2")))
void qmatvec_wide_avx2(const std::int8_t* panel, std::size_t rows,
                       std::size_t cols, const std::int8_t* x,
                       const Requant& rq, std::int8_t* out,
                       std::uint64_t* sat) noexcept {
  const std::size_t full = rows / kQWideRowBlock;
  const std::size_t tail = rows % kQWideRowBlock;
  const std::size_t full_stride = align_up_bytes(kQWideRowBlock * cols);
  for (std::size_t b = 0; b < full; ++b) {
    const std::int8_t* blk = panel + b * full_stride;
    const std::size_t r = b * kQWideRowBlock;
    // Four 8-lane int32 accumulators carry the 32 chains. Each column
    // sign-extends its 8-byte lane quarters and folds the broadcast
    // multiplicand vertically — per-chain addition order is untouched.
    v8si a0 = {}, a1 = {}, a2 = {}, a3 = {};
    const std::int8_t* lane = blk;
    for (std::size_t c = 0; c < cols; ++c, lane += kQWideRowBlock) {
      const v8si xv = v8si{} + static_cast<std::int32_t>(x[c]);
      a0 += v8si_sx(lane) * xv;
      a1 += v8si_sx(lane + 8) * xv;
      a2 += v8si_sx(lane + 16) * xv;
      a3 += v8si_sx(lane + 24) * xv;
    }
    std::int32_t acc[kQWideRowBlock];
    __builtin_memcpy(acc, &a0, sizeof a0);
    __builtin_memcpy(acc + 8, &a1, sizeof a1);
    __builtin_memcpy(acc + 16, &a2, sizeof a2);
    __builtin_memcpy(acc + 24, &a3, sizeof a3);
    for (std::size_t i = 0; i < kQWideRowBlock; ++i)
      out[r + i] = requantize(acc[i], r + i, rq, sat);
  }
  if (tail != 0)
    qwide_dense_tail(panel + full * full_stride, full * kQWideRowBlock,
                     tail, cols, x, rq, out, sat);
}

__attribute__((target("avx512f")))
void qmatvec_wide_avx512(const std::int8_t* panel, std::size_t rows,
                         std::size_t cols, const std::int8_t* x,
                         const Requant& rq, std::int8_t* out,
                         std::uint64_t* sat) noexcept {
  const std::size_t full = rows / kQWideRowBlock;
  const std::size_t tail = rows % kQWideRowBlock;
  const std::size_t full_stride = align_up_bytes(kQWideRowBlock * cols);
  for (std::size_t b = 0; b < full; ++b) {
    const std::int8_t* blk = panel + b * full_stride;
    const std::size_t r = b * kQWideRowBlock;
    // Two 16-lane int32 accumulators; 16-byte sign-extended lane loads.
    v16si lo = {}, hi = {};
    const std::int8_t* lane = blk;
    for (std::size_t c = 0; c < cols; ++c, lane += kQWideRowBlock) {
      const v16si xv = v16si{} + static_cast<std::int32_t>(x[c]);
      lo += v16si_sx(lane) * xv;
      hi += v16si_sx(lane + 16) * xv;
    }
    std::int32_t acc[kQWideRowBlock];
    __builtin_memcpy(acc, &lo, sizeof lo);
    __builtin_memcpy(acc + 16, &hi, sizeof hi);
    for (std::size_t i = 0; i < kQWideRowBlock; ++i)
      out[r + i] = requantize(acc[i], r + i, rq, sat);
  }
  if (tail != 0)
    qwide_dense_tail(panel + full * full_stride, full * kQWideRowBlock,
                     tail, cols, x, rq, out, sat);
}

#else  // !SX_QWIDE_X86: the SIMD entry points are the twin itself.

void qmatvec_wide_avx2(const std::int8_t* panel, std::size_t rows,
                       std::size_t cols, const std::int8_t* x,
                       const Requant& rq, std::int8_t* out,
                       std::uint64_t* sat) noexcept {
  qmatvec_wide_scalar(panel, rows, cols, x, rq, out, sat);
}

void qmatvec_wide_avx512(const std::int8_t* panel, std::size_t rows,
                         std::size_t cols, const std::int8_t* x,
                         const Requant& rq, std::int8_t* out,
                         std::uint64_t* sat) noexcept {
  qmatvec_wide_scalar(panel, rows, cols, x, rq, out, sat);
}

#endif  // SX_QWIDE_X86

std::size_t qwide_conv_panel_bytes(std::size_t out_c,
                                   std::size_t patch) noexcept {
  return (out_c / kQWideConvLanes) * align_up_bytes(patch * kQWideConvLanes);
}

void pack_qwide_conv_panel(const std::int8_t* wt, std::size_t out_c,
                           std::size_t patch, std::int8_t* panel) noexcept {
  const std::size_t total = qwide_conv_panel_bytes(out_c, patch);
  for (std::size_t i = 0; i < total; ++i) panel[i] = 0;  // padding
  const std::size_t gstride = align_up_bytes(patch * kQWideConvLanes);
  for (std::size_t g = 0; g < out_c / kQWideConvLanes; ++g) {
    std::int8_t* gp = panel + g * gstride;
    for (std::size_t j = 0; j < patch; ++j)
      for (std::size_t i = 0; i < kQWideConvLanes; ++i)
        gp[j * kQWideConvLanes + i] =
            wt[(g * kQWideConvLanes + i) * patch + j];
  }
}

namespace {

/// Where one block of output channels finds its int8 weights: channel
/// c's tap j sits at base[j * tap + c * ch] (a wide panel half-group:
/// tap == kQWideConvLanes, ch == 1; live tail channels: tap == 1,
/// ch == patch).
struct QWeightBlock {
  const std::int8_t* base;
  std::size_t tap;
  std::size_t ch;
};

}  // namespace

void qconv2d_direct_scalar(const std::int8_t* panel, const std::int8_t* wt,
                           const kernels::Conv2dGeom& g,
                           const std::int8_t* in, const Requant& rq,
                           std::int8_t* out, std::uint64_t* sat) noexcept {
  const std::size_t oh = g.out_h(), ow = g.out_w(), opix = oh * ow;
  const std::size_t patch = g.patch(), kk = g.k * g.k;
  const std::size_t full = g.out_c / kQWideConvLanes * kQWideConvLanes;
  const std::size_t gstride = align_up_bytes(patch * kQWideConvLanes);
  for (std::size_t oc = 0; oc < g.out_c; ++oc) {
    const QWeightBlock w =
        oc < full ? QWeightBlock{panel + oc / kQWideConvLanes * gstride +
                                     oc % kQWideConvLanes,
                                 kQWideConvLanes, 1}
                  : QWeightBlock{wt + oc * patch, 1, patch};
    std::int8_t* o = out + oc * opix;
    // One serial int32 chain per output pixel over the valid taps in
    // (ic, ky, kx) order — the tree every SIMD arm reproduces per lane.
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        std::int32_t acc = 0;
        for (std::size_t ic = 0; ic < g.in_c; ++ic) {
          const std::int8_t* ich = in + ic * g.in_h * g.in_w;
          for (std::size_t ky = 0; ky < g.k; ++ky) {
            const std::size_t iy = oy * g.stride + ky;
            if (iy < g.pad || iy - g.pad >= g.in_h) continue;
            const std::int8_t* irow = ich + (iy - g.pad) * g.in_w;
            const std::int8_t* wrow = w.base + (ic * kk + ky * g.k) * w.tap;
            for (std::size_t kx = 0; kx < g.k; ++kx) {
              const std::size_t ix = ox * g.stride + kx;
              if (ix < g.pad || ix - g.pad >= g.in_w) continue;
              acc += static_cast<std::int32_t>(wrow[kx * w.tap]) *
                     static_cast<std::int32_t>(irow[ix - g.pad]);
            }
          }
        }
        o[oy * ow + ox] = requantize(acc, oc, rq, sat);
      }
    }
  }
}

#if SX_QWIDE_X86

namespace {

/// Address of lane 0's input byte for a unit-stride chunk, or null when
/// a kLanes-byte load from it would leave [in, in_end): the caller then
/// takes the bounded copy (detail::fill_lanes) instead.
template <std::size_t kLanes>
inline const std::int8_t* unit_stride_lane0(const std::int8_t* row,
                                            std::size_t ox0,
                                            const kernels::Conv2dGeom& g,
                                            std::size_t kx,
                                            const std::int8_t* in,
                                            const std::int8_t* in_end) noexcept {
  if (g.stride != 1) return nullptr;
  const std::uintptr_t p =
      reinterpret_cast<std::uintptr_t>(row) + ox0 + kx - g.pad;
  if (p < reinterpret_cast<std::uintptr_t>(in) ||
      p + kLanes > reinterpret_cast<std::uintptr_t>(in_end))
    return nullptr;
  return reinterpret_cast<const std::int8_t*>(p);
}

// ---------------------------------------------------------- avx512 arm

// Full-mask maskz forms stand in for the unmasked AVX-512 intrinsics
// whose _mm512_undefined_* passthrough trips GCC's -Wmaybe-uninitialized;
// they are the same instructions.
constexpr __mmask16 kAll16 = 0xFFFF;

/// The chunk's inputs for tap column kx, sign-extended to int32 lanes;
/// lanes outside `bits` are 0 (vpmovsxbd's zero-masking — AVX-512F only).
__attribute__((target("avx512f"))) inline __m512i qload16(
    const std::int8_t* row, std::size_t ox0, const kernels::Conv2dGeom& g,
    std::size_t kx, std::uint32_t bits, const std::int8_t* in,
    const std::int8_t* in_end) noexcept {
  const auto m = static_cast<__mmask16>(bits);
  if (const std::int8_t* p =
          unit_stride_lane0<16>(row, ox0, g, kx, in, in_end))
    return _mm512_maskz_cvtepi8_epi32(
        m, _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  alignas(16) std::int8_t buf[16];
  kernels::detail::fill_lanes<16>(row, ox0, g, kx, bits, buf);
  return _mm512_maskz_cvtepi8_epi32(
      m, _mm_load_si128(reinterpret_cast<const __m128i*>(buf)));
}

__attribute__((target("avx512f"), always_inline)) inline void qtap16(
    __m512i& acc, std::int8_t w, __m512i x) noexcept {
  acc = _mm512_add_epi32(
      acc, _mm512_mullo_epi32(_mm512_set1_epi32(static_cast<int>(w)), x));
}

/// requantize() for lanes [0, n) of one channel's chunk: the reference
/// expression lane-wise (float(acc) * ws * in_scale + bias, / out_scale,
/// round half away), clipped before the cast, clips counted from the
/// masks, optional ReLU, narrowed by vpmovdb's masked store.
__attribute__((target("avx512f"))) inline void requant16(
    __m512i acc, std::size_t ch, const Requant& rq, std::int8_t* o,
    std::size_t n, std::uint64_t* sat) noexcept {
  const auto live = static_cast<__mmask16>((1u << n) - 1u);
  const float ws = rq.per_channel ? rq.w_scales[ch] : rq.w_scales[0];
  __m512 v = _mm512_mul_ps(_mm512_maskz_cvtepi32_ps(kAll16, acc),
                           _mm512_set1_ps(ws));
  v = _mm512_mul_ps(v, _mm512_set1_ps(rq.in_scale));
  v = _mm512_add_ps(v, _mm512_set1_ps(rq.bias[ch]));
  const __m512 q = _mm512_div_ps(v, _mm512_set1_ps(rq.out_scale));
  const __m512 half = _mm512_set1_ps(0.5f);
  const __mmask16 ge0 =
      _mm512_cmp_ps_mask(q, _mm512_setzero_ps(), _CMP_GE_OQ);
  const __m512 r = _mm512_mask_blend_ps(ge0, _mm512_sub_ps(q, half),
                                        _mm512_add_ps(q, half));
  const auto hi = static_cast<__mmask16>(
      ~_mm512_cmp_ps_mask(r, _mm512_set1_ps(128.0f), _CMP_LT_OQ) & live);
  const auto lo = static_cast<__mmask16>(
      _mm512_cmp_ps_mask(r, _mm512_set1_ps(-128.0f), _CMP_LE_OQ) & live);
  if (sat != nullptr)
    *sat += static_cast<std::uint64_t>(
        __builtin_popcount(static_cast<unsigned>(hi | lo)));
  __m512 c = _mm512_mask_blend_ps(hi, r, _mm512_set1_ps(127.0f));
  c = _mm512_mask_blend_ps(lo, c, _mm512_set1_ps(-127.0f));
  __m512i qi = _mm512_maskz_cvttps_epi32(kAll16, c);
  if (rq.relu) qi = _mm512_maskz_max_epi32(kAll16, qi, _mm512_setzero_si512());
  _mm512_mask_cvtepi32_storeu_epi8(o, live, qi);
}

/// kOc output channels (1..8) over every output pixel, 16 pixels of one
/// row per chunk, one named int32 accumulator per channel. kPanel blocks
/// read half a wide panel group (constant channel offsets), the others
/// live weight rows w.ch bytes apart.
template <std::size_t kOc, bool kPanel>
__attribute__((target("avx512f"))) void qdirect_block_avx512(
    QWeightBlock w, std::size_t oc0, const kernels::Conv2dGeom& g,
    const std::int8_t* in, const Requant& rq, std::int8_t* out,
    std::uint64_t* sat) noexcept {
  const std::size_t oh = g.out_h(), ow = g.out_w(), opix = oh * ow;
  const std::size_t kk = g.k * g.k, plane = g.in_h * g.in_w;
  const std::size_t tap = kPanel ? kQWideConvLanes : 1;
  const std::size_t ch = kPanel ? 1 : w.ch;
  const std::int8_t* in_end = in + g.in_c * plane;
  kernels::detail::LaneCache lanes;
  for (std::size_t oy = 0; oy < oh; ++oy) {
    for (std::size_t ox0 = 0; ox0 < ow; ox0 += 16) {
      const std::size_t n = ow - ox0 < 16 ? ow - ox0 : 16;
      lanes.fill(g, ox0, n);
      __m512i a0, a1, a2, a3, a4, a5, a6, a7;
      a0 = _mm512_setzero_si512();
      if constexpr (kOc > 1) a1 = _mm512_setzero_si512();
      if constexpr (kOc > 2) a2 = _mm512_setzero_si512();
      if constexpr (kOc > 3) a3 = _mm512_setzero_si512();
      if constexpr (kOc > 4) a4 = _mm512_setzero_si512();
      if constexpr (kOc > 5) a5 = _mm512_setzero_si512();
      if constexpr (kOc > 6) a6 = _mm512_setzero_si512();
      if constexpr (kOc > 7) a7 = _mm512_setzero_si512();
      for (std::size_t ic = 0; ic < g.in_c; ++ic) {
        for (std::size_t ky = 0; ky < g.k; ++ky) {
          const std::size_t iy = oy * g.stride + ky;
          if (iy < g.pad || iy - g.pad >= g.in_h) continue;
          const std::int8_t* irow = in + ic * plane + (iy - g.pad) * g.in_w;
          const std::int8_t* wrow = w.base + (ic * kk + ky * g.k) * tap;
          for (std::size_t kx = 0; kx < g.k; ++kx) {
            const std::uint32_t bits = lanes.at(g, ox0, n, kx);
            if (bits == 0) continue;  // every lane reads a pad: adds 0
            const __m512i x = qload16(irow, ox0, g, kx, bits, in, in_end);
            const std::int8_t* wj = wrow + kx * tap;
            qtap16(a0, wj[0], x);
            if constexpr (kOc > 1) qtap16(a1, wj[ch], x);
            if constexpr (kOc > 2) qtap16(a2, wj[2 * ch], x);
            if constexpr (kOc > 3) qtap16(a3, wj[3 * ch], x);
            if constexpr (kOc > 4) qtap16(a4, wj[4 * ch], x);
            if constexpr (kOc > 5) qtap16(a5, wj[5 * ch], x);
            if constexpr (kOc > 6) qtap16(a6, wj[6 * ch], x);
            if constexpr (kOc > 7) qtap16(a7, wj[7 * ch], x);
          }
        }
      }
      std::int8_t* o = out + oy * ow + ox0;
      requant16(a0, oc0, rq, o, n, sat);
      if constexpr (kOc > 1) requant16(a1, oc0 + 1, rq, o + opix, n, sat);
      if constexpr (kOc > 2) requant16(a2, oc0 + 2, rq, o + 2 * opix, n, sat);
      if constexpr (kOc > 3) requant16(a3, oc0 + 3, rq, o + 3 * opix, n, sat);
      if constexpr (kOc > 4) requant16(a4, oc0 + 4, rq, o + 4 * opix, n, sat);
      if constexpr (kOc > 5) requant16(a5, oc0 + 5, rq, o + 5 * opix, n, sat);
      if constexpr (kOc > 6) requant16(a6, oc0 + 6, rq, o + 6 * opix, n, sat);
      if constexpr (kOc > 7) requant16(a7, oc0 + 7, rq, o + 7 * opix, n, sat);
    }
  }
}

// ------------------------------------------------------------ avx2 arm

/// qload16's 8-lane twin (lanes outside `bits` are ANDed to 0).
__attribute__((target("avx2"))) inline __m256i qload8(
    const std::int8_t* row, std::size_t ox0, const kernels::Conv2dGeom& g,
    std::size_t kx, std::uint32_t bits, const std::int8_t* in,
    const std::int8_t* in_end) noexcept {
  if (const std::int8_t* p =
          unit_stride_lane0<8>(row, ox0, g, kx, in, in_end)) {
    const __m256i lane = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    const __m256i m = _mm256_cmpeq_epi32(
        _mm256_and_si256(_mm256_set1_epi32(static_cast<int>(bits)), lane),
        lane);
    return _mm256_and_si256(
        m, _mm256_cvtepi8_epi32(
               _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))));
  }
  alignas(16) std::int8_t buf[16];
  kernels::detail::fill_lanes<8>(row, ox0, g, kx, bits, buf);
  return _mm256_cvtepi8_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(buf)));
}

__attribute__((target("avx2"), always_inline)) inline void qtap8(
    __m256i& acc, std::int8_t w, __m256i x) noexcept {
  acc = _mm256_add_epi32(
      acc, _mm256_mullo_epi32(_mm256_set1_epi32(static_cast<int>(w)), x));
}

/// requant16's 8-lane twin (blends instead of masks; saturating packs
/// narrow exactly because every lane is already in [-127, 127]).
__attribute__((target("avx2"))) inline void requant8(
    __m256i acc, std::size_t ch, const Requant& rq, std::int8_t* o,
    std::size_t n, std::uint64_t* sat) noexcept {
  const float ws = rq.per_channel ? rq.w_scales[ch] : rq.w_scales[0];
  __m256 v = _mm256_mul_ps(_mm256_cvtepi32_ps(acc), _mm256_set1_ps(ws));
  v = _mm256_mul_ps(v, _mm256_set1_ps(rq.in_scale));
  v = _mm256_add_ps(v, _mm256_set1_ps(rq.bias[ch]));
  const __m256 q = _mm256_div_ps(v, _mm256_set1_ps(rq.out_scale));
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 r = _mm256_blendv_ps(
      _mm256_sub_ps(q, half), _mm256_add_ps(q, half),
      _mm256_cmp_ps(q, _mm256_setzero_ps(), _CMP_GE_OQ));
  const __m256 lt = _mm256_cmp_ps(r, _mm256_set1_ps(128.0f), _CMP_LT_OQ);
  const __m256 le = _mm256_cmp_ps(r, _mm256_set1_ps(-128.0f), _CMP_LE_OQ);
  const unsigned live = (1u << n) - 1u;
  if (sat != nullptr) {
    const unsigned clips =
        (~static_cast<unsigned>(_mm256_movemask_ps(lt)) |
         static_cast<unsigned>(_mm256_movemask_ps(le))) &
        live;
    *sat += static_cast<std::uint64_t>(__builtin_popcount(clips));
  }
  __m256 c = _mm256_blendv_ps(_mm256_set1_ps(127.0f), r, lt);
  c = _mm256_blendv_ps(c, _mm256_set1_ps(-127.0f), le);
  __m256i qi = _mm256_cvttps_epi32(c);
  if (rq.relu) qi = _mm256_max_epi32(qi, _mm256_setzero_si256());
  const __m128i p16 = _mm_packs_epi32(_mm256_castsi256_si128(qi),
                                      _mm256_extracti128_si256(qi, 1));
  const __m128i p8 = _mm_packs_epi16(p16, p16);
  if (n == 8) {
    _mm_storel_epi64(reinterpret_cast<__m128i*>(o), p8);
    return;
  }
  alignas(16) std::int8_t t[16];
  _mm_store_si128(reinterpret_cast<__m128i*>(t), p8);
  for (std::size_t l = 0; l < n; ++l) o[l] = t[l];
}

/// qdirect_block_avx512's 8-lane twin.
template <std::size_t kOc, bool kPanel>
__attribute__((target("avx2"))) void qdirect_block_avx2(
    QWeightBlock w, std::size_t oc0, const kernels::Conv2dGeom& g,
    const std::int8_t* in, const Requant& rq, std::int8_t* out,
    std::uint64_t* sat) noexcept {
  const std::size_t oh = g.out_h(), ow = g.out_w(), opix = oh * ow;
  const std::size_t kk = g.k * g.k, plane = g.in_h * g.in_w;
  const std::size_t tap = kPanel ? kQWideConvLanes : 1;
  const std::size_t ch = kPanel ? 1 : w.ch;
  const std::int8_t* in_end = in + g.in_c * plane;
  kernels::detail::LaneCache lanes;
  for (std::size_t oy = 0; oy < oh; ++oy) {
    for (std::size_t ox0 = 0; ox0 < ow; ox0 += 8) {
      const std::size_t n = ow - ox0 < 8 ? ow - ox0 : 8;
      lanes.fill(g, ox0, n);
      __m256i a0, a1, a2, a3, a4, a5, a6, a7;
      a0 = _mm256_setzero_si256();
      if constexpr (kOc > 1) a1 = _mm256_setzero_si256();
      if constexpr (kOc > 2) a2 = _mm256_setzero_si256();
      if constexpr (kOc > 3) a3 = _mm256_setzero_si256();
      if constexpr (kOc > 4) a4 = _mm256_setzero_si256();
      if constexpr (kOc > 5) a5 = _mm256_setzero_si256();
      if constexpr (kOc > 6) a6 = _mm256_setzero_si256();
      if constexpr (kOc > 7) a7 = _mm256_setzero_si256();
      for (std::size_t ic = 0; ic < g.in_c; ++ic) {
        for (std::size_t ky = 0; ky < g.k; ++ky) {
          const std::size_t iy = oy * g.stride + ky;
          if (iy < g.pad || iy - g.pad >= g.in_h) continue;
          const std::int8_t* irow = in + ic * plane + (iy - g.pad) * g.in_w;
          const std::int8_t* wrow = w.base + (ic * kk + ky * g.k) * tap;
          for (std::size_t kx = 0; kx < g.k; ++kx) {
            const std::uint32_t bits = lanes.at(g, ox0, n, kx);
            if (bits == 0) continue;
            const __m256i x = qload8(irow, ox0, g, kx, bits, in, in_end);
            const std::int8_t* wj = wrow + kx * tap;
            qtap8(a0, wj[0], x);
            if constexpr (kOc > 1) qtap8(a1, wj[ch], x);
            if constexpr (kOc > 2) qtap8(a2, wj[2 * ch], x);
            if constexpr (kOc > 3) qtap8(a3, wj[3 * ch], x);
            if constexpr (kOc > 4) qtap8(a4, wj[4 * ch], x);
            if constexpr (kOc > 5) qtap8(a5, wj[5 * ch], x);
            if constexpr (kOc > 6) qtap8(a6, wj[6 * ch], x);
            if constexpr (kOc > 7) qtap8(a7, wj[7 * ch], x);
          }
        }
      }
      std::int8_t* o = out + oy * ow + ox0;
      requant8(a0, oc0, rq, o, n, sat);
      if constexpr (kOc > 1) requant8(a1, oc0 + 1, rq, o + opix, n, sat);
      if constexpr (kOc > 2) requant8(a2, oc0 + 2, rq, o + 2 * opix, n, sat);
      if constexpr (kOc > 3) requant8(a3, oc0 + 3, rq, o + 3 * opix, n, sat);
      if constexpr (kOc > 4) requant8(a4, oc0 + 4, rq, o + 4 * opix, n, sat);
      if constexpr (kOc > 5) requant8(a5, oc0 + 5, rq, o + 5 * opix, n, sat);
      if constexpr (kOc > 6) requant8(a6, oc0 + 6, rq, o + 6 * opix, n, sat);
      if constexpr (kOc > 7) requant8(a7, oc0 + 7, rq, o + 7 * opix, n, sat);
    }
  }
}

using QDirectBlockFn = void (*)(QWeightBlock, std::size_t,
                                const kernels::Conv2dGeom&,
                                const std::int8_t*, const Requant&,
                                std::int8_t*, std::uint64_t*) noexcept;

/// One lane family's blocks: the 8-channel panel half-group block, and
/// the live-weight blocks by channel count (live[c] runs c channels).
struct QDirectBlocks {
  QDirectBlockFn panel;
  QDirectBlockFn live[kOcBlock + 1];
};

/// Walks the output channels in 8-channel blocks: both halves of each
/// full panel group, then the tail channels from the live weights (8 at a
/// time, then the 1..7 remainder).
void qdirect_conv(const QDirectBlocks& blocks, const std::int8_t* panel,
                  const std::int8_t* wt, const kernels::Conv2dGeom& g,
                  const std::int8_t* in, const Requant& rq, std::int8_t* out,
                  std::uint64_t* sat) noexcept {
  const std::size_t opix = g.opix(), patch = g.patch();
  const std::size_t groups = g.out_c / kQWideConvLanes;
  const std::size_t gstride = align_up_bytes(patch * kQWideConvLanes);
  std::size_t oc = 0;
  for (std::size_t grp = 0; grp < groups; ++grp)
    for (std::size_t half = 0; half < kQWideConvLanes; half += kOcBlock) {
      blocks.panel(
          QWeightBlock{panel + grp * gstride + half, kQWideConvLanes, 1}, oc,
          g, in, rq, out + oc * opix, sat);
      oc += kOcBlock;
    }
  for (; oc < g.out_c; oc += kOcBlock) {
    const std::size_t n = g.out_c - oc < kOcBlock ? g.out_c - oc : kOcBlock;
    blocks.live[n](QWeightBlock{wt + oc * patch, 1, patch}, oc, g, in, rq,
                   out + oc * opix, sat);
  }
}

constexpr QDirectBlocks kQBlocks512{
    &qdirect_block_avx512<8, true>,
    {nullptr, &qdirect_block_avx512<1, false>,
     &qdirect_block_avx512<2, false>, &qdirect_block_avx512<3, false>,
     &qdirect_block_avx512<4, false>, &qdirect_block_avx512<5, false>,
     &qdirect_block_avx512<6, false>, &qdirect_block_avx512<7, false>,
     &qdirect_block_avx512<8, false>}};

constexpr QDirectBlocks kQBlocks256{
    &qdirect_block_avx2<8, true>,
    {nullptr, &qdirect_block_avx2<1, false>, &qdirect_block_avx2<2, false>,
     &qdirect_block_avx2<3, false>, &qdirect_block_avx2<4, false>,
     &qdirect_block_avx2<5, false>, &qdirect_block_avx2<6, false>,
     &qdirect_block_avx2<7, false>, &qdirect_block_avx2<8, false>}};

}  // namespace

void qconv2d_direct_avx2(const std::int8_t* panel, const std::int8_t* wt,
                         const kernels::Conv2dGeom& g, const std::int8_t* in,
                         const Requant& rq, std::int8_t* out,
                         std::uint64_t* sat) noexcept {
  qdirect_conv(kQBlocks256, panel, wt, g, in, rq, out, sat);
}

void qconv2d_direct_avx512(const std::int8_t* panel, const std::int8_t* wt,
                           const kernels::Conv2dGeom& g,
                           const std::int8_t* in, const Requant& rq,
                           std::int8_t* out, std::uint64_t* sat) noexcept {
  qdirect_conv(kQBlocks512, panel, wt, g, in, rq, out, sat);
}

#else  // !SX_QWIDE_X86

void qconv2d_direct_avx2(const std::int8_t* panel, const std::int8_t* wt,
                         const kernels::Conv2dGeom& g, const std::int8_t* in,
                         const Requant& rq, std::int8_t* out,
                         std::uint64_t* sat) noexcept {
  qconv2d_direct_scalar(panel, wt, g, in, rq, out, sat);
}

void qconv2d_direct_avx512(const std::int8_t* panel, const std::int8_t* wt,
                           const kernels::Conv2dGeom& g,
                           const std::int8_t* in, const Requant& rq,
                           std::int8_t* out, std::uint64_t* sat) noexcept {
  qconv2d_direct_scalar(panel, wt, g, in, rq, out, sat);
}

#endif  // SX_QWIDE_X86

QDenseKernelFn wide_qdense_kernel(kernels::WideIsa isa) noexcept {
  switch (isa) {
    case kernels::WideIsa::kAvx2: return &qmatvec_wide_avx2;
    case kernels::WideIsa::kAvx512: return &qmatvec_wide_avx512;
    case kernels::WideIsa::kScalar: break;
  }
  return &qmatvec_wide_scalar;
}

QDirectConvKernelFn wide_qconv_kernel(kernels::WideIsa isa) noexcept {
  switch (isa) {
    case kernels::WideIsa::kAvx2: return &qconv2d_direct_avx2;
    case kernels::WideIsa::kAvx512: return &qconv2d_direct_avx512;
    case kernels::WideIsa::kScalar: break;
  }
  return &qconv2d_direct_scalar;
}

}  // namespace sx::tensor::qkernels
