#include "tensor/kernels.hpp"

#include <limits>

#include "tensor/kernels_detail.hpp"

namespace sx::tensor::kernels {

namespace {

using detail::finish;

/// Four-wide GCC/Clang vector lanes for the packed panels. Lane i only
/// ever folds into accumulator lane i — vertical mul/add, no horizontal
/// reduction, and SSE has no FMA contraction to fuse the pair — so each
/// output row still sums its columns in exact reference order: the SIMD
/// here is an instruction-level-parallelism transform, not a numerical
/// one (tensor_kernels_test proves bitwise identity).
typedef float v4sf __attribute__((vector_size(16)));

inline v4sf v4_load(const float* p) noexcept {
  v4sf v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace

bool matvec_blocked(const float* w, const float* bias, std::size_t rows,
                    std::size_t cols, const float* x, float* out,
                    Epilogue ep, bool check) noexcept {
  bool ok = true;
  std::size_t r = 0;
  for (; r + kRowBlock <= rows; r += kRowBlock) {
    // Eight independent accumulation chains; each chain r+i runs the exact
    // reference order acc = b[r+i]; acc += w[(r+i)*cols + c] * x[c] for
    // ascending c. The chains are independent in the reference too, so
    // interleaving them is order-preserving per output.
    const float* w0 = w + (r + 0) * cols;
    const float* w1 = w + (r + 1) * cols;
    const float* w2 = w + (r + 2) * cols;
    const float* w3 = w + (r + 3) * cols;
    const float* w4 = w + (r + 4) * cols;
    const float* w5 = w + (r + 5) * cols;
    const float* w6 = w + (r + 6) * cols;
    const float* w7 = w + (r + 7) * cols;
    float a0 = bias[r + 0], a1 = bias[r + 1], a2 = bias[r + 2];
    float a3 = bias[r + 3], a4 = bias[r + 4], a5 = bias[r + 5];
    float a6 = bias[r + 6], a7 = bias[r + 7];
    // 4x column unroll: each accumulator still sees its columns in strict
    // ascending order (c, c+1, c+2, c+3), so per-output accumulation order
    // is untouched; the unroll only amortizes loop control.
    std::size_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      for (std::size_t u = 0; u < 4; ++u) {
        const float xv = x[c + u];
        a0 += w0[c + u] * xv;
        a1 += w1[c + u] * xv;
        a2 += w2[c + u] * xv;
        a3 += w3[c + u] * xv;
        a4 += w4[c + u] * xv;
        a5 += w5[c + u] * xv;
        a6 += w6[c + u] * xv;
        a7 += w7[c + u] * xv;
      }
    }
    for (; c < cols; ++c) {
      const float xv = x[c];
      a0 += w0[c] * xv;
      a1 += w1[c] * xv;
      a2 += w2[c] * xv;
      a3 += w3[c] * xv;
      a4 += w4[c] * xv;
      a5 += w5[c] * xv;
      a6 += w6[c] * xv;
      a7 += w7[c] * xv;
    }
    ok = finish(a0, out + r + 0, ep, check, ok);
    ok = finish(a1, out + r + 1, ep, check, ok);
    ok = finish(a2, out + r + 2, ep, check, ok);
    ok = finish(a3, out + r + 3, ep, check, ok);
    ok = finish(a4, out + r + 4, ep, check, ok);
    ok = finish(a5, out + r + 5, ep, check, ok);
    ok = finish(a6, out + r + 6, ep, check, ok);
    ok = finish(a7, out + r + 7, ep, check, ok);
  }
  for (; r < rows; ++r) {  // tail rows: plain reference loop
    const float* wr = w + r * cols;
    float acc = bias[r];
    for (std::size_t c = 0; c < cols; ++c) acc += wr[c] * x[c];
    ok = finish(acc, out + r, ep, check, ok);
  }
  return ok;
}

std::size_t dense_panel_floats(std::size_t rows, std::size_t cols) noexcept {
  const std::size_t full = rows / kRowBlock;
  const std::size_t tail = rows % kRowBlock;
  std::size_t floats = full * align_up(kRowBlock * cols);
  if (tail != 0) floats += align_up(tail * cols);
  return floats;
}

void pack_dense_panel(const float* w, std::size_t rows, std::size_t cols,
                      float* panel) noexcept {
  const std::size_t total = dense_panel_floats(rows, cols);
  for (std::size_t i = 0; i < total; ++i) panel[i] = 0.0f;  // padding
  const std::size_t full = rows / kRowBlock;
  const std::size_t tail = rows % kRowBlock;
  const std::size_t full_stride = align_up(kRowBlock * cols);
  for (std::size_t b = 0; b < full; ++b) {
    float* blk = panel + b * full_stride;
    const float* wb = w + b * kRowBlock * cols;
    for (std::size_t c = 0; c < cols; ++c)
      for (std::size_t i = 0; i < kRowBlock; ++i)
        blk[c * kRowBlock + i] = wb[i * cols + c];
  }
  if (tail != 0) {
    float* blk = panel + full * full_stride;
    const float* wb = w + full * kRowBlock * cols;
    for (std::size_t c = 0; c < cols; ++c)
      for (std::size_t i = 0; i < tail; ++i)
        blk[c * tail + i] = wb[i * cols + c];
  }
}

bool matvec_packed(const float* panel, const float* bias, std::size_t rows,
                   std::size_t cols, const float* x, float* out,
                   Epilogue ep, bool check) noexcept {
  bool ok = true;
  const std::size_t full = rows / kRowBlock;
  const std::size_t tail = rows % kRowBlock;
  const std::size_t full_stride = align_up(kRowBlock * cols);
  for (std::size_t b = 0; b < full; ++b) {
    const float* blk = panel + b * full_stride;
    const std::size_t r = b * kRowBlock;
    // One contiguous 8-float lane per column: a single unit-stride panel
    // stream replaces the eight strided row streams of the live-weight
    // kernel, and the two v4sf accumulators keep all eight chains in
    // vector registers (see the v4sf note above for why this stays
    // bit-identical to the reference order).
    v4sf lo = v4_load(bias + r);
    v4sf hi = v4_load(bias + r + 4);
    const float* lane = blk;
    for (std::size_t c = 0; c < cols; ++c, lane += kRowBlock) {
      const float xv = x[c];
      const v4sf xv4 = {xv, xv, xv, xv};
      lo += v4_load(lane) * xv4;
      hi += v4_load(lane + 4) * xv4;
    }
    float acc[kRowBlock];
    __builtin_memcpy(acc, &lo, sizeof lo);
    __builtin_memcpy(acc + 4, &hi, sizeof hi);
    for (std::size_t i = 0; i < kRowBlock; ++i)
      ok = finish(acc[i], out + r + i, ep, check, ok);
  }
  if (tail != 0) {
    const float* blk = panel + full * full_stride;
    const std::size_t r0 = full * kRowBlock;
    float acc[kRowBlock - 1];
    for (std::size_t i = 0; i < tail; ++i) acc[i] = bias[r0 + i];
    for (std::size_t c = 0; c < cols; ++c) {
      const float xv = x[c];
      const float* lane = blk + c * tail;
      for (std::size_t i = 0; i < tail; ++i) acc[i] += lane[i] * xv;
    }
    for (std::size_t i = 0; i < tail; ++i)
      ok = finish(acc[i], out + r0 + i, ep, check, ok);
  }
  return ok;
}

std::size_t im2col_entries(const Conv2dGeom& g) noexcept {
  std::size_t entries = 0;
  const std::size_t oh = g.out_h(), ow = g.out_w();
  for (std::size_t oy = 0; oy < oh; ++oy) {
    for (std::size_t ox = 0; ox < ow; ++ox) {
      std::size_t taps = 0;
      for (std::size_t ky = 0; ky < g.k; ++ky) {
        const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy * g.stride) +
                                  static_cast<std::ptrdiff_t>(ky) -
                                  static_cast<std::ptrdiff_t>(g.pad);
        if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h)) continue;
        for (std::size_t kx = 0; kx < g.k; ++kx) {
          const std::ptrdiff_t ix =
              static_cast<std::ptrdiff_t>(ox * g.stride) +
              static_cast<std::ptrdiff_t>(kx) -
              static_cast<std::ptrdiff_t>(g.pad);
          if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(g.in_w)) continue;
          ++taps;
        }
      }
      entries += g.in_c * taps;
    }
  }
  return entries;
}

void build_im2col_tables(const Conv2dGeom& g, std::uint32_t* pix_off,
                         std::uint32_t* in_idx,
                         std::uint32_t* w_ofs) noexcept {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  std::size_t e = 0, p = 0;
  for (std::size_t oy = 0; oy < oh; ++oy) {
    for (std::size_t ox = 0; ox < ow; ++ox) {
      pix_off[p++] = static_cast<std::uint32_t>(e);
      // Entry order per pixel mirrors Conv2d::forward exactly:
      // ic ascending, then valid ky ascending, then valid kx ascending.
      for (std::size_t ic = 0; ic < g.in_c; ++ic) {
        for (std::size_t ky = 0; ky < g.k; ++ky) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * g.stride) +
              static_cast<std::ptrdiff_t>(ky) -
              static_cast<std::ptrdiff_t>(g.pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h)) continue;
          for (std::size_t kx = 0; kx < g.k; ++kx) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * g.stride) +
                static_cast<std::ptrdiff_t>(kx) -
                static_cast<std::ptrdiff_t>(g.pad);
            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(g.in_w)) continue;
            in_idx[e] = static_cast<std::uint32_t>(
                (ic * g.in_h + static_cast<std::size_t>(iy)) * g.in_w +
                static_cast<std::size_t>(ix));
            w_ofs[e] =
                static_cast<std::uint32_t>((ic * g.k + ky) * g.k + kx);
            ++e;
          }
        }
      }
    }
  }
  pix_off[p] = static_cast<std::uint32_t>(e);
}

void im2col_gather(const float* in, const std::uint32_t* in_idx,
                   std::size_t entries, float* col) noexcept {
  for (std::size_t e = 0; e < entries; ++e) col[e] = in[in_idx[e]];
}

bool conv2d_im2col(const float* wt, const float* bias, const ConvTables& t,
                   const float* col, float* out, Epilogue ep,
                   bool check) noexcept {
  bool ok = true;
  std::size_t oc = 0;
  for (; oc + kOcBlock <= t.out_c; oc += kOcBlock)
    ok = detail::conv_oc_sweep<kOcBlock>(wt, bias, t, col, out, oc, ep,
                                         check, ok);
  return detail::conv_tail_sweep(wt, bias, t, col, out, oc, ep, check, ok);
}

bool conv2d_im2col_live(const float* /*panel*/, const float* wt,
                        const float* bias, const ConvTables& t,
                        const float* col, float* out, Epilogue ep,
                        bool check) noexcept {
  return conv2d_im2col(wt, bias, t, col, out, ep, check);
}

std::size_t conv_panel_floats(std::size_t out_c,
                              std::size_t patch) noexcept {
  return (out_c / kConvLanes) * align_up(patch * kConvLanes);
}

void pack_conv_panel(const float* wt, std::size_t out_c, std::size_t patch,
                     float* panel) noexcept {
  const std::size_t total = conv_panel_floats(out_c, patch);
  for (std::size_t i = 0; i < total; ++i) panel[i] = 0.0f;  // padding
  const std::size_t gstride = align_up(patch * kConvLanes);
  for (std::size_t g = 0; g < out_c / kConvLanes; ++g) {
    float* gp = panel + g * gstride;
    for (std::size_t j = 0; j < patch; ++j)
      for (std::size_t i = 0; i < kConvLanes; ++i)
        gp[j * kConvLanes + i] = wt[(g * kConvLanes + i) * patch + j];
  }
}

bool conv2d_im2col_packed(const float* panel, const float* wt,
                          const float* bias, const ConvTables& t,
                          const float* col, float* out, Epilogue ep,
                          bool check) noexcept {
  bool ok = true;
  const std::size_t gstride = align_up(t.patch * kConvLanes);
  const std::size_t groups = t.out_c / kConvLanes;
  for (std::size_t g = 0; g < groups; ++g) {
    const float* gp = panel + g * gstride;
    const std::size_t oc0 = g * kConvLanes;
    float* o[kConvLanes];
    for (std::size_t i = 0; i < kConvLanes; ++i)
      o[i] = out + (oc0 + i) * t.opix;
    for (std::size_t p = 0; p < t.opix; ++p) {
      const std::size_t base = t.pix_off[p];
      const std::size_t taps = t.pix_off[p + 1] - base;
      // One v4sf accumulator carries the four channels of the group;
      // every tap broadcasts the shared column value and folds into its
      // own lane only, so each channel's tap order is exactly the
      // reference order (see the v4sf note at the top of the file).
      v4sf acc = v4_load(bias + oc0);
      const float* c = col + base;
      if (taps == t.patch) {
        const float* lane = gp;
        for (std::size_t j = 0; j < taps; ++j, lane += kConvLanes) {
          const float v = c[j];
          acc += v4_load(lane) * v4sf{v, v, v, v};
        }
      } else {
        const std::uint32_t* wo = t.w_ofs + base;
        for (std::size_t j = 0; j < taps; ++j) {
          const float v = c[j];
          acc += v4_load(gp + wo[j] * kConvLanes) * v4sf{v, v, v, v};
        }
      }
      float a[kConvLanes];
      __builtin_memcpy(a, &acc, sizeof acc);
      for (std::size_t i = 0; i < kConvLanes; ++i)
        ok = finish(a[i], o[i] + p, ep, check, ok);
    }
  }
  // Tail channels (out_c % kConvLanes) read the live weights through the
  // scalar sweeps, exactly like the unpacked path.
  const std::size_t oc = groups * kConvLanes;
  return detail::conv_tail_sweep(wt, bias, t, col, out, oc, ep, check, ok);
}

void maxpool2d(const PoolGeom& g, const float* in, float* out) noexcept {
  const std::size_t oh = g.out_h(), ow = g.out_w(), w = g.window;
  for (std::size_t ch = 0; ch < g.c; ++ch) {
    const float* plane = in + ch * g.in_h * g.in_w;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const float* win = plane + oy * w * g.in_w + ox * w;
        float m = -std::numeric_limits<float>::infinity();
        for (std::size_t dy = 0; dy < w; ++dy)
          for (std::size_t dx = 0; dx < w; ++dx) {
            const float v = win[dy * g.in_w + dx];
            m = v > m ? v : m;
          }
        *out++ = m;
      }
    }
  }
}

}  // namespace sx::tensor::kernels
