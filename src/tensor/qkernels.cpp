#include "tensor/qkernels.hpp"

#include "tensor/qkernels_detail.hpp"

namespace sx::tensor::qkernels {

void qmatvec_blocked(const std::int8_t* w, std::size_t rows,
                     std::size_t cols, const std::int8_t* x,
                     const Requant& rq, std::int8_t* out,
                     std::uint64_t* sat) noexcept {
  std::size_t r = 0;
  for (; r + kRowBlock <= rows; r += kRowBlock) {
    // Eight independent int32 chains; chain r+i runs the exact reference
    // order acc = 0; acc += w[(r+i)*cols + c] * x[c] for ascending c. The
    // chains are independent in the reference too, so interleaving them is
    // order-preserving per output.
    const std::int8_t* w0 = w + (r + 0) * cols;
    const std::int8_t* w1 = w + (r + 1) * cols;
    const std::int8_t* w2 = w + (r + 2) * cols;
    const std::int8_t* w3 = w + (r + 3) * cols;
    const std::int8_t* w4 = w + (r + 4) * cols;
    const std::int8_t* w5 = w + (r + 5) * cols;
    const std::int8_t* w6 = w + (r + 6) * cols;
    const std::int8_t* w7 = w + (r + 7) * cols;
    std::int32_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;
    std::int32_t a4 = 0, a5 = 0, a6 = 0, a7 = 0;
    // 4x column unroll: each accumulator still sees its columns in strict
    // ascending order; the unroll only amortizes loop control.
    std::size_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      for (std::size_t u = 0; u < 4; ++u) {
        const std::int32_t xv = x[c + u];
        a0 += static_cast<std::int32_t>(w0[c + u]) * xv;
        a1 += static_cast<std::int32_t>(w1[c + u]) * xv;
        a2 += static_cast<std::int32_t>(w2[c + u]) * xv;
        a3 += static_cast<std::int32_t>(w3[c + u]) * xv;
        a4 += static_cast<std::int32_t>(w4[c + u]) * xv;
        a5 += static_cast<std::int32_t>(w5[c + u]) * xv;
        a6 += static_cast<std::int32_t>(w6[c + u]) * xv;
        a7 += static_cast<std::int32_t>(w7[c + u]) * xv;
      }
    }
    for (; c < cols; ++c) {
      const std::int32_t xv = x[c];
      a0 += static_cast<std::int32_t>(w0[c]) * xv;
      a1 += static_cast<std::int32_t>(w1[c]) * xv;
      a2 += static_cast<std::int32_t>(w2[c]) * xv;
      a3 += static_cast<std::int32_t>(w3[c]) * xv;
      a4 += static_cast<std::int32_t>(w4[c]) * xv;
      a5 += static_cast<std::int32_t>(w5[c]) * xv;
      a6 += static_cast<std::int32_t>(w6[c]) * xv;
      a7 += static_cast<std::int32_t>(w7[c]) * xv;
    }
    out[r + 0] = requantize(a0, r + 0, rq, sat);
    out[r + 1] = requantize(a1, r + 1, rq, sat);
    out[r + 2] = requantize(a2, r + 2, rq, sat);
    out[r + 3] = requantize(a3, r + 3, rq, sat);
    out[r + 4] = requantize(a4, r + 4, rq, sat);
    out[r + 5] = requantize(a5, r + 5, rq, sat);
    out[r + 6] = requantize(a6, r + 6, rq, sat);
    out[r + 7] = requantize(a7, r + 7, rq, sat);
  }
  for (; r < rows; ++r) {  // tail rows: plain reference loop
    const std::int8_t* wr = w + r * cols;
    std::int32_t acc = 0;
    for (std::size_t c = 0; c < cols; ++c)
      acc += static_cast<std::int32_t>(wr[c]) *
             static_cast<std::int32_t>(x[c]);
    out[r] = requantize(acc, r, rq, sat);
  }
}

std::size_t qdense_panel_bytes(std::size_t rows, std::size_t cols) noexcept {
  const std::size_t full = rows / kRowBlock;
  const std::size_t tail = rows % kRowBlock;
  std::size_t bytes = full * align_up_bytes(kRowBlock * cols);
  if (tail != 0) bytes += align_up_bytes(tail * cols);
  return bytes;
}

void pack_qdense_panel(const std::int8_t* w, std::size_t rows,
                       std::size_t cols, std::int8_t* panel) noexcept {
  const std::size_t total = qdense_panel_bytes(rows, cols);
  for (std::size_t i = 0; i < total; ++i) panel[i] = 0;  // padding
  const std::size_t full = rows / kRowBlock;
  const std::size_t tail = rows % kRowBlock;
  const std::size_t full_stride = align_up_bytes(kRowBlock * cols);
  for (std::size_t b = 0; b < full; ++b) {
    std::int8_t* blk = panel + b * full_stride;
    const std::int8_t* wb = w + b * kRowBlock * cols;
    for (std::size_t c = 0; c < cols; ++c)
      for (std::size_t i = 0; i < kRowBlock; ++i)
        blk[c * kRowBlock + i] = wb[i * cols + c];
  }
  if (tail != 0) {
    std::int8_t* blk = panel + full * full_stride;
    const std::int8_t* wb = w + full * kRowBlock * cols;
    for (std::size_t c = 0; c < cols; ++c)
      for (std::size_t i = 0; i < tail; ++i)
        blk[c * tail + i] = wb[i * cols + c];
  }
}

void qmatvec_packed(const std::int8_t* panel, std::size_t rows,
                    std::size_t cols, const std::int8_t* x,
                    const Requant& rq, std::int8_t* out,
                    std::uint64_t* sat) noexcept {
  const std::size_t full = rows / kRowBlock;
  const std::size_t tail = rows % kRowBlock;
  const std::size_t full_stride = align_up_bytes(kRowBlock * cols);
  for (std::size_t b = 0; b < full; ++b) {
    const std::int8_t* blk = panel + b * full_stride;
    const std::size_t r = b * kRowBlock;
    // One contiguous 8-byte lane per column replaces eight strided row
    // streams. Each chain still sums its columns in ascending order; int32
    // accumulation is exact, so the layout change cannot alter any value.
    std::int32_t acc[kRowBlock] = {0, 0, 0, 0, 0, 0, 0, 0};
    const std::int8_t* lane = blk;
    for (std::size_t c = 0; c < cols; ++c, lane += kRowBlock) {
      const std::int32_t xv = x[c];
      for (std::size_t i = 0; i < kRowBlock; ++i)
        acc[i] += static_cast<std::int32_t>(lane[i]) * xv;
    }
    for (std::size_t i = 0; i < kRowBlock; ++i)
      out[r + i] = requantize(acc[i], r + i, rq, sat);
  }
  if (tail != 0) {
    const std::int8_t* blk = panel + full * full_stride;
    const std::size_t r0 = full * kRowBlock;
    std::int32_t acc[kRowBlock - 1] = {};
    for (std::size_t c = 0; c < cols; ++c) {
      const std::int32_t xv = x[c];
      const std::int8_t* lane = blk + c * tail;
      for (std::size_t i = 0; i < tail; ++i)
        acc[i] += static_cast<std::int32_t>(lane[i]) * xv;
    }
    for (std::size_t i = 0; i < tail; ++i)
      out[r0 + i] = requantize(acc[i], r0 + i, rq, sat);
  }
}

void im2col_gather_i8(const std::int8_t* in, const std::uint32_t* in_idx,
                      std::size_t entries, std::int8_t* col) noexcept {
  for (std::size_t e = 0; e < entries; ++e) col[e] = in[in_idx[e]];
}

void qconv2d_im2col(const std::int8_t* wt, const kernels::ConvTables& t,
                    const std::int8_t* col, const Requant& rq,
                    std::int8_t* out, std::uint64_t* sat) noexcept {
  detail::qconv_tail_sweep(wt, t, col, rq, out, 0, sat);
}

void qconv2d_im2col_live(const std::int8_t* /*panel*/, const std::int8_t* wt,
                         const kernels::ConvTables& t, const std::int8_t* col,
                         const Requant& rq, std::int8_t* out,
                         std::uint64_t* sat) noexcept {
  qconv2d_im2col(wt, t, col, rq, out, sat);
}

std::size_t qconv_panel_bytes(std::size_t out_c,
                              std::size_t patch) noexcept {
  return (out_c / kQConvLanes) * align_up_bytes(patch * kQConvLanes);
}

void pack_qconv_panel(const std::int8_t* wt, std::size_t out_c,
                      std::size_t patch, std::int8_t* panel) noexcept {
  const std::size_t total = qconv_panel_bytes(out_c, patch);
  for (std::size_t i = 0; i < total; ++i) panel[i] = 0;  // padding
  const std::size_t gstride = align_up_bytes(patch * kQConvLanes);
  for (std::size_t g = 0; g < out_c / kQConvLanes; ++g) {
    std::int8_t* gp = panel + g * gstride;
    for (std::size_t j = 0; j < patch; ++j)
      for (std::size_t i = 0; i < kQConvLanes; ++i)
        gp[j * kQConvLanes + i] = wt[(g * kQConvLanes + i) * patch + j];
  }
}

void qconv2d_im2col_packed(const std::int8_t* panel, const std::int8_t* wt,
                           const kernels::ConvTables& t,
                           const std::int8_t* col, const Requant& rq,
                           std::int8_t* out, std::uint64_t* sat) noexcept {
  const std::size_t gstride = align_up_bytes(t.patch * kQConvLanes);
  const std::size_t groups = t.out_c / kQConvLanes;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::int8_t* gp = panel + g * gstride;
    const std::size_t oc0 = g * kQConvLanes;
    std::int8_t* o[kQConvLanes];
    for (std::size_t i = 0; i < kQConvLanes; ++i)
      o[i] = out + (oc0 + i) * t.opix;
    for (std::size_t p = 0; p < t.opix; ++p) {
      const std::size_t base = t.pix_off[p];
      const std::size_t taps = t.pix_off[p + 1] - base;
      // Eight channels of the group share each broadcast column value;
      // every tap folds into its own int32 lane only, so per-channel tap
      // order is exactly the reference order.
      std::int32_t acc[kQConvLanes] = {};
      const std::int8_t* c = col + base;
      if (taps == t.patch) {
        const std::int8_t* lane = gp;
        for (std::size_t j = 0; j < taps; ++j, lane += kQConvLanes) {
          const std::int32_t v = c[j];
          for (std::size_t i = 0; i < kQConvLanes; ++i)
            acc[i] += static_cast<std::int32_t>(lane[i]) * v;
        }
      } else {
        const std::uint32_t* wo = t.w_ofs + base;
        for (std::size_t j = 0; j < taps; ++j) {
          const std::int32_t v = c[j];
          const std::int8_t* lane = gp + wo[j] * kQConvLanes;
          for (std::size_t i = 0; i < kQConvLanes; ++i)
            acc[i] += static_cast<std::int32_t>(lane[i]) * v;
        }
      }
      for (std::size_t i = 0; i < kQConvLanes; ++i)
        o[i][p] = requantize(acc[i], oc0 + i, rq, sat);
    }
  }
  // Tail channels (out_c % kQConvLanes) read the live weights through the
  // scalar sweeps, exactly like the unpacked path.
  detail::qconv_tail_sweep(wt, t, col, rq, out, groups * kQConvLanes, sat);
}

void qmaxpool2d(const kernels::PoolGeom& g, const std::int8_t* in,
                std::int8_t* out) noexcept {
  const std::size_t oh = g.out_h(), ow = g.out_w(), w = g.window;
  for (std::size_t ch = 0; ch < g.c; ++ch) {
    const std::int8_t* plane = in + ch * g.in_h * g.in_w;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const std::int8_t* win = plane + oy * w * g.in_w + ox * w;
        std::int8_t m = -128;
        for (std::size_t dy = 0; dy < w; ++dy)
          for (std::size_t dx = 0; dx < w; ++dx) {
            const std::int8_t v = win[dy * g.in_w + dx];
            m = v > m ? v : m;
          }
        *out++ = m;
      }
    }
  }
}

}  // namespace sx::tensor::qkernels
