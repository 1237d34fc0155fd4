// Deploy-time-planned numeric kernels: register-blocked matvec/GEMM, two
// Conv2d lowerings with fused bias+activation epilogues — a ragged im2col
// gather + GEMM (kBlocked, kPacked) and a gather-free direct convolution
// (kWide) — and a planned MaxPool2d.
//
// Every kernel here preserves the *per-output accumulation order* of the
// reference loops in tensor/ops.cpp and dl/layers.cpp: each output element
// is produced by the same sequence of multiply-adds on the same operands,
// so optimized and reference paths are bitwise identical and the golden
// vectors pinned in tensor_golden_test stay valid. The speedups come from
// order-preserving transformations only:
//
//   - row blocking: kRowBlock independent accumulation chains per sweep
//     break the single serial FMA/add dependency chain of the reference
//     loop (ILP), and the input vector is streamed once per block instead
//     of once per row;
//   - deploy-time im2col index tables (kBlocked, kPacked): all Conv2d
//     bounds checks and index arithmetic move to configuration time; the
//     hot path is one flat gather plus a dense blocked GEMM.  The tables
//     are *ragged* (padding taps are omitted, exactly as the reference
//     loop skips them) rather than zero-filled, so even non-finite weights
//     multiply precisely the operands the reference path multiplies;
//   - direct convolution (kWide): output pixels of one row in the SIMD
//     lanes, reading the CHW input rows in place — no gather at all.
//     Clipped padding taps are masked out of the add per lane, so the
//     same "multiply exactly the reference operands" rule holds;
//   - fused epilogues: bias (already fused in the reference Dense/Conv2d)
//     plus an optional ReLU/Sigmoid/Tanh applied in the GEMM tail, saving
//     one full tensor traversal per fused layer.  The epilogue expression
//     is character-identical to the corresponding Layer::forward body.
//
// All functions are allocation-free and operate on caller-provided
// buffers; table *construction* fills caller-owned storage whose size is
// returned by the corresponding *_floats()/*_entries() planner so that
// dl::KernelPlan can place everything in deploy-time storage and the
// engine arena. (This file is covered by sxlint's hot-path-alloc rule.)
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace sx::tensor::kernels {

/// Output rows (Dense) per register-blocked sweep. 8 independent
/// accumulator chains are enough to cover scalar FP add latency on
/// current cores without spilling.
inline constexpr std::size_t kRowBlock = 8;

/// Output channels (Conv2d GEMM) per register-blocked sweep. Eight chains
/// read the gathered im2col column once per sweep (the deployed perception
/// CNNs are 8-channel), at the same register budget as the Dense kernel.
inline constexpr std::size_t kOcBlock = 8;

/// Panel alignment in floats: 16 floats == one 64-byte cache line.
inline constexpr std::size_t kAlignFloats = 16;

constexpr std::size_t align_up(std::size_t n) noexcept {
  return (n + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
}

/// Fused activation applied in the kernel tail. Expressions match the
/// corresponding Layer::forward bodies bit for bit (including NaN
/// behaviour: relu(NaN) == 0.0f exactly as `v > 0 ? v : 0` yields).
enum class Epilogue : std::uint8_t { kNone, kRelu, kSigmoid, kTanh };

inline float apply_epilogue(float v, Epilogue ep) noexcept {
  switch (ep) {
    case Epilogue::kNone: return v;
    case Epilogue::kRelu: return v > 0.0f ? v : 0.0f;
    case Epilogue::kSigmoid: return 1.0f / (1.0f + std::exp(-v));
    case Epilogue::kTanh: return std::tanh(v);
  }
  return v;
}

// --------------------------------------------------------------- Dense

/// y = W x + b with kRowBlock-way register blocking over the live
/// row-major weight matrix (rows x cols). When `check` is set, the
/// pre-activation value of every output is screened with the same
/// predicate the engine's per-layer scan uses; returns false iff a
/// non-finite pre-activation was seen (the caller maps that to
/// Status::kNumericFault exactly where the reference path would).
bool matvec_blocked(const float* w, const float* bias, std::size_t rows,
                    std::size_t cols, const float* x, float* out,
                    Epilogue ep, bool check) noexcept;

/// Floats needed for the cache-line-aligned row-blocked panel of a
/// rows x cols Dense weight matrix (every block starts 64-byte aligned).
std::size_t dense_panel_floats(std::size_t rows, std::size_t cols) noexcept;

/// Repacks the row-major weight matrix into the panel layout: full blocks
/// of kRowBlock rows interleaved column-major-within-block
/// (panel[c * 8 + r]), the tail block interleaved at its own row count.
/// `panel` must hold dense_panel_floats() floats; alignment padding is
/// zero-filled.
void pack_dense_panel(const float* w, std::size_t rows, std::size_t cols,
                      float* panel) noexcept;

/// matvec_blocked over a packed panel (weights snapshot; see
/// dl::KernelPlan for the staleness contract).
bool matvec_packed(const float* panel, const float* bias, std::size_t rows,
                   std::size_t cols, const float* x, float* out,
                   Epilogue ep, bool check) noexcept;

// --------------------------------------------------------------- Conv2d

/// Static Conv2d geometry (CHW layout, square kernel, symmetric padding).
struct Conv2dGeom {
  std::size_t in_c = 0, in_h = 0, in_w = 0;
  std::size_t out_c = 0, k = 0, stride = 1, pad = 0;

  std::size_t out_h() const noexcept {
    return (in_h + 2 * pad - k) / stride + 1;
  }
  std::size_t out_w() const noexcept {
    return (in_w + 2 * pad - k) / stride + 1;
  }
  std::size_t opix() const noexcept { return out_h() * out_w(); }
  /// Full patch length (taps per output pixel when nothing is clipped).
  std::size_t patch() const noexcept { return in_c * k * k; }
};

/// Total ragged im2col entries: sum over output pixels of the *valid* tap
/// count (padding-clipped taps are omitted, matching the reference skip).
/// This is both the index-table length and the per-inference scratch
/// demand in floats.
std::size_t im2col_entries(const Conv2dGeom& g) noexcept;

/// Fills the deploy-time gather tables. For output pixel p the entries
/// [pix_off[p], pix_off[p+1]) list, in the reference accumulation order
/// (ic ascending, then valid ky, then valid kx):
///   in_idx[e]  linear index into the CHW input,
///   w_ofs[e]   weight offset inside one output-channel slab
///              (ic * k * k + ky * k + kx).
/// `pix_off` must hold opix()+1 entries; `in_idx`/`w_ofs` must hold
/// im2col_entries() each. Interior pixels carry the full patch with
/// w_ofs == 0..patch-1, which conv2d_im2col detects and runs without
/// indirection.
void build_im2col_tables(const Conv2dGeom& g, std::uint32_t* pix_off,
                         std::uint32_t* in_idx,
                         std::uint32_t* w_ofs) noexcept;

/// The hot-path gather: col[e] = in[in_idx[e]] for e in [0, entries).
/// One flat, branch-free loop (ragged layout keeps padding out entirely).
void im2col_gather(const float* in, const std::uint32_t* in_idx,
                   std::size_t entries, float* col) noexcept;

/// Pointer view of one planned Conv2d lowering (tables owned elsewhere).
struct ConvTables {
  std::size_t out_c = 0;
  std::size_t patch = 0;  ///< full tap count per pixel
  std::size_t opix = 0;
  const std::uint32_t* pix_off = nullptr;  ///< opix + 1 entries
  const std::uint32_t* in_idx = nullptr;   ///< gather indices
  const std::uint32_t* w_ofs = nullptr;    ///< weight offsets per entry
};

/// out[oc * opix + p] = bias[oc] + sum over the pixel's taps, kOcBlock
/// output channels per sweep sharing one gathered column. `wt` is the
/// live Conv2d weight tensor (out_c x patch, the natural layout), `col`
/// the gathered ragged im2col buffer. Same check/epilogue contract as
/// matvec_blocked.
bool conv2d_im2col(const float* wt, const float* bias, const ConvTables& t,
                   const float* col, float* out, Epilogue ep,
                   bool check) noexcept;

/// Output channels per SIMD lane group of a packed Conv2d panel.
inline constexpr std::size_t kConvLanes = 4;

/// Floats needed for the tap-major lane panel of an out_c x patch Conv2d
/// weight tensor: full kConvLanes-channel groups only (each group starts
/// 64-byte aligned); the out_c % kConvLanes tail channels keep reading
/// the live weights.
std::size_t conv_panel_floats(std::size_t out_c,
                              std::size_t patch) noexcept;

/// Repacks the natural out_c x patch weight layout into lane groups:
/// group g, tap j holds weights of channels g*kConvLanes .. +3 at
/// panel[g * align_up(patch * kConvLanes) + j * kConvLanes + i].
void pack_conv_panel(const float* wt, std::size_t out_c, std::size_t patch,
                     float* panel) noexcept;

/// conv2d_im2col over a packed lane panel (weights snapshot; see
/// dl::KernelPlan for the staleness contract). `wt` must still point at
/// the live weights — the out_c % kConvLanes tail channels use it.
bool conv2d_im2col_packed(const float* panel, const float* wt,
                          const float* bias, const ConvTables& t,
                          const float* col, float* out, Epilogue ep,
                          bool check) noexcept;

// ------------------------------------------------- wide (kWide) backends

/// Microkernel lane family of the kWide backend, selected once at deploy
/// time by platform::select_wide_isa (CPU probe + SX_KERNEL_ISA override)
/// and recorded as audit evidence. Every family computes the *identical*
/// fixed accumulation tree — one serial ascending-column chain per output,
/// vectorized only across independent outputs — so outputs are bitwise
/// identical across families (and to every other KernelMode). kScalar is
/// the portable twin that runs on any machine.
enum class WideIsa : std::uint8_t {
  kScalar,  ///< portable scalar twin of the wide accumulation tree
  kAvx2,    ///< 8-lane 256-bit float / 32-byte int8 microkernels
  kAvx512,  ///< 16-lane 512-bit float / 64-byte int8 microkernels
};

const char* wide_isa_name(WideIsa isa) noexcept;

/// Output rows (Dense) per wide sweep: one 16-lane (512-bit-class) group,
/// executed as 2 x 8 lanes on AVX2 and 16 scalar chains by the twin.
inline constexpr std::size_t kWideRowBlock = 16;

/// Output channels per wide conv panel group — and per register block of
/// the direct conv kernels, which keep one named accumulator per channel.
/// Eight matches the deployed perception CNNs' channel counts, so their
/// convs read every weight from the panel.
inline constexpr std::size_t kWideConvLanes = 8;

/// Floats needed for the wide row-blocked panel of a rows x cols Dense
/// weight matrix (full kWideRowBlock blocks plus an interleaved tail,
/// every block 64-byte aligned).
std::size_t wide_dense_panel_floats(std::size_t rows,
                                    std::size_t cols) noexcept;

/// Repacks the row-major weight matrix into the wide panel layout: full
/// blocks of kWideRowBlock rows interleaved column-major-within-block
/// (panel[c * 16 + r]), the tail block interleaved at its own row count.
void pack_wide_dense_panel(const float* w, std::size_t rows,
                           std::size_t cols, float* panel) noexcept;

/// matvec over a wide panel — the portable scalar twin and the two SIMD
/// families. Same signature and check/epilogue contract as matvec_packed;
/// all three produce bitwise-identical outputs (the SIMD variants fall
/// back to the twin on non-x86 builds).
bool matvec_wide_scalar(const float* panel, const float* bias,
                        std::size_t rows, std::size_t cols, const float* x,
                        float* out, Epilogue ep, bool check) noexcept;
bool matvec_wide_avx2(const float* panel, const float* bias,
                      std::size_t rows, std::size_t cols, const float* x,
                      float* out, Epilogue ep, bool check) noexcept;
bool matvec_wide_avx512(const float* panel, const float* bias,
                        std::size_t rows, std::size_t cols, const float* x,
                        float* out, Epilogue ep, bool check) noexcept;

/// Floats needed for the wide tap-major lane panel of an out_c x patch
/// Conv2d weight tensor: full kWideConvLanes-channel groups only; the
/// tail channels keep reading the live weights.
std::size_t wide_conv_panel_floats(std::size_t out_c,
                                   std::size_t patch) noexcept;

/// Repacks the natural out_c x patch weight layout into wide lane groups:
/// group g, tap j holds weights of channels g*kWideConvLanes .. +7 at
/// panel[g * align_up(patch * kWideConvLanes) + j * kWideConvLanes + i].
void pack_wide_conv_panel(const float* wt, std::size_t out_c,
                          std::size_t patch, float* panel) noexcept;

/// Direct Conv2d over the CHW input, read in place (no im2col gather) —
/// the kWide conv lowering, for every stride and padding. The SIMD lanes
/// hold consecutive output pixels of one output row (16 on avx512, 8 on
/// avx2; the scalar twin runs one chain per pixel), and up to 8 output
/// channels are register-blocked as named accumulators sharing each
/// input load. Every output is still one serial chain: bias first, then
/// (ic, valid ky, valid kx) in reference order, exactly Conv2d::forward's
/// tree. Rows outside the input are skipped; padding-clipped columns are
/// excluded lane by lane with a masked add (an AVX-512 mask, an AVX2
/// blend) — never multiplied by a zero pad, since 0 * Inf is NaN and
/// -0 + +0 is +0 — and the masked loads never touch memory outside the
/// input. Full kWideConvLanes-channel groups read their weights from the
/// wide conv panel, the out_c % kWideConvLanes tail channels the live
/// weights `wt`; `panel` may be null when out_c < kWideConvLanes. Same
/// check/epilogue contract as matvec_blocked.
bool conv2d_direct_scalar(const float* panel, const float* wt,
                          const float* bias, const Conv2dGeom& g,
                          const float* in, float* out, Epilogue ep,
                          bool check) noexcept;
bool conv2d_direct_avx2(const float* panel, const float* wt,
                        const float* bias, const Conv2dGeom& g,
                        const float* in, float* out, Epilogue ep,
                        bool check) noexcept;
bool conv2d_direct_avx512(const float* panel, const float* wt,
                          const float* bias, const Conv2dGeom& g,
                          const float* in, float* out, Epilogue ep,
                          bool check) noexcept;

// ------------------------------------------------------------ MaxPool2d

/// Static MaxPool2d geometry (CHW, square window == stride, no padding;
/// in_h and in_w are multiples of the window).
struct PoolGeom {
  std::size_t c = 0, in_h = 0, in_w = 0, window = 1;

  std::size_t out_h() const noexcept { return in_h / window; }
  std::size_t out_w() const noexcept { return in_w / window; }
};

/// Planned max pooling over raw CHW pointers. Each window starts at -inf
/// and folds `v > m ? v : m` over (dy, dx) in MaxPool2d::forward's order,
/// so NaN and signed zeros come out bitwise as in the reference.
void maxpool2d(const PoolGeom& g, const float* in, float* out) noexcept;

// ------------------------------------------- hot-path dispatch pointers

/// Uniform Dense kernel shape: matvec_blocked (live weights),
/// matvec_packed and the matvec_wide_* family all match it, so a plan can
/// resolve one pointer per step at deploy time and the hot path stays
/// branch-free.
using DenseKernelFn = bool (*)(const float* w_or_panel, const float* bias,
                               std::size_t rows, std::size_t cols,
                               const float* x, float* out, Epilogue ep,
                               bool check) noexcept;

/// Uniform im2col Conv2d kernel shape of the kBlocked/kPacked plans
/// (panel variants use `panel`, the live adapter ignores it).
using ConvKernelFn = bool (*)(const float* panel, const float* wt,
                              const float* bias, const ConvTables& t,
                              const float* col, float* out, Epilogue ep,
                              bool check) noexcept;

/// conv2d_im2col behind the uniform ConvKernelFn shape (ignores `panel`;
/// reads the live weights).
bool conv2d_im2col_live(const float* panel, const float* wt,
                        const float* bias, const ConvTables& t,
                        const float* col, float* out, Epilogue ep,
                        bool check) noexcept;

/// Uniform direct Conv2d kernel shape: the conv2d_direct_* family.
using DirectConvKernelFn = bool (*)(const float* panel, const float* wt,
                                    const float* bias, const Conv2dGeom& g,
                                    const float* in, float* out, Epilogue ep,
                                    bool check) noexcept;

/// The wide Dense / direct Conv2d microkernel for one lane family —
/// resolved once at plan construction, never on the hot path.
DenseKernelFn wide_dense_kernel(WideIsa isa) noexcept;
DirectConvKernelFn wide_conv_kernel(WideIsa isa) noexcept;

}  // namespace sx::tensor::kernels
