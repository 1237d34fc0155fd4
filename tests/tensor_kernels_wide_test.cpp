// Differential sweeps for the wide-SIMD (kWide) float microkernels.
//
// The load-bearing property is the same as for blocked/packed: *bitwise*
// identity with the audited reference loops, for every lane family the
// CPU probe can select. The wide kernels vectorize ACROSS independent
// outputs (Dense: output rows; direct Conv2d: output pixels of one row)
// while preserving each output's serial reference accumulation chain, so
// scalar twin, AVX2 and AVX-512 variants must all reproduce
// matvec_blocked / Conv2d::forward bit for bit — across randomized
// shapes, ragged tails off the 16/8-lane groups and chunks, every
// padding-clipping pattern (Inf weights and -0 biases included),
// misaligned operand bases, and every fused epilogue. SIMD variants are
// exercised only when the probe reports the ISA (the suite stays green
// on any host); the scalar twin always runs.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/pipeline.hpp"
#include "dl/layers.hpp"
#include "dl/train.hpp"
#include "platform/cpu_probe.hpp"
#include "safety/campaign.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace sx::tensor::kernels {
namespace {

::testing::AssertionResult BitEqual(const std::vector<float>& a,
                                    const std::vector<float>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "size " << a.size() << " != " << b.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a[i]) !=
        std::bit_cast<std::uint32_t>(b[i]))
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " vs " << b[i]
             << " (bits 0x" << std::hex << std::bit_cast<std::uint32_t>(a[i])
             << " vs 0x" << std::bit_cast<std::uint32_t>(b[i]) << ")";
  }
  return ::testing::AssertionSuccess();
}

std::vector<float> random_vec(std::size_t n, util::Xoshiro256& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.5, 1.5));
  return v;
}

/// Every dense wide variant the host can execute, scalar twin first.
std::vector<std::pair<const char*, DenseKernelFn>> dense_variants() {
  const platform::CpuProbe p = platform::probe_cpu();
  std::vector<std::pair<const char*, DenseKernelFn>> v;
  v.emplace_back("scalar", &matvec_wide_scalar);
  if (p.avx2) v.emplace_back("avx2", &matvec_wide_avx2);
  if (p.avx512f) v.emplace_back("avx512", &matvec_wide_avx512);
  return v;
}

std::vector<std::pair<const char*, DirectConvKernelFn>> conv_variants() {
  const platform::CpuProbe p = platform::probe_cpu();
  std::vector<std::pair<const char*, DirectConvKernelFn>> v;
  v.emplace_back("scalar", &conv2d_direct_scalar);
  if (p.avx2) v.emplace_back("avx2", &conv2d_direct_avx2);
  if (p.avx512f) v.emplace_back("avx512", &conv2d_direct_avx512);
  return v;
}

/// One conv layer with its wide panel, run through the reference
/// Conv2d::forward and through every probed direct-conv arm.
struct ConvCase {
  Conv2dGeom g;
  dl::Conv2d layer;
  std::vector<float> panel;

  explicit ConvCase(const Conv2dGeom& geom)
      : g(geom), layer{geom.in_c, geom.out_c, geom.k, geom.stride,
                       geom.pad} {}

  /// Mutable weights (out_c x patch) and bias of the layer.
  std::span<float> weights() {
    return layer.params().first(g.out_c * g.patch());
  }
  std::span<float> bias() { return layer.params().subspan(g.out_c * g.patch()); }

  /// Packs the panel from the layer's current weights.
  void pack() {
    panel.assign(wide_conv_panel_floats(g.out_c, g.patch()), -1.0f);
    pack_wide_conv_panel(layer.weights().data(), g.out_c, g.patch(),
                         panel.data());
  }

  std::vector<float> reference(const Tensor& in) const {
    const Shape out_shape = Shape::chw(g.out_c, g.out_h(), g.out_w());
    std::vector<float> ref(out_shape.size(), -7.0f);
    EXPECT_EQ(layer.forward(in.view(), TensorView{ref, out_shape}),
              Status::kOk);
    return ref;
  }

  std::vector<float> run(DirectConvKernelFn fn, const Tensor& in,
                         Epilogue ep, bool check, bool* ok) {
    std::vector<float> out(g.out_c * g.opix(), -7.0f);
    *ok = fn(panel.empty() ? nullptr : panel.data(),
             layer.weights().data(), layer.bias().data(), g,
             in.data().data(), out.data(), ep, check);
    return out;
  }
};

TEST(WideMatvec, BitwiseEqualsBlockedAcrossShapesAndIsas) {
  util::Xoshiro256 rng{2025};
  // Below / at / above the 16-row group, primes for ragged tails, the
  // benchmark sizes, and an exact two-group control.
  const std::size_t sizes[] = {1,  2,  3,  7,  8,  15, 16, 17,
                               23, 31, 32, 33, 48, 64, 100, 128};
  for (std::size_t rows : sizes) {
    for (std::size_t cols : {std::size_t{1}, std::size_t{3}, std::size_t{17},
                             std::size_t{32}, std::size_t{53}}) {
      const auto w = random_vec(rows * cols, rng);
      const auto b = random_vec(rows, rng);
      const auto x = random_vec(cols, rng);
      std::vector<float> ref(rows, -7.0f);
      ASSERT_TRUE(matvec_blocked(w.data(), b.data(), rows, cols, x.data(),
                                 ref.data(), Epilogue::kNone, true));

      std::vector<float> panel(wide_dense_panel_floats(rows, cols), -1.0f);
      pack_wide_dense_panel(w.data(), rows, cols, panel.data());
      for (const auto& [name, fn] : dense_variants()) {
        std::vector<float> out(rows, -7.0f);
        EXPECT_TRUE(fn(panel.data(), b.data(), rows, cols, x.data(),
                       out.data(), Epilogue::kNone, true));
        EXPECT_TRUE(BitEqual(out, ref))
            << rows << "x" << cols << " wide/" << name;
      }
    }
  }
}

TEST(WideMatvec, FusedEpiloguesMatchBlockedAcrossIsas) {
  util::Xoshiro256 rng{7};
  for (std::size_t rows : {std::size_t{5}, std::size_t{16}, std::size_t{19},
                           std::size_t{40}}) {
    const std::size_t cols = 23;
    const auto w = random_vec(rows * cols, rng);
    const auto b = random_vec(rows, rng);
    const auto x = random_vec(cols, rng);
    std::vector<float> panel(wide_dense_panel_floats(rows, cols));
    pack_wide_dense_panel(w.data(), rows, cols, panel.data());
    for (Epilogue ep : {Epilogue::kRelu, Epilogue::kSigmoid,
                        Epilogue::kTanh}) {
      std::vector<float> ref(rows);
      ASSERT_TRUE(matvec_blocked(w.data(), b.data(), rows, cols, x.data(),
                                 ref.data(), ep, true));
      for (const auto& [name, fn] : dense_variants()) {
        std::vector<float> out(rows);
        EXPECT_TRUE(fn(panel.data(), b.data(), rows, cols, x.data(),
                       out.data(), ep, true));
        EXPECT_TRUE(BitEqual(out, ref))
            << "rows=" << rows << " ep=" << static_cast<int>(ep) << " wide/"
            << name;
      }
    }
  }
}

TEST(WideMatvec, MisalignedOperandBasesStayBitwiseIdentical) {
  // The wide loads go through memcpy, so nothing may depend on 32/64-byte
  // operand alignment. Shift x, bias and out off the allocator's natural
  // alignment by one float and re-check identity.
  util::Xoshiro256 rng{31};
  const std::size_t rows = 37, cols = 29;
  const auto w = random_vec(rows * cols, rng);
  const auto raw_b = random_vec(rows + 1, rng);
  const auto raw_x = random_vec(cols + 1, rng);
  const float* b = raw_b.data() + 1;
  const float* x = raw_x.data() + 1;
  std::vector<float> ref(rows);
  ASSERT_TRUE(matvec_blocked(w.data(), b, rows, cols, x, ref.data(),
                             Epilogue::kRelu, true));
  std::vector<float> panel(wide_dense_panel_floats(rows, cols));
  pack_wide_dense_panel(w.data(), rows, cols, panel.data());
  for (const auto& [name, fn] : dense_variants()) {
    std::vector<float> raw_out(rows + 1, -7.0f);
    EXPECT_TRUE(fn(panel.data(), b, rows, cols, x, raw_out.data() + 1,
                   Epilogue::kRelu, true));
    EXPECT_TRUE(BitEqual(
        std::vector<float>(raw_out.begin() + 1, raw_out.end()), ref))
        << "wide/" << name;
  }
}

TEST(WideMatvec, CheckFlagsNonFinitePreActivation) {
  const std::size_t rows = 21, cols = 4;  // one full group + 5-row tail
  util::Xoshiro256 rng{3};
  auto w = random_vec(rows * cols, rng);
  const auto b = random_vec(rows, rng);
  const auto x = random_vec(cols, rng);
  w[5 * cols + 2] = std::numeric_limits<float>::quiet_NaN();   // in-group
  w[18 * cols + 1] = std::numeric_limits<float>::quiet_NaN();  // in-tail
  std::vector<float> panel(wide_dense_panel_floats(rows, cols));
  pack_wide_dense_panel(w.data(), rows, cols, panel.data());
  for (const auto& [name, fn] : dense_variants()) {
    std::vector<float> out(rows);
    EXPECT_FALSE(fn(panel.data(), b.data(), rows, cols, x.data(), out.data(),
                    Epilogue::kRelu, true))
        << "wide/" << name;
    // Unchecked mode still computes (campaigns compare raw propagation).
    EXPECT_TRUE(fn(panel.data(), b.data(), rows, cols, x.data(), out.data(),
                   Epilogue::kNone, false));
    EXPECT_TRUE(std::isnan(out[5])) << "wide/" << name;
    EXPECT_TRUE(std::isnan(out[18])) << "wide/" << name;
  }
}

TEST(WidePanel, DenseLayoutIsAlignedAndExhaustive) {
  EXPECT_EQ(wide_dense_panel_floats(16, 32) % kAlignFloats, 0u);
  EXPECT_EQ(wide_dense_panel_floats(1, 1), kAlignFloats);

  const std::size_t rows = 19, cols = 3;  // one full group + 3-row tail
  util::Xoshiro256 rng{41};
  const auto w = random_vec(rows * cols, rng);
  std::vector<float> panel(wide_dense_panel_floats(rows, cols), 99.0f);
  pack_wide_dense_panel(w.data(), rows, cols, panel.data());
  // Full group: panel[c * kWideRowBlock + r] == w[r * cols + c].
  for (std::size_t r = 0; r < kWideRowBlock; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      EXPECT_EQ(panel[c * kWideRowBlock + r], w[r * cols + c]);
  // Tail of 3 rows, interleaved at its own row count.
  const std::size_t tail_base = align_up(kWideRowBlock * cols);
  for (std::size_t r = 0; r < rows - kWideRowBlock; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      EXPECT_EQ(panel[tail_base + c * (rows - kWideRowBlock) + r],
                w[(kWideRowBlock + r) * cols + c]);
}

TEST(WideConv2d, BitwiseEqualsReferenceAcrossGeometriesAndIsas) {
  // Direct conv vs the reference loop over lane chunks and their tails
  // (in_w 1..33 against 8/16 lanes), every clipping pattern of k and pad,
  // both strides, and channel counts below / at / above the 8-channel
  // panel group (1, 4, 6: tail only; 8, 16: panel only; 9, 19: both).
  util::Xoshiro256 rng{11};
  std::size_t cases = 0;
  for (std::size_t in_w : {1u, 5u, 16u, 17u, 33u}) {
    for (std::size_t k : {1u, 3u, 5u}) {
      for (std::size_t pad : {0u, 1u, 2u}) {
        for (std::size_t stride : {1u, 2u}) {
          for (std::size_t out_c : {1u, 4u, 6u, 8u, 9u, 16u, 19u}) {
            const std::size_t in_c = 1 + (cases % 3), in_h = 4 + cases % 3;
            if (in_h + 2 * pad < k || in_w + 2 * pad < k) continue;
            ConvCase c{Conv2dGeom{.in_c = in_c, .in_h = in_h, .in_w = in_w,
                                  .out_c = out_c, .k = k, .stride = stride,
                                  .pad = pad}};
            c.layer.init(rng);
            for (float& b : c.bias())
              b = static_cast<float>(rng.uniform(-0.5, 0.5));
            c.pack();
            Tensor in{Shape::chw(in_c, in_h, in_w)};
            in.init_uniform(rng, -1.0f, 1.0f);
            const auto ref = c.reference(in);
            for (const auto& [name, fn] : conv_variants()) {
              bool ok = false;
              EXPECT_TRUE(BitEqual(c.run(fn, in, Epilogue::kNone, true, &ok),
                                   ref))
                  << "direct/" << name << " in_c=" << in_c << " in_w=" << in_w
                  << " k=" << k << " stride=" << stride << " pad=" << pad
                  << " out_c=" << out_c;
              EXPECT_TRUE(ok) << "direct/" << name;
            }
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_GT(cases, 500u);
}

TEST(WideConv2d, KernelWiderThanTheLaneCacheMatchesReference) {
  // k = 17 > LaneCache::kCachedK: the last kernel column's lane bits are
  // computed per tap instead of read from the per-chunk cache.
  util::Xoshiro256 rng{17};
  for (std::size_t stride : {1u, 2u}) {
    ConvCase c{Conv2dGeom{.in_c = 2, .in_h = 18, .in_w = 20, .out_c = 9,
                          .k = 17, .stride = stride, .pad = 2}};
    c.layer.init(rng);
    c.pack();
    Tensor in{Shape::chw(2, 18, 20)};
    in.init_uniform(rng, -1.0f, 1.0f);
    const auto ref = c.reference(in);
    for (const auto& [name, fn] : conv_variants()) {
      bool ok = false;
      EXPECT_TRUE(BitEqual(c.run(fn, in, Epilogue::kNone, true, &ok), ref))
          << "direct/" << name << " stride=" << stride;
      EXPECT_TRUE(ok);
    }
  }
}

TEST(WideConv2d, FusedEpiloguesMatchUnpackedAcrossIsas) {
  util::Xoshiro256 rng{13};
  const Conv2dGeom g{.in_c = 2, .in_h = 6, .in_w = 19, .out_c = 19, .k = 3,
                     .stride = 1, .pad = 1};
  ConvCase c{g};
  c.layer.init(rng);
  c.pack();
  Tensor in{Shape::chw(g.in_c, g.in_h, g.in_w)};
  in.init_uniform(rng, -1.0f, 1.0f);
  const std::size_t entries = im2col_entries(g);
  std::vector<std::uint32_t> pix_off(g.opix() + 1), in_idx(entries),
      w_ofs(entries);
  build_im2col_tables(g, pix_off.data(), in_idx.data(), w_ofs.data());
  std::vector<float> col(entries);
  im2col_gather(in.data().data(), in_idx.data(), entries, col.data());
  const ConvTables t{.out_c = g.out_c, .patch = g.patch(), .opix = g.opix(),
                     .pix_off = pix_off.data(), .in_idx = in_idx.data(),
                     .w_ofs = w_ofs.data()};
  const std::size_t n = g.out_c * g.opix();
  for (Epilogue ep : {Epilogue::kRelu, Epilogue::kSigmoid, Epilogue::kTanh}) {
    std::vector<float> ref(n);
    ASSERT_TRUE(conv2d_im2col(c.layer.weights().data(),
                              c.layer.bias().data(), t, col.data(),
                              ref.data(), ep, true));
    for (const auto& [name, fn] : conv_variants()) {
      bool ok = false;
      EXPECT_TRUE(BitEqual(c.run(fn, in, ep, true, &ok), ref))
          << "direct/" << name << " ep=" << static_cast<int>(ep);
      EXPECT_TRUE(ok);
    }
  }
}

TEST(WideConv2d, ClippedInfWeightDoesNotPoisonBorderOutputs) {
  // An Inf weight on tap (ky=0, kx=0) is only ever reached by pixels whose
  // top-left neighbour exists. The reference skips the clipped tap on the
  // top row and left column, so those outputs stay finite; a kernel that
  // multiplied the zero pad instead would make them 0 * Inf = NaN. One
  // poisoned channel in the panel group (2), one in the tail (9).
  const Conv2dGeom g{.in_c = 1, .in_h = 5, .in_w = 17, .out_c = 10, .k = 3,
                     .stride = 1, .pad = 1};
  ConvCase c{g};
  util::Xoshiro256 rng{19};
  c.layer.init(rng);
  const float inf = std::numeric_limits<float>::infinity();
  for (std::size_t oc : {2u, 9u}) c.weights()[oc * g.patch()] = inf;
  c.pack();
  Tensor in{Shape::chw(1, g.in_h, g.in_w)};
  in.init_uniform(rng, 0.5f, 1.5f);  // positive: interior outputs are +Inf
  const auto ref = c.reference(in);
  for (std::size_t oc : {2u, 9u}) {
    const float* plane = ref.data() + oc * g.opix();
    for (std::size_t ox = 0; ox < g.out_w(); ++ox)
      ASSERT_TRUE(std::isfinite(plane[ox])) << "top row, ox=" << ox;
    ASSERT_TRUE(std::isinf(plane[g.out_w() + 1]));
  }
  for (const auto& [name, fn] : conv_variants()) {
    bool ok = true;
    EXPECT_TRUE(BitEqual(c.run(fn, in, Epilogue::kNone, true, &ok), ref))
        << "direct/" << name;
    EXPECT_FALSE(ok) << "direct/" << name
                     << ": the interior Inf pre-activations must be flagged";
    // Unchecked, the same bits (the screen never changes the outputs).
    EXPECT_TRUE(BitEqual(c.run(fn, in, Epilogue::kNone, false, &ok), ref));
    EXPECT_TRUE(ok);
  }
}

TEST(WideConv2d, NegativeZeroBiasSurvivesFullyClippedPixels) {
  // k = 1 with pad = 2: the outer two rings of output pixels read no
  // input at all, so their output is the bias itself — -0.0 bit for bit.
  // Adding a zero pad product would turn it into +0.0.
  const Conv2dGeom g{.in_c = 2, .in_h = 3, .in_w = 9, .out_c = 9, .k = 1,
                     .stride = 1, .pad = 2};
  ConvCase c{g};
  util::Xoshiro256 rng{23};
  c.layer.init(rng);
  for (float& b : c.bias()) b = -0.0f;
  c.pack();
  Tensor in{Shape::chw(g.in_c, g.in_h, g.in_w)};
  in.init_uniform(rng, -1.0f, 1.0f);
  const auto ref = c.reference(in);
  ASSERT_EQ(std::bit_cast<std::uint32_t>(ref[0]), 0x80000000u);
  for (const auto& [name, fn] : conv_variants()) {
    bool ok = false;
    for (Epilogue ep : {Epilogue::kNone, Epilogue::kRelu}) {
      std::vector<float> want = ref;
      for (float& v : want) v = apply_epilogue(v, ep);
      EXPECT_TRUE(BitEqual(c.run(fn, in, ep, true, &ok), want))
          << "direct/" << name << " ep=" << static_cast<int>(ep);
      EXPECT_TRUE(ok);
    }
  }
}

TEST(WideConv2d, CheckFlagsNonFinitePreActivation) {
  // A NaN input pixel reaches the outputs around it in every channel; a
  // fused ReLU would squash it to 0, so the kernel must report it.
  const Conv2dGeom g{.in_c = 1, .in_h = 4, .in_w = 20, .out_c = 11, .k = 3,
                     .stride = 1, .pad = 1};
  ConvCase c{g};
  util::Xoshiro256 rng{29};
  c.layer.init(rng);
  c.pack();
  Tensor in{Shape::chw(1, g.in_h, g.in_w)};
  in.init_uniform(rng, -1.0f, 1.0f);
  in.data()[2 * g.in_w + 18] = std::numeric_limits<float>::quiet_NaN();
  for (const auto& [name, fn] : conv_variants()) {
    bool ok = true;
    const auto relu = c.run(fn, in, Epilogue::kRelu, true, &ok);
    EXPECT_FALSE(ok) << "direct/" << name;
    EXPECT_EQ(relu[2 * g.out_w() + 18], 0.0f) << "relu(NaN) stores 0";
    const auto raw = c.run(fn, in, Epilogue::kNone, false, &ok);
    EXPECT_TRUE(ok);
    EXPECT_TRUE(std::isnan(raw[2 * g.out_w() + 18])) << "direct/" << name;
    EXPECT_TRUE(std::isnan(raw[10 * g.opix() + 2 * g.out_w() + 18]))
        << "direct/" << name << " tail channel";
  }
}

/// A conv-heavy CNN: ~90% of its parameters are conv weights, and the
/// second conv's 10 channels split into one 8-channel panel group and 2
/// live tail channels — so random weight faults land in both.
const dl::Model& conv_heavy_cnn() {
  static const dl::Model model = [] {
    dl::ModelBuilder b{sx::testing::road_data().input_shape};
    b.conv2d(10, 3, 1, 1)
        .relu()
        .conv2d(10, 3, 1, 1)
        .relu()
        .maxpool(8)
        .flatten()
        .dense(dl::kRoadSceneClasses);
    dl::Model m = b.build(/*seed=*/31);
    dl::Trainer trainer{dl::TrainConfig{.learning_rate = 0.02,
                                        .momentum = 0.9,
                                        .epochs = 3,
                                        .batch_size = 16,
                                        .shuffle_seed = 5}};
    trainer.fit(m, sx::testing::road_data());
    return m;
  }();
  return model;
}

TEST(WideConvCampaign, ConvFaultsClassifyExactlyAsReferenceTwin) {
  // The default SIL2 channel runs the direct conv kernels over panelled
  // weights (kAuto -> kWide on a SIMD host). Faults in conv weights —
  // panel group and live tail channels — must be classified exactly as
  // by the kReference twin, and must change the same output bits.
  core::PipelineConfig cfg;
  cfg.criticality = core::Criticality::kSil2;
  core::CertifiablePipeline deployed{conv_heavy_cnn(),
                                     sx::testing::road_data(), cfg};
  cfg.kernel_mode = dl::KernelMode::kReference;
  core::CertifiablePipeline twin{conv_heavy_cnn(), sx::testing::road_data(),
                                 cfg};
  safety::InferenceChannel& ch = *deployed.channel();
  safety::InferenceChannel& ref = *twin.channel();
  const dl::KernelPlan* plan = ch.float_kernel_plan(0);
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(twin.channel()->float_kernel_plan(0), nullptr);

  // Targeted: one weight in a panel channel (3) and one in a tail channel
  // (9) of the second conv, every fault type.
  const std::size_t conv2 = 2, patch = 10 * 9;
  const auto& probe = sx::testing::road_data().samples[5].input;
  std::vector<float> a(ch.output_size()), b(ref.output_size());
  for (const std::size_t idx : {3 * patch + 40, 9 * patch + 4}) {
    for (const safety::FaultType type :
         {safety::FaultType::kBitFlip, safety::FaultType::kStuckZero,
          safety::FaultType::kStuckLarge}) {
      safety::FaultInjector inj{idx};
      const auto ra = inj.inject_at(ch.replica(0), type, conv2, idx, 30);
      ch.repack(0);
      const auto rb = inj.inject_at(ref.replica(0), type, conv2, idx, 30);
      ref.repack(0);
      const Status sa = ch.infer(probe.view(), a);
      const Status sb = ref.infer(probe.view(), b);
      EXPECT_EQ(sa, sb) << "param " << idx << " " << safety::to_string(type);
      if (ok(sa) && ok(sb)) {
        EXPECT_TRUE(BitEqual(a, b))
            << "param " << idx << " " << safety::to_string(type);
      }
      ch.undo_fault(0, ra);
      ref.undo_fault(0, rb);
    }
  }

  dl::Dataset probes;
  probes.num_classes = sx::testing::road_data().num_classes;
  probes.input_shape = sx::testing::road_data().input_shape;
  for (std::size_t i = 0; i < 16; ++i)
    probes.samples.push_back(sx::testing::road_data().samples[i]);
  for (const safety::FaultType type :
       {safety::FaultType::kBitFlip, safety::FaultType::kStuckLarge}) {
    const safety::CampaignConfig cc{.n_faults = 60, .probes_per_fault = 4,
                                    .fault_type = type, .seed = 29};
    const auto x = safety::run_campaign(ch, probes, cc);
    const auto y = safety::run_campaign(ref, probes, cc);
    EXPECT_EQ(x.correct, y.correct) << safety::to_string(type);
    EXPECT_EQ(x.detected, y.detected) << safety::to_string(type);
    EXPECT_EQ(x.fallback, y.fallback) << safety::to_string(type);
    EXPECT_EQ(x.sdc, y.sdc) << safety::to_string(type);
    if (type == safety::FaultType::kStuckLarge) {
      EXPECT_GT(x.detected + x.fallback + x.sdc, 0u)
          << "the campaign must reach the deployed conv weights";
    }
  }
}

TEST(WideDispatch, SelectorsReturnIsaSpecificEntryPoints) {
  EXPECT_EQ(wide_dense_kernel(WideIsa::kScalar), &matvec_wide_scalar);
  EXPECT_EQ(wide_dense_kernel(WideIsa::kAvx2), &matvec_wide_avx2);
  EXPECT_EQ(wide_dense_kernel(WideIsa::kAvx512), &matvec_wide_avx512);
  EXPECT_EQ(wide_conv_kernel(WideIsa::kScalar), &conv2d_direct_scalar);
  EXPECT_EQ(wide_conv_kernel(WideIsa::kAvx2), &conv2d_direct_avx2);
  EXPECT_EQ(wide_conv_kernel(WideIsa::kAvx512), &conv2d_direct_avx512);
  EXPECT_STREQ(wide_isa_name(WideIsa::kScalar), "scalar");
  EXPECT_STREQ(wide_isa_name(WideIsa::kAvx2), "avx2");
  EXPECT_STREQ(wide_isa_name(WideIsa::kAvx512), "avx512");
}

}  // namespace
}  // namespace sx::tensor::kernels
