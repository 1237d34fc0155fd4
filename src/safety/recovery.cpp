#include "safety/recovery.hpp"

#include <stdexcept>

namespace sx::safety {

RecoveryBlockChannel::RecoveryBlockChannel(const dl::Model& primary,
                                           const dl::Model& alternate,
                                           MonitorConfig acceptance)
    : primary_(primary, dl::StaticEngineConfig{.check_numeric_faults = true}),
      alternate_(alternate,
                 dl::StaticEngineConfig{.check_numeric_faults = true}),
      acceptance_(acceptance) {
  if (primary.output_shape() != alternate.output_shape() ||
      primary.input_shape() != alternate.input_shape())
    throw std::invalid_argument(
        "RecoveryBlockChannel: primary/alternate shape mismatch");
}

Status RecoveryBlockChannel::infer(tensor::ConstTensorView in,
                                   std::span<float> out) noexcept {
  const Status p = primary_.run(in, out);
  if (ok(p) && ok(acceptance_.check_output(out))) return Status::kOk;

  ++recoveries_;
  const Status a = alternate_.run(in, out);
  if (ok(a) && ok(acceptance_.check_output(out))) return Status::kOk;

  ++double_failures_;
  return Status::kRedundancyFault;
}

}  // namespace sx::safety
