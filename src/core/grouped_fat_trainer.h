// Names kept for code that still spells the grouped tuner separately.
//
// chip_tuner (core/fleet_executor.h) is the one retraining worker: tune()
// trains one chip and tune_group loops tune() over a group. Nothing throws
// grouped_nonfinite_error — a diverging chip recovers or stops inside its
// own episode (core/fat_trainer.h).
#pragma once

#include <stdexcept>
#include <string>

#include "core/fleet_executor.h"

namespace reduce {

using grouped_chip_tuner = chip_tuner;

/// Never thrown; kept so existing catch clauses still compile.
class grouped_nonfinite_error : public std::runtime_error {
public:
    explicit grouped_nonfinite_error(const std::string& what) : std::runtime_error(what) {}
};

}  // namespace reduce
