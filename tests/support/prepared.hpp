// Bit identity of two PreparedDatasets on every buffer a join reads: FP16
// rows, decoded values, RZ norms and resident panels — row padding and
// the last panel's zero tail lanes included.

#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "core/fasted.hpp"

namespace fasted::test_support {

inline void expect_prepared_equal(const PreparedDataset& got,
                                  const PreparedDataset& want,
                                  const std::string& label) {
  ASSERT_EQ(got.rows(), want.rows()) << label;
  ASSERT_EQ(got.dims(), want.dims()) << label;
  const MatrixF16& gq = got.quantized();
  const MatrixF16& wq = want.quantized();
  for (std::size_t i = 0; i < got.rows() * gq.stride(); ++i) {
    ASSERT_EQ(gq.data()[i].bits(), wq.data()[i].bits())
        << label << " fp16 row " << i / gq.stride();
  }
  const MatrixF32& gv = got.values();
  const MatrixF32& wv = want.values();
  for (std::size_t i = 0; i < got.rows() * gv.stride(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(gv.data()[i]),
              std::bit_cast<std::uint32_t>(wv.data()[i]))
        << label << " values row " << i / gv.stride();
  }
  ASSERT_EQ(got.norms().size(), want.norms().size()) << label;
  for (std::size_t i = 0; i < got.norms().size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got.norms()[i]),
              std::bit_cast<std::uint32_t>(want.norms()[i]))
        << label << " norm " << i;
  }
  ASSERT_EQ(got.panels().size(), want.panels().size()) << label;
  for (std::size_t i = 0; i < got.panels().size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got.panels()[i]),
              std::bit_cast<std::uint32_t>(want.panels()[i]))
        << label << " panel " << i / got.panel_floats();
  }
}

}  // namespace fasted::test_support
