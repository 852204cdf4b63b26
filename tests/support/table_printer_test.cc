#include "support/table_printer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "temp_path.h"

namespace opim {
namespace {

TEST(TablePrinterTest, AlignedOutputContainsHeadersAndRows) {
  TablePrinter t({"name", "value"});
  t.AddRow({"alpha", "0.5"});
  t.AddRow({"beta", "0.25"});
  std::string out = t.ToAlignedString();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("0.25"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);  // header rule
}

TEST(TablePrinterTest, ColumnsAreAligned) {
  TablePrinter t({"a", "b"});
  t.AddRow({"xxxxxxxx", "1"});
  t.AddRow({"y", "2"});
  std::string out = t.ToAlignedString();
  // Each line's second column starts at the same offset: find "1" and "2".
  size_t pos1 = out.find("1\n");
  size_t pos2 = out.find("2\n");
  size_t line1_start = out.rfind('\n', pos1) + 1;
  size_t line2_start = out.rfind('\n', pos2) + 1;
  EXPECT_EQ(pos1 - line1_start, pos2 - line2_start);
}

TEST(TablePrinterTest, CsvBasic) {
  TablePrinter t({"x", "y"});
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.ToCsvString(), "x,y\n1,2\n");
}

TEST(TablePrinterTest, CsvEscapesSpecialCharacters) {
  TablePrinter t({"a"});
  t.AddRow({"has,comma"});
  t.AddRow({"has\"quote"});
  std::string csv = t.ToCsvString();
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(TablePrinterTest, CellFormatting) {
  EXPECT_EQ(TablePrinter::Cell(static_cast<uint64_t>(42)), "42");
  EXPECT_EQ(TablePrinter::Cell(static_cast<int64_t>(-7)), "-7");
  EXPECT_EQ(TablePrinter::Cell(0.5, 3), "0.5");
  EXPECT_EQ(TablePrinter::Cell(1234.5678, 6), "1234.57");
}

TEST(TablePrinterTest, WriteCsvRoundTrips) {
  TablePrinter t({"k", "v"});
  t.AddRow({"1", "a"});
  std::string path = TestTempPath("opim_table_test.csv");
  ASSERT_TRUE(t.WriteCsv(path).ok());
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "k,v");
  std::getline(f, line);
  EXPECT_EQ(line, "1,a");
  std::remove(path.c_str());
}

TEST(TablePrinterTest, WriteCsvToBadPathFails) {
  TablePrinter t({"a"});
  Status st = t.WriteCsv("/nonexistent_dir_xyz/file.csv");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
}

TEST(TablePrinterTest, CountsTracked) {
  TablePrinter t({"a", "b", "c"});
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_EQ(t.num_rows(), 0u);
  t.AddRow({"1", "2", "3"});
  EXPECT_EQ(t.num_rows(), 1u);
}

}  // namespace
}  // namespace opim
