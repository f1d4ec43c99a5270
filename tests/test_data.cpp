// Tests for peachy::data — CSV round trips, PointSet invariants, dataset
// generators, train/test splitting, normalization, and the Frame
// mini-dataframe's relational operators.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "data/csv.hpp"
#include "data/frame.hpp"
#include "data/points.hpp"
#include "support/check.hpp"

namespace pd = peachy::data;

// ---- csv --------------------------------------------------------------------

TEST(Csv, ParsesSimpleRows) {
  const auto rows = pd::read_csv_string("a,b,c\n1,2,3\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (pd::CsvRow{"a", "b", "c"}));
  EXPECT_EQ(rows[1], (pd::CsvRow{"1", "2", "3"}));
}

TEST(Csv, HandlesQuotedFields) {
  const auto rows = pd::read_csv_string("\"hello, world\",\"say \"\"hi\"\"\",plain\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "hello, world");
  EXPECT_EQ(rows[0][1], "say \"hi\"");
  EXPECT_EQ(rows[0][2], "plain");
}

TEST(Csv, HandlesEmbeddedNewlineInQuotes) {
  const auto rows = pd::read_csv_string("\"line1\nline2\",x\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "line1\nline2");
}

TEST(Csv, EmptyFieldsPreserved) {
  const auto rows = pd::read_csv_string("a,,c\n,,\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (pd::CsvRow{"a", "", "c"}));
  EXPECT_EQ(rows[1], (pd::CsvRow{"", "", ""}));
}

TEST(Csv, LastLineWithoutNewline) {
  const auto rows = pd::read_csv_string("a,b\nc,d");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (pd::CsvRow{"c", "d"}));
}

TEST(Csv, CrLfTolerated) {
  const auto rows = pd::read_csv_string("a,b\r\nc,d\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (pd::CsvRow{"a", "b"}));
}

TEST(Csv, UnterminatedQuoteThrows) {
  EXPECT_THROW((void)pd::read_csv_string("\"oops\n"), peachy::Error);
}

TEST(Csv, GarbageAfterClosingQuoteThrows) {
  // `"a"b` used to parse silently as `ab`; now it is a named error that
  // points at the offending line.
  EXPECT_THROW((void)pd::read_csv_string("\"a\"b,c\n"), peachy::Error);
  try {
    (void)pd::read_csv_string("ok,row\n\"a\"b\n");
    FAIL() << "expected peachy::Error";
  } catch (const peachy::Error& e) {
    EXPECT_NE(std::string{e.what()}.find("line 2"), std::string::npos) << e.what();
    EXPECT_NE(std::string{e.what()}.find("garbage after closing quote"),
              std::string::npos)
        << e.what();
  }
  // A new quote opening right after a closed field is the same defect
  // (`"a" "b"` — note the separator-less space, caught as garbage).
  EXPECT_THROW((void)pd::read_csv_string("\"a\" \"b\",c\n"), peachy::Error);
  // But an escaped quote inside the field stays legal.
  EXPECT_EQ(pd::read_csv_string("\"a\"\"b\",c\n"),
            (std::vector<pd::CsvRow>{{"a\"b", "c"}}));
}

TEST(Csv, QuotedCrlfFieldRoundTrips) {
  const std::vector<pd::CsvRow> original{{"crlf\r\ninside", "plain"}};
  const auto text = pd::write_csv_string(original);
  EXPECT_EQ(pd::read_csv_string(text), original);
  // And parsing an explicit quoted CRLF keeps both characters.
  const auto rows = pd::read_csv_string("\"a\r\nb\",c\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (pd::CsvRow{"a\r\nb", "c"}));
}

TEST(Csv, RoundTripsTrickyContent) {
  const std::vector<pd::CsvRow> original{
      {"plain", "with,comma", "with\"quote"},
      {"multi\nline", "", "trailing space "},
  };
  const auto text = pd::write_csv_string(original);
  EXPECT_EQ(pd::read_csv_string(text), original);
}

TEST(Csv, MissingFileThrows) {
  EXPECT_THROW((void)pd::read_csv_file("/nonexistent/nope.csv"), peachy::Error);
}

// ---- point set ------------------------------------------------------------------

TEST(PointSet, ConstructAndAccess) {
  pd::PointSet p{3, 2};
  p.at(1, 0) = 5.0;
  EXPECT_EQ(p.size(), 3u);
  EXPECT_EQ(p.dims(), 2u);
  EXPECT_DOUBLE_EQ(p.point(1)[0], 5.0);
  EXPECT_DOUBLE_EQ(p.point(1)[1], 0.0);
}

TEST(PointSet, FromValuesValidatesSize) {
  EXPECT_NO_THROW((pd::PointSet{2, 2, {1, 2, 3, 4}}));
  EXPECT_THROW((pd::PointSet{2, 2, {1, 2, 3}}), peachy::Error);
}

TEST(PointSet, PushBackFixesDimension) {
  pd::PointSet p;
  const double a[] = {1.0, 2.0, 3.0};
  p.push_back(a);
  EXPECT_EQ(p.dims(), 3u);
  const double b[] = {4.0, 5.0};
  EXPECT_THROW(p.push_back(b), peachy::Error);
}

TEST(PointSet, SquaredDistance) {
  pd::PointSet p{1, 2, {0.0, 0.0}};
  const double q[] = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(p.squared_distance(0, q), 25.0);
}

TEST(PointSet, OutOfRangeThrows) {
  pd::PointSet p{2, 2};
  EXPECT_THROW((void)p.point(2), peachy::Error);
  EXPECT_THROW((void)p.at(0, 5), peachy::Error);
}

// ---- generators ------------------------------------------------------------------

TEST(Generators, GaussianBlobsShapeAndLabels) {
  pd::BlobsSpec spec;
  spec.points_per_class = 50;
  spec.classes = 4;
  spec.dims = 3;
  const auto data = pd::gaussian_blobs(spec);
  EXPECT_EQ(data.size(), 200u);
  EXPECT_EQ(data.dims(), 3u);
  EXPECT_EQ(data.num_classes(), 4u);
}

TEST(Generators, GaussianBlobsReproducible) {
  pd::BlobsSpec spec;
  spec.seed = 7;
  const auto a = pd::gaussian_blobs(spec);
  const auto b = pd::gaussian_blobs(spec);
  EXPECT_EQ(a.points.values(), b.points.values());
  spec.seed = 8;
  const auto c = pd::gaussian_blobs(spec);
  EXPECT_NE(a.points.values(), c.points.values());
}

TEST(Generators, TightBlobsAreSeparable) {
  // With tiny spread, every point must be far closer to its own class
  // centroid than to any other — the k-means/kNN ground truth.
  pd::BlobsSpec spec;
  spec.points_per_class = 30;
  spec.classes = 3;
  spec.spread = 0.01;
  spec.seed = 3;
  const auto data = pd::gaussian_blobs(spec);
  // Compute per-class centroids.
  std::vector<std::vector<double>> centroid(3, std::vector<double>(data.dims(), 0.0));
  std::vector<int> count(3, 0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto c = data.labels[i];
    ++count[c];
    for (std::size_t j = 0; j < data.dims(); ++j) centroid[c][j] += data.points.at(i, j);
  }
  for (int c = 0; c < 3; ++c) {
    for (auto& x : centroid[c]) x /= count[c];
  }
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto own = data.labels[i];
    const double down = data.points.squared_distance(i, centroid[own]);
    for (int c = 0; c < 3; ++c) {
      if (c == own) continue;
      EXPECT_LT(down, data.points.squared_distance(i, centroid[c]));
    }
  }
}

TEST(Generators, TwoMoonsShape) {
  const auto data = pd::two_moons(100, 0.05, 5);
  EXPECT_EQ(data.size(), 200u);
  EXPECT_EQ(data.dims(), 2u);
  EXPECT_EQ(data.num_classes(), 2u);
}

TEST(Generators, UniformPointsInBox) {
  const auto p = pd::uniform_points(500, 3, -2.0, 2.0, 11);
  for (std::size_t i = 0; i < p.size(); ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_GE(p.at(i, j), -2.0);
      EXPECT_LT(p.at(i, j), 2.0);
    }
  }
}

TEST(Generators, RejectsBadSpecs) {
  pd::BlobsSpec bad;
  bad.classes = 0;
  EXPECT_THROW((void)pd::gaussian_blobs(bad), peachy::Error);
  EXPECT_THROW((void)pd::two_moons(0, 0.1, 1), peachy::Error);
  EXPECT_THROW((void)pd::uniform_points(5, 0, 0, 1, 1), peachy::Error);
}

// ---- split & normalize ------------------------------------------------------------

TEST(Split, PartitionsWithoutLossOrDuplication) {
  pd::BlobsSpec spec;
  spec.points_per_class = 40;
  spec.classes = 2;
  spec.dims = 1;
  spec.seed = 13;
  const auto all = pd::gaussian_blobs(spec);
  const auto split = pd::train_test_split(all, 0.25, 99);
  EXPECT_EQ(split.test.size(), 20u);
  EXPECT_EQ(split.train.size(), 60u);
  // Every original coordinate value appears exactly once across the split
  // (1-D values are almost surely distinct).
  std::multiset<double> orig(all.points.values().begin(), all.points.values().end());
  std::multiset<double> both;
  for (double v : split.train.points.values()) both.insert(v);
  for (double v : split.test.points.values()) both.insert(v);
  EXPECT_EQ(orig, both);
}

TEST(Split, RejectsDegenerateFractions) {
  pd::BlobsSpec spec;
  const auto all = pd::gaussian_blobs(spec);
  EXPECT_THROW((void)pd::train_test_split(all, 0.0, 1), peachy::Error);
  EXPECT_THROW((void)pd::train_test_split(all, 1.0, 1), peachy::Error);
}

TEST(Normalize, ZscoreGivesZeroMeanUnitVariance) {
  auto p = pd::uniform_points(1000, 2, 5.0, 9.0, 3);
  pd::zscore_normalize(p);
  for (std::size_t j = 0; j < 2; ++j) {
    double sum = 0, ss = 0;
    for (std::size_t i = 0; i < p.size(); ++i) sum += p.at(i, j);
    const double m = sum / static_cast<double>(p.size());
    for (std::size_t i = 0; i < p.size(); ++i) ss += (p.at(i, j) - m) * (p.at(i, j) - m);
    EXPECT_NEAR(m, 0.0, 1e-9);
    EXPECT_NEAR(ss / static_cast<double>(p.size()), 1.0, 1e-9);
  }
}

TEST(Normalize, AppliesTrainStatsToTest) {
  pd::PointSet train{2, 1, {0.0, 2.0}};   // mean 1, sd 1
  pd::PointSet test{1, 1, {3.0}};
  pd::zscore_normalize(train, &test);
  EXPECT_DOUBLE_EQ(test.at(0, 0), 2.0);  // (3-1)/1
}

TEST(Normalize, ConstantDimensionLeftAlone) {
  pd::PointSet p{3, 1, {4.0, 4.0, 4.0}};
  pd::zscore_normalize(p);
  EXPECT_DOUBLE_EQ(p.at(1, 0), 4.0);
}

// ---- labeled csv round trip ----------------------------------------------------------

TEST(LabeledCsv, RoundTripsExactly) {
  pd::BlobsSpec spec;
  spec.points_per_class = 10;
  spec.classes = 2;
  spec.dims = 4;
  const auto data = pd::gaussian_blobs(spec);
  const auto back = pd::from_csv(pd::to_csv(data));
  EXPECT_EQ(back.labels, data.labels);
  ASSERT_EQ(back.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (std::size_t j = 0; j < data.dims(); ++j) {
      EXPECT_DOUBLE_EQ(back.points.at(i, j), data.points.at(i, j));
    }
  }
}

TEST(LabeledCsv, RejectsMalformedInput) {
  EXPECT_THROW((void)pd::from_csv({{"x0", "label"}}), peachy::Error);  // no data
  EXPECT_THROW((void)pd::from_csv({{"x0", "label"}, {"abc", "0"}}), peachy::Error);
  EXPECT_THROW((void)pd::from_csv({{"x0", "label"}, {"1.0", "zero"}}), peachy::Error);
  EXPECT_THROW((void)pd::from_csv({{"x0", "label"}, {"1.0", "0"}, {"2.0"}}), peachy::Error);
}

// ---- frame -------------------------------------------------------------------------

namespace {

pd::Frame sample_frame() {
  pd::Frame f{{"nta", "borough", "arrests"},
              {pd::ColType::kString, pd::ColType::kString, pd::ColType::kInt}};
  f.push_row({std::string{"BK01"}, std::string{"Brooklyn"}, std::int64_t{10}});
  f.push_row({std::string{"BK02"}, std::string{"Brooklyn"}, std::int64_t{30}});
  f.push_row({std::string{"MN01"}, std::string{"Manhattan"}, std::int64_t{20}});
  return f;
}

}  // namespace

TEST(Frame, SchemaValidation) {
  EXPECT_THROW((pd::Frame{{"a", "a"}, {pd::ColType::kInt, pd::ColType::kInt}}), peachy::Error);
  EXPECT_THROW((pd::Frame{{"a"}, {}}), peachy::Error);
  auto f = sample_frame();
  EXPECT_THROW(f.push_row({std::string{"X"}, std::string{"Y"}}), peachy::Error);
  EXPECT_THROW(f.push_row({std::string{"X"}, std::string{"Y"}, 1.5}), peachy::Error);
}

TEST(Frame, SelectReordersColumns) {
  const auto f = sample_frame().select({"arrests", "nta"});
  EXPECT_EQ(f.names(), (std::vector<std::string>{"arrests", "nta"}));
  EXPECT_EQ(f.integer(1, "arrests"), 30);
  EXPECT_THROW((void)sample_frame().select({"missing"}), peachy::Error);
}

TEST(Frame, FilterKeepsMatchingRows) {
  const auto f = sample_frame();
  const auto brooklyn = f.filter([&](std::size_t r) { return f.str(r, "borough") == "Brooklyn"; });
  EXPECT_EQ(brooklyn.rows(), 2u);
  EXPECT_EQ(brooklyn.str(1, "nta"), "BK02");
}

TEST(Frame, GroupByCountAndSum) {
  const auto f = sample_frame();
  const auto counts = f.group_by("borough", pd::Frame::Agg::kCount, "borough");
  ASSERT_EQ(counts.rows(), 2u);
  EXPECT_EQ(counts.str(0, "borough"), "Brooklyn");
  EXPECT_EQ(counts.integer(0, "count"), 2);
  EXPECT_EQ(counts.integer(1, "count"), 1);

  const auto sums = f.group_by("borough", pd::Frame::Agg::kSum, "arrests");
  EXPECT_DOUBLE_EQ(sums.num(0, "sum_arrests"), 40.0);
  EXPECT_DOUBLE_EQ(sums.num(1, "sum_arrests"), 20.0);
}

TEST(Frame, GroupByMeanMinMax) {
  const auto f = sample_frame();
  EXPECT_DOUBLE_EQ(
      f.group_by("borough", pd::Frame::Agg::kMean, "arrests").num(0, "mean_arrests"), 20.0);
  EXPECT_DOUBLE_EQ(f.group_by("borough", pd::Frame::Agg::kMin, "arrests").num(0, "min_arrests"),
                   10.0);
  EXPECT_DOUBLE_EQ(f.group_by("borough", pd::Frame::Agg::kMax, "arrests").num(0, "max_arrests"),
                   30.0);
}

TEST(Frame, GroupByRejectsStringAggregate) {
  const auto f = sample_frame();
  EXPECT_THROW((void)f.group_by("borough", pd::Frame::Agg::kSum, "nta"), peachy::Error);
}

TEST(Frame, JoinMatchesOnKey) {
  const auto f = sample_frame();
  pd::Frame pop{{"nta", "population"}, {pd::ColType::kString, pd::ColType::kInt}};
  pop.push_row({std::string{"BK01"}, std::int64_t{50000}});
  pop.push_row({std::string{"MN01"}, std::int64_t{80000}});
  pop.push_row({std::string{"QN01"}, std::int64_t{70000}});  // unmatched

  const auto joined = f.join(pop, "nta");
  ASSERT_EQ(joined.rows(), 2u);  // BK02 has no population row; QN01 no arrests
  EXPECT_EQ(joined.str(0, "nta"), "BK01");
  EXPECT_EQ(joined.integer(0, "population"), 50000);
  EXPECT_EQ(joined.integer(1, "population"), 80000);
}

TEST(Frame, JoinRejectsDuplicateColumns) {
  const auto f = sample_frame();
  EXPECT_THROW((void)f.join(sample_frame(), "nta"), peachy::Error);
}

TEST(Frame, SortByNumericAndString) {
  const auto by_arrests = sample_frame().sort_by("arrests", /*desc=*/true);
  EXPECT_EQ(by_arrests.integer(0, "arrests"), 30);
  EXPECT_EQ(by_arrests.integer(2, "arrests"), 10);
  const auto by_name = sample_frame().sort_by("nta");
  EXPECT_EQ(by_name.str(0, "nta"), "BK01");
  EXPECT_EQ(by_name.str(2, "nta"), "MN01");
}

TEST(Frame, HeadTruncates) {
  EXPECT_EQ(sample_frame().head(2).rows(), 2u);
  EXPECT_EQ(sample_frame().head(99).rows(), 3u);
}

TEST(Frame, CsvRoundTripInfersTypes) {
  const auto csv = sample_frame().to_csv();
  const auto back = pd::Frame::from_csv(csv);
  EXPECT_EQ(back.types()[0], pd::ColType::kString);
  EXPECT_EQ(back.types()[2], pd::ColType::kInt);
  EXPECT_EQ(back.integer(1, "arrests"), 30);
}

TEST(Frame, FromCsvInfersDoubleForMixedNumeric) {
  const auto f = pd::Frame::from_csv({{"v"}, {"1"}, {"2.5"}});
  EXPECT_EQ(f.types()[0], pd::ColType::kDouble);
  EXPECT_DOUBLE_EQ(f.num(1, "v"), 2.5);
}

// Type inference accepts a cell as a number exactly when std::stoll /
// std::stod would: leading blanks and a sign are fine, the whole cell
// must be consumed, and out-of-range values (both ways) are strings.
TEST(Frame, FromCsvInfersCellTypesLikeStollAndStod) {
  using T = pd::ColType;
  const std::tuple<const char*, T, pd::Value> cases[] = {
      {" 12", T::kInt, std::int64_t{12}},      {"+3", T::kInt, std::int64_t{3}},
      {"1e400", T::kString, "1e400"},          {"1e-400", T::kString, "1e-400"},
      {"0x1A", T::kDouble, 26.0},              {"12abc", T::kString, "12abc"},
      {"inf", T::kDouble, std::numeric_limits<double>::infinity()},
      {"", T::kString, ""}};
  for (const auto& [cell, type, value] : cases) {
    const auto f = pd::Frame::from_csv({{"v"}, {cell}});
    EXPECT_EQ(f.types()[0], type) << '"' << cell << '"';
    EXPECT_EQ(f.cell(0, 0), value) << '"' << cell << '"';
  }
  const auto nan = pd::Frame::from_csv({{"v"}, {"nan"}});
  EXPECT_EQ(nan.types()[0], pd::ColType::kDouble);
  EXPECT_TRUE(std::isnan(nan.num(0, "v")));

  // A column settled as a string early still has every row checked.
  EXPECT_THROW((void)pd::Frame::from_csv({{"s", "n"}, {"x", "1"}, {"y", "2"}, {"z"}}),
               peachy::Error);
}
