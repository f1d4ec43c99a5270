#include "data/frame.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <map>
#include <numeric>
#include <sstream>

#include "support/check.hpp"

namespace peachy::data {

std::string value_to_string(const Value& v) {
  return std::visit(
      [](const auto& x) -> std::string {
        using X = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<X, std::string>) {
          return x;
        } else if constexpr (std::is_same_v<X, double>) {
          std::ostringstream os;
          os.precision(12);
          os << x;
          return os.str();
        } else {
          return std::to_string(x);
        }
      },
      v);
}

Frame::Frame(std::vector<std::string> names, std::vector<ColType> types)
    : names_{std::move(names)}, types_{std::move(types)}, columns_(names_.size()) {
  PEACHY_CHECK(names_.size() == types_.size(), "frame: names/types size mismatch");
  PEACHY_CHECK(!names_.empty(), "frame needs at least one column");
  std::vector<std::string> sorted = names_;
  std::sort(sorted.begin(), sorted.end());
  PEACHY_CHECK(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
               "frame: duplicate column names");
}

std::size_t Frame::col_index(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  throw Error{"frame: no such column '" + name + "'"};
}

bool Frame::has_col(const std::string& name) const noexcept {
  return std::find(names_.begin(), names_.end(), name) != names_.end();
}

void Frame::check_value_type(const Value& v, ColType t, std::size_t col) const {
  const bool ok = (t == ColType::kDouble && std::holds_alternative<double>(v)) ||
                  (t == ColType::kInt && std::holds_alternative<std::int64_t>(v)) ||
                  (t == ColType::kString && std::holds_alternative<std::string>(v));
  PEACHY_CHECK(ok, "frame: wrong value type for column '" + names_[col] + "'");
}

void Frame::push_row(std::vector<Value> row) {
  PEACHY_CHECK(row.size() == cols(), "frame: row arity mismatch");
  for (std::size_t c = 0; c < row.size(); ++c) check_value_type(row[c], types_[c], c);
  for (std::size_t c = 0; c < row.size(); ++c) columns_[c].push_back(std::move(row[c]));
  ++nrows_;
}

const Value& Frame::cell(std::size_t row, std::size_t col) const {
  PEACHY_CHECK(row < nrows_ && col < cols(), "frame: cell out of range");
  return columns_[col][row];
}

double Frame::num(std::size_t row, const std::string& col) const {
  const Value& v = cell(row, col_index(col));
  if (const auto* d = std::get_if<double>(&v)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&v)) return static_cast<double>(*i);
  throw Error{"frame: column '" + col + "' is not numeric"};
}

std::int64_t Frame::integer(std::size_t row, const std::string& col) const {
  const Value& v = cell(row, col_index(col));
  if (const auto* i = std::get_if<std::int64_t>(&v)) return *i;
  throw Error{"frame: column '" + col + "' is not integer"};
}

const std::string& Frame::str(std::size_t row, const std::string& col) const {
  const Value& v = cell(row, col_index(col));
  if (const auto* s = std::get_if<std::string>(&v)) return *s;
  throw Error{"frame: column '" + col + "' is not string"};
}

std::vector<Value> Frame::row_values(std::size_t r) const {
  std::vector<Value> out;
  out.reserve(cols());
  for (std::size_t c = 0; c < cols(); ++c) out.push_back(columns_[c][r]);
  return out;
}

Frame Frame::select(const std::vector<std::string>& cols) const {
  std::vector<std::size_t> idx;
  std::vector<ColType> t;
  for (const auto& name : cols) {
    idx.push_back(col_index(name));
    t.push_back(types_[idx.back()]);
  }
  Frame out{cols, t};
  for (std::size_t r = 0; r < nrows_; ++r) {
    std::vector<Value> row;
    row.reserve(idx.size());
    for (std::size_t i : idx) row.push_back(columns_[i][r]);
    out.push_row(std::move(row));
  }
  return out;
}

Frame Frame::filter(const std::function<bool(std::size_t)>& pred) const {
  Frame out{names_, types_};
  for (std::size_t r = 0; r < nrows_; ++r) {
    if (pred(r)) out.push_row(row_values(r));
  }
  return out;
}

Frame Frame::group_by(const std::string& key_col, Agg agg, const std::string& value_col) const {
  const std::size_t kc = col_index(key_col);
  const std::size_t vc = col_index(value_col);
  PEACHY_CHECK(agg == Agg::kCount || types_[vc] != ColType::kString,
               "group_by: cannot aggregate a string column with " +
                   std::string{agg == Agg::kSum ? "sum" : "a numeric aggregate"});

  struct Acc {
    std::size_t order;
    std::int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  std::map<std::string, Acc> groups;  // keyed by rendered key (type-stable)
  std::vector<std::pair<std::string, Value>> key_order;  // rendered -> original

  for (std::size_t r = 0; r < nrows_; ++r) {
    const std::string k = value_to_string(columns_[kc][r]);
    auto [it, inserted] = groups.try_emplace(k);
    if (inserted) {
      it->second.order = key_order.size();
      key_order.emplace_back(k, columns_[kc][r]);
    }
    Acc& a = it->second;
    double x = 0.0;
    if (agg != Agg::kCount) {
      const Value& v = columns_[vc][r];
      x = std::holds_alternative<double>(v) ? std::get<double>(v)
                                            : static_cast<double>(std::get<std::int64_t>(v));
    }
    if (a.count == 0) {
      a.min = x;
      a.max = x;
    } else {
      a.min = std::min(a.min, x);
      a.max = std::max(a.max, x);
    }
    ++a.count;
    a.sum += x;
  }

  const std::string agg_name = [&] {
    switch (agg) {
      case Agg::kCount: return std::string{"count"};
      case Agg::kSum: return std::string{"sum_" + value_col};
      case Agg::kMean: return std::string{"mean_" + value_col};
      case Agg::kMin: return std::string{"min_" + value_col};
      case Agg::kMax: return std::string{"max_" + value_col};
    }
    return std::string{"agg"};
  }();
  const ColType out_type = agg == Agg::kCount ? ColType::kInt : ColType::kDouble;
  Frame out{{key_col, agg_name}, {types_[kc], out_type}};
  for (const auto& [rendered, original] : key_order) {
    const Acc& a = groups.at(rendered);
    Value result;
    switch (agg) {
      case Agg::kCount: result = a.count; break;
      case Agg::kSum: result = a.sum; break;
      case Agg::kMean: result = a.sum / static_cast<double>(a.count); break;
      case Agg::kMin: result = a.min; break;
      case Agg::kMax: result = a.max; break;
    }
    out.push_row({original, result});
  }
  return out;
}

Frame Frame::join(const Frame& other, const std::string& key_col) const {
  const std::size_t lk = col_index(key_col);
  const std::size_t rk = other.col_index(key_col);
  PEACHY_CHECK(types_[lk] == other.types_[rk], "join: key column types differ");

  // Output schema: all of ours + other's non-key columns.
  std::vector<std::string> names = names_;
  std::vector<ColType> types = types_;
  std::vector<std::size_t> rcols;
  for (std::size_t c = 0; c < other.cols(); ++c) {
    if (c == rk) continue;
    PEACHY_CHECK(!has_col(other.names_[c]),
                 "join: duplicate non-key column '" + other.names_[c] + "'");
    names.push_back(other.names_[c]);
    types.push_back(other.types_[c]);
    rcols.push_back(c);
  }
  Frame out{names, types};

  // Hash other side by rendered key.
  std::multimap<std::string, std::size_t> index;
  for (std::size_t r = 0; r < other.nrows_; ++r) {
    index.emplace(value_to_string(other.columns_[rk][r]), r);
  }
  for (std::size_t r = 0; r < nrows_; ++r) {
    const std::string k = value_to_string(columns_[lk][r]);
    auto [lo, hi] = index.equal_range(k);
    for (auto it = lo; it != hi; ++it) {
      std::vector<Value> row = row_values(r);
      for (std::size_t c : rcols) row.push_back(other.columns_[c][it->second]);
      out.push_row(std::move(row));
    }
  }
  return out;
}

Frame Frame::sort_by(const std::string& col, bool desc) const {
  const std::size_t c = col_index(col);
  std::vector<std::size_t> order(nrows_);
  std::iota(order.begin(), order.end(), 0);
  const auto less = [&](std::size_t a, std::size_t b) {
    const Value& va = columns_[c][a];
    const Value& vb = columns_[c][b];
    if (types_[c] == ColType::kString) return std::get<std::string>(va) < std::get<std::string>(vb);
    const double xa = std::holds_alternative<double>(va)
                          ? std::get<double>(va)
                          : static_cast<double>(std::get<std::int64_t>(va));
    const double xb = std::holds_alternative<double>(vb)
                          ? std::get<double>(vb)
                          : static_cast<double>(std::get<std::int64_t>(vb));
    return xa < xb;
  };
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return desc ? less(b, a) : less(a, b);
  });
  Frame out{names_, types_};
  for (std::size_t r : order) out.push_row(row_values(r));
  return out;
}

Frame Frame::head(std::size_t n) const {
  Frame out{names_, types_};
  for (std::size_t r = 0; r < std::min(n, nrows_); ++r) out.push_row(row_values(r));
  return out;
}

std::vector<CsvRow> Frame::to_csv() const {
  std::vector<CsvRow> rows;
  rows.reserve(nrows_ + 1);
  rows.push_back(names_);
  for (std::size_t r = 0; r < nrows_; ++r) {
    CsvRow row;
    row.reserve(cols());
    for (std::size_t c = 0; c < cols(); ++c) row.push_back(value_to_string(columns_[c][r]));
    rows.push_back(std::move(row));
  }
  return rows;
}

namespace {

// True when strto* parses all of `s` — what std::stoll / std::stod
// accept (no conversion or ERANGE is a failure), minus the exceptions.
template <typename T, typename Strto>
bool parse_whole(const std::string& s, T& out, Strto strto) {
  char* end = nullptr;
  errno = 0;
  const T v = strto(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size() || errno == ERANGE) return false;
  out = v;
  return true;
}

bool parse_int(const std::string& s, std::int64_t& out) {
  return parse_whole(s, out, [](const char* p, char** e) { return std::strtoll(p, e, 10); });
}

bool parse_double(const std::string& s, double& out) {
  return parse_whole(s, out, [](const char* p, char** e) { return std::strtod(p, e); });
}

}  // namespace

Frame Frame::from_csv(const std::vector<CsvRow>& rows) {
  PEACHY_CHECK(rows.size() >= 1, "frame from_csv: missing header");
  const CsvRow& header = rows.front();
  const std::size_t ncols = header.size();
  PEACHY_CHECK(ncols > 0, "frame from_csv: empty header");

  for (std::size_t r = 1; r < rows.size(); ++r) {
    PEACHY_CHECK(rows[r].size() == ncols,
                 "frame from_csv: row " + std::to_string(r + 1) + " is ragged");
  }
  // Infer each column's type from the data rows; a column stops being
  // scanned once one cell shows it is a string.  Every int cell is also a
  // double, so a cell is parsed as a double only once the column is not
  // all ints.
  std::vector<ColType> types(ncols, ColType::kInt);
  for (std::size_t c = 0; c < ncols; ++c) {
    bool all_int = true, all_num = true;
    for (std::size_t r = 1; r < rows.size() && all_num; ++r) {
      std::int64_t i;
      double d;
      if (all_int && parse_int(rows[r][c], i)) continue;
      all_int = false;
      all_num = parse_double(rows[r][c], d);
    }
    types[c] = all_int ? ColType::kInt : (all_num ? ColType::kDouble : ColType::kString);
    if (rows.size() == 1) types[c] = ColType::kString;  // no data: default to string
  }

  Frame out{header, types};
  for (std::size_t r = 1; r < rows.size(); ++r) {
    std::vector<Value> row;
    row.reserve(ncols);
    for (std::size_t c = 0; c < ncols; ++c) {
      switch (types[c]) {
        case ColType::kInt: {
          std::int64_t i = 0;
          parse_int(rows[r][c], i);
          row.emplace_back(i);
          break;
        }
        case ColType::kDouble: {
          double d = 0;
          parse_double(rows[r][c], d);
          row.emplace_back(d);
          break;
        }
        case ColType::kString:
          row.emplace_back(rows[r][c]);
          break;
      }
    }
    out.push_row(std::move(row));
  }
  return out;
}

std::string Frame::to_string(std::size_t max_rows) const {
  std::ostringstream os;
  for (std::size_t c = 0; c < cols(); ++c) os << (c ? " | " : "") << names_[c];
  os << '\n';
  for (std::size_t r = 0; r < std::min(nrows_, max_rows); ++r) {
    for (std::size_t c = 0; c < cols(); ++c) {
      os << (c ? " | " : "") << value_to_string(columns_[c][r]);
    }
    os << '\n';
  }
  if (nrows_ > max_rows) os << "... (" << nrows_ - max_rows << " more rows)\n";
  return os.str();
}

}  // namespace peachy::data
