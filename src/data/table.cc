#include "data/table.h"

#include <algorithm>
#include <map>

#include "util/check.h"

namespace ektelo {

bool Condition::Eval(uint32_t code) const {
  switch (op) {
    case CmpOp::kEq:
      return code == value;
    case CmpOp::kNe:
      return code != value;
    case CmpOp::kLt:
      return code < value;
    case CmpOp::kLe:
      return code <= value;
    case CmpOp::kGt:
      return code > value;
    case CmpOp::kGe:
      return code >= value;
  }
  return false;
}

Predicate&& Predicate::And(std::string attr, CmpOp op, uint32_t value) && {
  conjuncts.push_back({std::move(attr), op, value});
  return std::move(*this);
}

Table::Table(Schema schema)
    : schema_(std::move(schema)), columns_(schema_.num_attrs()) {}

void Table::AppendRow(const std::vector<uint32_t>& codes) {
  EK_CHECK_EQ(codes.size(), schema_.num_attrs());
  for (std::size_t a = 0; a < codes.size(); ++a) {
    EK_CHECK_LT(codes[a], schema_.attr(a).domain_size);
    columns_[a].push_back(codes[a]);
  }
  ++num_rows_;
}

Table Table::Where(const Predicate& p) const {
  // Resolve attribute indices once.
  std::vector<std::size_t> attr_idx;
  attr_idx.reserve(p.conjuncts.size());
  for (const auto& c : p.conjuncts)
    attr_idx.push_back(schema_.AttrIndex(c.attr));

  Table out(schema_);
  std::vector<uint32_t> row(schema_.num_attrs());
  for (std::size_t r = 0; r < num_rows_; ++r) {
    bool keep = true;
    for (std::size_t k = 0; k < p.conjuncts.size(); ++k) {
      if (!p.conjuncts[k].Eval(columns_[attr_idx[k]][r])) {
        keep = false;
        break;
      }
    }
    if (!keep) continue;
    for (std::size_t a = 0; a < row.size(); ++a) row[a] = columns_[a][r];
    out.AppendRow(row);
  }
  return out;
}

Table Table::Select(const std::vector<std::string>& attrs) const {
  Schema sub = schema_.Project(attrs);
  std::vector<std::size_t> idx;
  idx.reserve(attrs.size());
  for (const auto& a : attrs) idx.push_back(schema_.AttrIndex(a));

  Table out(sub);
  std::vector<uint32_t> row(attrs.size());
  for (std::size_t r = 0; r < num_rows_; ++r) {
    for (std::size_t k = 0; k < idx.size(); ++k) row[k] = columns_[idx[k]][r];
    out.AppendRow(row);
  }
  return out;
}

Table Table::GroupBy(const std::vector<std::string>& attrs) const {
  std::vector<std::size_t> idx;
  for (const auto& a : attrs) idx.push_back(schema_.AttrIndex(a));
  std::map<std::vector<uint32_t>, std::size_t> first_row;
  for (std::size_t r = 0; r < num_rows_; ++r) {
    std::vector<uint32_t> key(idx.size());
    for (std::size_t k = 0; k < idx.size(); ++k) key[k] = columns_[idx[k]][r];
    first_row.emplace(std::move(key), r);
  }
  Table out(schema_);
  std::vector<uint32_t> row(schema_.num_attrs());
  for (const auto& [key, r] : first_row) {
    for (std::size_t a = 0; a < row.size(); ++a) row[a] = columns_[a][r];
    out.AppendRow(row);
  }
  return out;
}

std::vector<Table> Table::SplitByPartition(const std::string& attr) const {
  const std::size_t ai = schema_.AttrIndex(attr);
  const std::size_t groups = schema_.attr(ai).domain_size;
  std::vector<Table> out(groups, Table(schema_));
  std::vector<uint32_t> row(schema_.num_attrs());
  for (std::size_t r = 0; r < num_rows_; ++r) {
    for (std::size_t a = 0; a < row.size(); ++a) row[a] = columns_[a][r];
    out[columns_[ai][r]].AppendRow(row);
  }
  return out;
}

Vec Table::Vectorize() const {
  Vec x(schema_.TotalDomainSize(), 0.0);
  // Row-major cell indices (Schema::FlattenIndex order), accumulated one
  // column at a time over a cache-sized block of rows, then scattered.
  // Counts are sums of 1.0, exact in any order.
  constexpr std::size_t kBlock = 4096;
  std::vector<std::size_t> cell(std::min(kBlock, num_rows_));
  for (std::size_t r0 = 0; r0 < num_rows_; r0 += kBlock) {
    const std::size_t len = std::min(kBlock, num_rows_ - r0);
    std::fill(cell.begin(), cell.begin() + len, 0);
    for (std::size_t a = 0; a < columns_.size(); ++a) {
      const std::size_t domain = schema_.attr(a).domain_size;
      const uint32_t* col = columns_[a].data() + r0;
      for (std::size_t i = 0; i < len; ++i) {
        EK_CHECK_LT(col[i], domain);
        cell[i] = cell[i] * domain + col[i];
      }
    }
    for (std::size_t i = 0; i < len; ++i) x[cell[i]] += 1.0;
  }
  return x;
}

std::size_t Table::CountWhere(const Predicate& p) const {
  std::vector<std::size_t> attr_idx;
  for (const auto& c : p.conjuncts)
    attr_idx.push_back(schema_.AttrIndex(c.attr));
  std::size_t count = 0;
  for (std::size_t r = 0; r < num_rows_; ++r) {
    bool keep = true;
    for (std::size_t k = 0; k < p.conjuncts.size(); ++k) {
      if (!p.conjuncts[k].Eval(columns_[attr_idx[k]][r])) {
        keep = false;
        break;
      }
    }
    if (keep) ++count;
  }
  return count;
}

}  // namespace ektelo
