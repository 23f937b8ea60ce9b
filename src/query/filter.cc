#include "query/filter.h"

#include <sstream>

#include "common/error.h"

namespace dpss::query {

using storage::ConciseBitmap;
using storage::Segment;

namespace {

enum class Tag : std::uint8_t { kSelector = 1, kIn = 2, kAnd = 3, kOr = 4,
                                kNot = 5 };

class SelectorFilter final : public Filter {
 public:
  SelectorFilter(std::string dim, std::string value)
      : dim_(std::move(dim)), value_(std::move(value)) {}

  ConciseBitmap evaluate(const Segment& segment) const override {
    const std::size_t d = segment.schema().dimensionIndex(dim_);
    return segment.valueBitmap(d, value_);
  }

  std::string describe() const override {
    return dim_ + "='" + value_ + "'";
  }

  void serialize(ByteWriter& w) const override {
    w.u8(static_cast<std::uint8_t>(Tag::kSelector));
    w.str(dim_);
    w.str(value_);
  }

 private:
  std::string dim_;
  std::string value_;
};

class InFilter final : public Filter {
 public:
  InFilter(std::string dim, std::vector<std::string> values)
      : dim_(std::move(dim)), values_(std::move(values)) {}

  ConciseBitmap evaluate(const Segment& segment) const override {
    const std::size_t d = segment.schema().dimensionIndex(dim_);
    ConciseBitmap acc = ConciseBitmap::fromPositions({}, segment.rowCount());
    for (const auto& v : values_) acc = acc | segment.valueBitmap(d, v);
    return acc;
  }

  std::string describe() const override {
    std::ostringstream os;
    os << dim_ << " in (";
    for (std::size_t i = 0; i < values_.size(); ++i) {
      if (i) os << ",";
      os << "'" << values_[i] << "'";
    }
    os << ")";
    return os.str();
  }

  void serialize(ByteWriter& w) const override {
    w.u8(static_cast<std::uint8_t>(Tag::kIn));
    w.str(dim_);
    w.varint(values_.size());
    for (const auto& v : values_) w.str(v);
  }

 private:
  std::string dim_;
  std::vector<std::string> values_;
};

class AndFilter final : public Filter {
 public:
  explicit AndFilter(std::vector<FilterPtr> children)
      : children_(std::move(children)) {}

  ConciseBitmap evaluate(const Segment& segment) const override {
    DPSS_CHECK_MSG(!children_.empty(), "AND filter needs children");
    ConciseBitmap acc = children_.front()->evaluate(segment);
    for (std::size_t i = 1; i < children_.size(); ++i) {
      acc = acc & children_[i]->evaluate(segment);
    }
    return acc;
  }

  std::string describe() const override { return compose("AND"); }

  void serialize(ByteWriter& w) const override {
    w.u8(static_cast<std::uint8_t>(Tag::kAnd));
    w.varint(children_.size());
    for (const auto& c : children_) c->serialize(w);
  }

 protected:
  std::string compose(const char* op) const {
    std::ostringstream os;
    os << "(";
    for (std::size_t i = 0; i < children_.size(); ++i) {
      if (i) os << " " << op << " ";
      os << children_[i]->describe();
    }
    os << ")";
    return os.str();
  }

  std::vector<FilterPtr> children_;
};

class OrFilter final : public Filter {
 public:
  explicit OrFilter(std::vector<FilterPtr> children)
      : children_(std::move(children)) {}

  ConciseBitmap evaluate(const Segment& segment) const override {
    DPSS_CHECK_MSG(!children_.empty(), "OR filter needs children");
    ConciseBitmap acc = children_.front()->evaluate(segment);
    for (std::size_t i = 1; i < children_.size(); ++i) {
      acc = acc | children_[i]->evaluate(segment);
    }
    return acc;
  }

  std::string describe() const override {
    std::ostringstream os;
    os << "(";
    for (std::size_t i = 0; i < children_.size(); ++i) {
      if (i) os << " OR ";
      os << children_[i]->describe();
    }
    os << ")";
    return os.str();
  }

  void serialize(ByteWriter& w) const override {
    w.u8(static_cast<std::uint8_t>(Tag::kOr));
    w.varint(children_.size());
    for (const auto& c : children_) c->serialize(w);
  }

 private:
  std::vector<FilterPtr> children_;
};

class NotFilter final : public Filter {
 public:
  explicit NotFilter(FilterPtr child) : child_(std::move(child)) {}

  ConciseBitmap evaluate(const Segment& segment) const override {
    return ~child_->evaluate(segment);
  }

  std::string describe() const override {
    return "NOT " + child_->describe();
  }

  void serialize(ByteWriter& w) const override {
    w.u8(static_cast<std::uint8_t>(Tag::kNot));
    child_->serialize(w);
  }

 private:
  FilterPtr child_;
};

}  // namespace

namespace {

/// Nesting cap for decoded filters: a forged NOT chain one byte per level
/// would otherwise recurse as deep as the message is long.
constexpr int kMaxDecodeDepth = 64;
/// Every encoded filter is at least a tag and two one-byte fields.
constexpr std::size_t kMinFilterBytes = 3;

FilterPtr decodeFilter(ByteReader& r, int depth) {
  if (depth > kMaxDecodeDepth) {
    throw CorruptData("filter nested deeper than " +
                      std::to_string(kMaxDecodeDepth));
  }
  const auto tag = static_cast<Tag>(r.u8());
  switch (tag) {
    case Tag::kSelector: {
      std::string dim = r.str();
      std::string value = r.str();
      return selectorFilter(std::move(dim), std::move(value));
    }
    case Tag::kIn: {
      std::string dim = r.str();
      const std::uint64_t n = r.count(1);
      std::vector<std::string> values;
      values.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) values.push_back(r.str());
      return inFilter(std::move(dim), std::move(values));
    }
    case Tag::kAnd:
    case Tag::kOr: {
      const std::uint64_t n = r.count(kMinFilterBytes);
      if (n == 0) throw CorruptData("AND/OR filter without children");
      std::vector<FilterPtr> children;
      children.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        children.push_back(decodeFilter(r, depth + 1));
      }
      return tag == Tag::kAnd ? andFilter(std::move(children))
                              : orFilter(std::move(children));
    }
    case Tag::kNot:
      return notFilter(decodeFilter(r, depth + 1));
  }
  throw CorruptData("unknown filter tag");
}

}  // namespace

FilterPtr Filter::deserialize(ByteReader& r) { return decodeFilter(r, 0); }

FilterPtr selectorFilter(std::string dimension, std::string value) {
  return std::make_shared<SelectorFilter>(std::move(dimension),
                                          std::move(value));
}

FilterPtr inFilter(std::string dimension, std::vector<std::string> values) {
  return std::make_shared<InFilter>(std::move(dimension), std::move(values));
}

FilterPtr andFilter(std::vector<FilterPtr> children) {
  DPSS_CHECK_MSG(!children.empty(), "AND filter needs children");
  return std::make_shared<AndFilter>(std::move(children));
}

FilterPtr orFilter(std::vector<FilterPtr> children) {
  DPSS_CHECK_MSG(!children.empty(), "OR filter needs children");
  return std::make_shared<OrFilter>(std::move(children));
}

FilterPtr notFilter(FilterPtr child) {
  DPSS_CHECK_MSG(child != nullptr, "NOT filter needs a child");
  return std::make_shared<NotFilter>(std::move(child));
}

}  // namespace dpss::query
