// Fields of an abstract message (paper section III-A).
//
// "An abstract message consists of a set of fields, either primitive or
//  structured. A primitive field is composed of a label naming the field, a
//  type describing the type of the data content, a length defining the length
//  in bits of the field, and the value. A structured field is composed of
//  multiple primitive fields."  (We additionally allow structured fields to
//  nest, which the URL example in the paper implies.)
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/message/value.hpp"

namespace starlink {

class Field {
public:
    enum class Kind { Primitive, Structured };

    /// Creates a primitive field. `typeName` is the MDL type label (e.g.
    /// "Integer", "FQDN"); `lengthBits` is the wire length when known.
    static Field primitive(std::string label, std::string typeName, Value value,
                           std::optional<int> lengthBits = std::nullopt);

    /// Creates a structured field with the given children.
    static Field structured(std::string label, std::vector<Field> children = {});

    Kind kind() const { return kind_; }
    bool isPrimitive() const { return kind_ == Kind::Primitive; }

    const std::string& label() const { return label_; }
    void setLabel(std::string label) { label_ = std::move(label); }

    // -- primitive accessors (meaningful only when isPrimitive()) -----------
    const std::string& typeName() const { return typeName_; }
    void setTypeName(std::string t) { typeName_ = std::move(t); }
    const Value& value() const { return value_; }
    void setValue(Value v) { value_ = std::move(v); }
    std::optional<int> lengthBits() const { return lengthBits_; }
    void setLengthBits(std::optional<int> bits) { lengthBits_ = bits; }

    // -- structured accessors -------------------------------------------------
    const std::vector<Field>& children() const { return children_; }
    std::vector<Field>& children() { return children_; }

    /// First child with the given label (structured fields only), or nullptr.
    const Field* child(std::string_view label) const;
    Field* child(std::string_view label);

    bool operator==(const Field& other) const;

private:
    Field() = default;

    Kind kind_ = Kind::Primitive;
    std::string label_;
    std::string typeName_;
    Value value_;
    std::optional<int> lengthBits_;
    std::vector<Field> children_;
};

}  // namespace starlink
