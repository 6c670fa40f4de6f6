// The protocol-independent message representation at the heart of Starlink
// (paper section III-A, Fig 6).
//
// Parsers lift network bytes into an AbstractMessage; translation logic moves
// content between AbstractMessages of different protocols; composers lower an
// AbstractMessage back to bytes. Fields are addressed two ways:
//  - dotted paths ("URL.port") used internally by the engine, mirroring the
//    paper's msg.field selection operator, and
//  - the XML projection + XPath used by bridge specifications (Fig 8); the
//    projection conforms to the fixed schema
//        <field message="TYPE">
//          <primitiveField><label/><type/><value/></primitiveField>
//          <structuredField><label/> ...nested fields... </structuredField>
//        </field>
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/message/field.hpp"
#include "xml/dom.hpp"

namespace starlink {

class AbstractMessage {
public:
    AbstractMessage() = default;
    explicit AbstractMessage(std::string type) : type_(std::move(type)) {}

    /// The message type label, e.g. "SLPSrvRequest" -- the name automata
    /// transitions are labelled with.
    const std::string& type() const { return type_; }
    void setType(std::string type) { type_ = std::move(type); }

    const std::vector<Field>& fields() const { return fields_; }
    std::vector<Field>& fields() { return fields_; }
    void addField(Field field) { fields_.push_back(std::move(field)); }

    // -- dotted-path access ---------------------------------------------------
    /// Resolves "a.b.c" to the addressed field; nullptr when any step is
    /// missing. This is the paper's msg.field operator.
    const Field* field(std::string_view dottedPath) const;
    Field* field(std::string_view dottedPath);

    /// Value of the addressed primitive field; nullopt when missing or
    /// structured.
    std::optional<Value> value(std::string_view dottedPath) const;

    /// Sets the value of the addressed primitive field, creating intermediate
    /// structured fields and the leaf (with the given type name) as needed.
    void setValue(std::string_view dottedPath, Value value, std::string typeName = "String");

    /// Removes a top-level field by label; returns false when absent.
    bool removeField(std::string_view label);

    // -- XML projection ---------------------------------------------------------
    /// Projects into the fixed abstract-message XML schema. Root element is
    /// <field message="TYPE">; XPath expressions in bridge specs evaluate
    /// against this root.
    std::unique_ptr<xml::Node> toXml() const;

    /// Rebuilds a message from its projection; throws SpecError on schema
    /// violations.
    static AbstractMessage fromXml(const xml::Node& root);

    bool operator==(const AbstractMessage& other) const {
        return type_ == other.type_ && fields_ == other.fields_;
    }

    /// Human-readable one-per-line dump for diagnostics and examples.
    std::string describe() const;

private:
    std::string type_;
    std::vector<Field> fields_;
};

}  // namespace starlink
